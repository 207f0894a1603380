package dist

import (
	"math/rand"
	"testing"
)

// BenchmarkMixture ablates the WEIGHTED SUM implementations: the
// O(k·n) running-product closed form used by the analyzer against
// the paper's literal O(2^k) subset enumeration.
func BenchmarkMixture(b *testing.B) {
	g := NewGrid(-8, 24, 1.0/16)
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{2, 4, 8, 12} {
		in := make([]SwitchInput, k)
		for i := range in {
			top := FromNormal(g, Normal{Mu: rng.Float64() * 4, Sigma: 0.5 + rng.Float64()})
			top.Scale(0.25)
			in[i] = SwitchInput{Stay: 0.5, TOP: top}
		}
		b.Run("closed-form/k="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MaxMixture(g, in)
			}
		})
		b.Run("subset-2^k/k="+itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SubsetMixture(nil, g, in, true)
			}
		})
	}
}

func BenchmarkPMFOps(b *testing.B) {
	g := NewGrid(-8, 24, 1.0/16)
	p := FromNormal(g, Normal{Mu: 2, Sigma: 1})
	q := FromNormal(g, Normal{Mu: 3, Sigma: 2})
	b.Run("MaxPMF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MaxPMF(p, q)
		}
	})
	b.Run("Shift", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Shift(1)
		}
	})
	b.Run("Convolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Convolve(q)
		}
	})
	b.Run("FromNormal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FromNormal(g, Normal{Mu: 2, Sigma: 1})
		}
	})
}

func BenchmarkClarkMax(b *testing.B) {
	x := Normal{Mu: 0, Sigma: 1}
	y := Normal{Mu: 0.5, Sigma: 1.5}
	for i := 0; i < b.N; i++ {
		MaxNormal(x, y, 0)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
