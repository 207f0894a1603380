package repro

import (
	"math"
	"sync"
	"testing"
)

// TestConcurrentScopesIsolatedAndBitIdentical is the tentpole
// contract of the request-scoped observability refactor: N goroutines
// analyzing different circuits with independent scopes, under -race,
// must (a) produce results bit-identical to solo runs of the same
// configuration and (b) accumulate counters only into their own
// scope, matching the solo run's counters exactly.
func TestConcurrentScopesIsolatedAndBitIdentical(t *testing.T) {
	names := []string{"s208", "s298", "s344", "s349", "s382", "s386"}

	type solo struct {
		circuit *Circuit
		result  *SPSTAResult
		hits    int64
		misses  int64
		gates   int64
	}
	ref := make([]solo, len(names))
	for i, name := range names {
		c, err := GenerateBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		scope := NewEngineScope()
		res, err := AnalyzeSPSTA(c, UniformInputs(c), SPSTAOptions{Workers: 2, Obs: scope})
		if err != nil {
			t.Fatal(err)
		}
		snap := scope.Snapshot()
		ref[i] = solo{
			circuit: c, result: res,
			hits: snap.KernelCache.Hits + snap.KernelCache.Races, misses: snap.KernelCache.Misses,
			gates: snap.Gates,
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(names))
	results := make([]*SPSTAResult, len(names))
	scopes := make([]*EngineScope, len(names))
	for i := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := GenerateBenchmark(names[i])
			if err != nil {
				errs[i] = err
				return
			}
			scopes[i] = NewEngineScope()
			results[i], errs[i] = AnalyzeSPSTA(c, UniformInputs(c), SPSTAOptions{Workers: 2, Obs: scopes[i]})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
	}

	for i, name := range names {
		// Bit identity against the solo run: every endpoint's
		// four-value probabilities and arrival moments.
		c := ref[i].circuit
		for _, ep := range c.Endpoints() {
			for v := Value(0); v < 4; v++ {
				a := ref[i].result.Probability(ep, v)
				b := results[i].Probability(ep, v)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s %s P[%v]: solo %v, concurrent %v",
						name, c.Nodes[ep].Name, v, a, b)
				}
			}
			for _, d := range []Dir{DirRise, DirFall} {
				am, as, ap := ref[i].result.Arrival(ep, d)
				bm, bs, bp := results[i].Arrival(ep, d)
				if math.Float64bits(am) != math.Float64bits(bm) ||
					math.Float64bits(as) != math.Float64bits(bs) ||
					math.Float64bits(ap) != math.Float64bits(bp) {
					t.Errorf("%s %s dir %v: solo (%v,%v,%v), concurrent (%v,%v,%v)",
						name, c.Nodes[ep].Name, d, am, as, ap, bm, bs, bp)
				}
			}
		}

		// Counter isolation: the concurrent scope saw exactly the
		// solo run's work — nothing leaked in from the other five
		// goroutines, nothing leaked out.
		snap := scopes[i].Snapshot()
		// A lookup that finds an entry another worker of the same run
		// inserted counts as a hit or a race by timing, so the two are
		// compared as one.
		hits := snap.KernelCache.Hits + snap.KernelCache.Races
		if hits != ref[i].hits || snap.KernelCache.Misses != ref[i].misses {
			t.Errorf("%s: kernel lookups (%d hits and races, %d misses) != solo (%d, %d)",
				name, hits, snap.KernelCache.Misses, ref[i].hits, ref[i].misses)
		}
		if snap.Gates != ref[i].gates {
			t.Errorf("%s: %d instrumented gates != solo %d", name, snap.Gates, ref[i].gates)
		}
	}
}
