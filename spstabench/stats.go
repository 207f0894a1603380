package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs and the number of samples behind it; (0, 0) when xs is empty. xs
// is not modified.
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return s[k-1], n
}

// classPercentile returns the geometric mean, over the classes of
// class, of each class's nearest-rank p-th percentile of xs, and the
// number of samples behind it; a nil class puts every sample in one
// class. Each class keeps its own percentile, so none falls on the
// boundary between two classes, and a slowdown of any one class moves
// the mean by its share.
func classPercentile[K comparable](xs []float64, class []K, p float64) (float64, int) {
	if class == nil {
		return percentile(xs, p)
	}
	var order []K
	by := map[K][]float64{}
	for i, x := range xs {
		k := class[i]
		if _, ok := by[k]; !ok {
			order = append(order, k)
		}
		by[k] = append(by[k], x)
	}
	if len(order) == 0 {
		return 0, 0
	}
	var per []float64
	for _, k := range order {
		v, _ := percentile(by[k], p)
		per = append(per, v)
	}
	return geomean(per...), len(xs)
}

// A run sets up several times, half before the timed pass and half
// after it. setup_s is the median, so neither one cold pass (page
// faults, first use of process-wide caches) nor a burst of interference
// at one end of the run decides it. An engine set-up takes about 0.4 s,
// a served one 20–80 ms.
const (
	engineSetUps = 6
	servedSetUps = 12
)

// passBlocks is how many blocks of consecutive operations a timed pass
// is cut into. Throughput and latency percentiles are each the median
// over blocks of the block's own figure: interference from outside the
// process comes in bursts of seconds, and a burst then moves only the
// blocks it falls in.
const passBlocks = 10

// blockPercentile returns the median over passBlocks blocks of
// consecutive operations of each block's classPercentile, and the
// number of samples behind it.
func blockPercentile[K comparable](xs []float64, class []K, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	blocks := min(passBlocks, n)
	var per []float64
	for b := 0; b < blocks; b++ {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		var c []K
		if class != nil {
			c = class[lo:hi]
		}
		v, _ := classPercentile(xs[lo:hi], c, p)
		per = append(per, v)
	}
	return median(per), n
}

// blockRate returns the median over passBlocks blocks of consecutive
// operations of each block's operations per second of busy time; lat
// holds per-operation latencies in ms.
func blockRate(lat []float64) float64 {
	n := len(lat)
	blocks := min(passBlocks, n)
	var rates []float64
	for b := 0; b < blocks; b++ {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		busy := 0.0
		for _, x := range lat[lo:hi] {
			busy += x
		}
		rates = append(rates, float64(hi-lo)/(busy/1e3))
	}
	return median(rates)
}

// windowRate returns the median over passBlocks equal windows of a
// pass's wall time of the operations completed per second in each;
// done holds each operation's completion time from the start of the
// pass.
func windowRate(done []time.Duration, wall time.Duration) float64 {
	windows := passBlocks
	counts := make([]float64, windows)
	for _, d := range done {
		counts[min(windows-1, int(int64(d)*int64(windows)/int64(wall)))]++
	}
	width := wall.Seconds() / float64(windows)
	for i := range counts {
		counts[i] /= width
	}
	return median(counts)
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func geomean(xs ...float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns hits / (hits + misses), 0 when both are 0.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// memStats is the part of runtime.MemStats the benchmark reports.
// numGC counts only the collections the runtime started itself, not
// the ones the benchmark forces between operations.
type memStats struct {
	totalAlloc, mallocs uint64
	numGC               uint32
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{m.TotalAlloc, m.Mallocs, m.NumGC - m.NumForcedGC}
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Maxrss is in KiB on Linux
}

// sourceDigest hashes the Go sources and module files under the working
// directory, skipping hidden directories such as the build output.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown (" + err.Error() + ")"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
