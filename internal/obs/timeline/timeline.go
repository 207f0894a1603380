// Package timeline is a dependency-free in-process time-series
// store: a sampler scrapes registered collectors at a fixed interval
// into bounded per-series ring buffers, turning the service's
// point-in-time atomics (RED histograms, cache and pool counters,
// drift gauges, runtime stats) into windowed history that can answer
// "did p99 degrade over the last ten minutes?" without an external
// metrics stack.
//
// Three series kinds cover everything the service exposes:
//
//   - Gauge: the sampled value is the value (queue depth, heap bytes).
//   - Counter: the sampled value is a monotone cumulative total;
//     queries are delta-aware — consecutive-sample differences, with a
//     decrease read as a process restart so the post-reset total
//     counts from zero instead of producing a negative spike.
//   - Histogram: the sample is a snapshot of cumulative per-bucket
//     counts (fixed finite bounds plus a +Inf overflow bucket); a
//     windowed query subtracts the snapshot at the window start from
//     the latest, and percentiles come from obs.HistQuantile's exact
//     within-bucket interpolation.
//
// The store never allocates past its configured ring capacity: the
// oldest sample of each series is overwritten once the ring is full,
// bounding memory for arbitrarily long uptimes. All methods are safe
// for concurrent use; sampling takes one write lock per tick, queries
// a read lock. The SLO engine (slo.go) evaluates its objectives at
// every sample boundary, so alert transitions are deterministic
// functions of the sampled history — tests drive Sample with a fake
// clock and assert exact fire/clear ticks.
package timeline

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Kind is a series' data model.
type Kind int

const (
	// Gauge samples carry the instantaneous value.
	Gauge Kind = iota
	// Counter samples carry a monotone cumulative total; windowed
	// reads difference consecutive samples with reset detection.
	Counter
	// Histogram samples carry cumulative per-bucket counts.
	Histogram
)

func (k Kind) String() string {
	switch k {
	case Gauge:
		return "gauge"
	case Counter:
		return "counter"
	case Histogram:
		return "histogram"
	}
	return "unknown"
}

// Config parameterizes a Store.
type Config struct {
	// Capacity bounds each series' ring (samples kept); 0 means
	// DefaultCapacity.
	Capacity int
	// Now is the clock; nil means time.Now. Tests inject a fake clock
	// so window arithmetic and SLO transitions are deterministic.
	Now func() time.Time
}

// DefaultCapacity keeps ~34 minutes of history at a 1s sampling
// interval, in about 16 KiB per scalar series.
const DefaultCapacity = 2048

// Collector contributes samples to one tick: it is called with the
// tick's Batch and reports current values through Gauge/Counter/Hist.
type Collector func(b *Batch)

// series is one named ring. Scalar kinds use v; histograms keep a
// per-sample snapshot of cumulative bucket counts in h (slot slices
// are reused once the ring wraps, so a full ring allocates nothing).
type series struct {
	name   string
	kind   Kind
	bounds []float64 // histograms only

	t     []int64 // unix nanos, ring storage
	v     []float64
	h     [][]int64
	start int // index of oldest sample
	n     int // samples held
}

// at returns the i-th oldest sample index's storage slot.
func (s *series) at(i int) int { return (s.start + i) % len(s.t) }

// Store is the time-series store.
type Store struct {
	cap        int
	now        func() time.Time
	collectors []Collector

	mu      sync.RWMutex
	series  map[string]*series
	order   []string // registration order, for stable listings
	samples int64    // ticks taken
	lastT   int64    // unix nanos of the newest tick

	slo *SLOEngine

	runMu sync.Mutex
	stop  chan struct{}
	done  chan struct{}
}

// NewStore builds a store over the given collectors.
func NewStore(cfg Config, collectors ...Collector) *Store {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Store{
		cap:        cfg.Capacity,
		now:        now,
		collectors: collectors,
		series:     make(map[string]*series),
	}
}

// SetSLO attaches an SLO engine: Evaluate runs after every Sample, so
// objective state only ever changes at sample boundaries.
func (st *Store) SetSLO(e *SLOEngine) { st.slo = e }

// SLO returns the attached engine, nil when none is.
func (st *Store) SLO() *SLOEngine { return st.slo }

// Batch is one tick's collection surface, valid only during Sample.
type Batch struct {
	st *Store
	t  int64
}

// Gauge records the instantaneous value of a gauge series.
func (b *Batch) Gauge(name string, v float64) { b.st.append(name, Gauge, nil, v, nil, b.t) }

// Counter records the cumulative total of a counter series.
func (b *Batch) Counter(name string, total float64) {
	b.st.append(name, Counter, nil, total, nil, b.t)
}

// Hist records a histogram snapshot: cumulative per-bucket counts
// (len(bounds)+1, last bucket +Inf). The counts are copied.
func (b *Batch) Hist(name string, bounds []float64, counts []int64) {
	b.st.append(name, Histogram, bounds, 0, counts, b.t)
}

// append stores one sample under the write lock held by Sample.
func (st *Store) append(name string, kind Kind, bounds []float64, v float64, counts []int64, t int64) {
	s := st.series[name]
	if s == nil {
		s = &series{name: name, kind: kind, t: make([]int64, st.cap)}
		if kind == Histogram {
			s.bounds = append([]float64(nil), bounds...)
			s.h = make([][]int64, st.cap)
		} else {
			s.v = make([]float64, st.cap)
		}
		st.series[name] = s
		st.order = append(st.order, name)
	}
	if s.kind != kind {
		return // collector bug; drop rather than corrupt the ring
	}
	var slot int
	if s.n == len(s.t) {
		slot = s.start
		s.start = (s.start + 1) % len(s.t)
	} else {
		slot = s.at(s.n)
		s.n++
	}
	s.t[slot] = t
	if kind == Histogram {
		if cap(s.h[slot]) < len(counts) {
			s.h[slot] = make([]int64, len(counts))
		}
		s.h[slot] = s.h[slot][:len(counts)]
		copy(s.h[slot], counts)
	} else {
		s.v[slot] = v
	}
}

// Sample takes one tick: every collector reports into the ring under
// one write lock, then the attached SLO engine (if any) evaluates at
// the tick's timestamp. Returns the tick time.
func (st *Store) Sample() time.Time {
	now := st.now()
	b := &Batch{st: st, t: now.UnixNano()}
	st.mu.Lock()
	for _, c := range st.collectors {
		c(b)
	}
	st.samples++
	st.lastT = b.t
	st.mu.Unlock()
	if st.slo != nil {
		st.slo.Evaluate(now)
	}
	return now
}

// Start launches the sampling goroutine at the given interval. A
// second Start without an intervening Stop is a no-op. The first tick
// fires immediately so a fresh store is never empty.
func (st *Store) Start(interval time.Duration) {
	st.runMu.Lock()
	defer st.runMu.Unlock()
	if st.stop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	st.stop, st.done = stop, done
	go func() {
		defer close(done)
		st.Sample()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				st.Sample()
			}
		}
	}()
}

// Stop halts the sampling goroutine and waits for it to exit. The
// store remains queryable and can be restarted.
func (st *Store) Stop() {
	st.runMu.Lock()
	defer st.runMu.Unlock()
	if st.stop == nil {
		return
	}
	close(st.stop)
	<-st.done
	st.stop, st.done = nil, nil
}

// Samples returns the number of ticks taken.
func (st *Store) Samples() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.samples
}

// Point is one emitted query point. T is unix milliseconds. Scalar
// kinds fill V (and Rate for counters, per second); histogram points
// summarize the step between emitted points: Count observations,
// Rate per second, and p50/p95/p99 by exact within-bucket
// interpolation over the step's bucket deltas.
type Point struct {
	T     int64   `json:"t"`
	V     float64 `json:"v,omitzero"`
	Rate  float64 `json:"rate,omitzero"`
	Count int64   `json:"count,omitzero"`
	P50   float64 `json:"p50,omitzero"`
	P95   float64 `json:"p95,omitzero"`
	P99   float64 `json:"p99,omitzero"`
}

// SeriesData is one series' windowed query result.
type SeriesData struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// Query returns the named series' samples in (since, until],
// downsampled by striding so each series emits at most maxPoints
// points. Empty names means every series; maxPoints <= 0 means 200.
// Counter and histogram points are delta-aware across the stride: a
// point's Rate/Count/percentiles describe the step since the previous
// emitted point (or the last sample before the window for the first),
// with a cumulative decrease read as a counter reset.
func (st *Store) Query(names []string, since, until time.Time, maxPoints int) []SeriesData {
	if maxPoints <= 0 {
		maxPoints = 200
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if len(names) == 0 {
		names = st.order
	}
	lo, hi := since.UnixNano(), until.UnixNano()
	var out []SeriesData
	for _, name := range names {
		s := st.series[name]
		if s == nil {
			continue
		}
		out = append(out, st.querySeries(s, lo, hi, maxPoints))
	}
	return out
}

// windowIndex locates the in-window sample index range [i0, i1) of s
// for (lo, hi] and the index of the baseline sample (the last sample
// at or before lo; -1 when none).
func (s *series) windowIndex(lo, hi int64) (i0, i1, base int) {
	// Samples are time-ordered; binary search both edges.
	i0 = sort.Search(s.n, func(i int) bool { return s.t[s.at(i)] > lo })
	i1 = sort.Search(s.n, func(i int) bool { return s.t[s.at(i)] > hi })
	return i0, i1, i0 - 1
}

func (st *Store) querySeries(s *series, lo, hi int64, maxPoints int) SeriesData {
	sd := SeriesData{Name: s.name, Kind: s.kind.String()}
	i0, i1, base := s.windowIndex(lo, hi)
	n := i1 - i0
	if n <= 0 {
		return sd
	}
	stride := (n + maxPoints - 1) / maxPoints
	prev := base // index of the previous emitted (or baseline) sample
	for i := i0 + stride - 1; i < i1; i += stride {
		slot := s.at(i)
		p := Point{T: s.t[slot] / int64(time.Millisecond)}
		switch s.kind {
		case Gauge:
			p.V = s.v[slot]
		case Counter:
			p.V = s.v[slot]
			d, dt := s.counterDelta(prev, i)
			if dt > 0 {
				p.Rate = d / dt.Seconds()
			}
		case Histogram:
			counts, dt := s.histDelta(prev, i)
			for _, c := range counts {
				p.Count += c
			}
			if dt > 0 {
				p.Rate = float64(p.Count) / dt.Seconds()
			}
			if p.Count > 0 {
				p.P50 = obs.HistQuantile(s.bounds, counts, 0.50)
				p.P95 = obs.HistQuantile(s.bounds, counts, 0.95)
				p.P99 = obs.HistQuantile(s.bounds, counts, 0.99)
			}
		}
		sd.Points = append(sd.Points, p)
		prev = i
	}
	return sd
}

// counterDelta sums the reset-aware value increase from sample index
// from (exclusive; -1 for "window start, no baseline") to sample
// index to (inclusive), along with the elapsed time. A sample whose
// cumulative value is below its predecessor's marks a restart: the
// post-reset sample contributes its full value (counted from zero).
func (s *series) counterDelta(from, to int) (delta float64, dt time.Duration) {
	if to < 0 || to >= s.n {
		return 0, 0
	}
	var t0 int64
	var prevV float64
	havePrev := false
	if from >= 0 {
		slot := s.at(from)
		t0, prevV, havePrev = s.t[slot], s.v[slot], true
	} else {
		t0 = s.t[s.at(0)] // best effort: window start unknown
	}
	for i := from + 1; i <= to; i++ {
		v := s.v[s.at(i)]
		if !havePrev {
			// First sample ever seen in the ring: its cumulative total
			// predates the window, so it only establishes the baseline.
			prevV, havePrev = v, true
			t0 = s.t[s.at(i)]
			continue
		}
		if v >= prevV {
			delta += v - prevV
		} else {
			delta += v // counter reset: count from zero
		}
		prevV = v
	}
	return delta, time.Duration(s.t[s.at(to)] - t0)
}

// histDelta returns the per-bucket observation counts between sample
// index from (exclusive; -1 for no baseline) and to (inclusive),
// reset-aware per snapshot pair: when any bucket decreased the whole
// snapshot is post-restart and contributes wholesale.
func (s *series) histDelta(from, to int) (counts []int64, dt time.Duration) {
	if to < 0 || to >= s.n {
		return nil, 0
	}
	counts = make([]int64, len(s.bounds)+1)
	var prev []int64
	var t0 int64
	if from >= 0 {
		slot := s.at(from)
		prev, t0 = s.h[slot], s.t[slot]
	}
	for i := from + 1; i <= to; i++ {
		slot := s.at(i)
		cur := s.h[slot]
		if prev == nil {
			// First sample in the ring: baseline only, like counters.
			prev, t0 = cur, s.t[slot]
			continue
		}
		reset := len(prev) != len(cur)
		for b := 0; !reset && b < len(cur); b++ {
			reset = cur[b] < prev[b]
		}
		for b := range cur {
			if reset {
				counts[b] += cur[b]
			} else {
				counts[b] += cur[b] - prev[b]
			}
		}
		prev = cur
	}
	return counts, time.Duration(s.t[s.at(to)] - t0)
}

// CounterWindow returns the reset-aware increase of a counter series
// over the window ending at now, and whether the series had any
// in-window samples.
func (st *Store) CounterWindow(name string, now time.Time, w time.Duration) (float64, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.series[name]
	if s == nil || s.kind != Counter {
		return 0, false
	}
	i0, i1, base := s.windowIndex(now.Add(-w).UnixNano(), now.UnixNano())
	if i1 <= i0 {
		return 0, false
	}
	d, _ := s.counterDelta(base, i1-1)
	return d, true
}

// HistWindow returns a histogram series' per-bucket observation
// counts over the window ending at now, with its bucket bounds.
func (st *Store) HistWindow(name string, now time.Time, w time.Duration) (bounds []float64, counts []int64, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.series[name]
	if s == nil || s.kind != Histogram {
		return nil, nil, false
	}
	i0, i1, base := s.windowIndex(now.Add(-w).UnixNano(), now.UnixNano())
	if i1 <= i0 {
		return nil, nil, false
	}
	counts, _ = s.histDelta(base, i1-1)
	return s.bounds, counts, true
}

// GaugeWindow returns a gauge series' average, maximum and latest
// value over the window ending at now, and the in-window sample
// count.
func (st *Store) GaugeWindow(name string, now time.Time, w time.Duration) (avg, max, last float64, n int) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.series[name]
	if s == nil || s.kind != Gauge {
		return 0, 0, 0, 0
	}
	i0, i1, _ := s.windowIndex(now.Add(-w).UnixNano(), now.UnixNano())
	sum := 0.0
	for i := i0; i < i1; i++ {
		v := s.v[s.at(i)]
		sum += v
		if n == 0 || v > max {
			max = v
		}
		last = v
		n++
	}
	if n > 0 {
		avg = sum / float64(n)
	}
	return avg, max, last, n
}

// Percentiles summarizes a histogram series over the window ending at
// now: observation count plus p50/p95/p99 by exact within-bucket
// interpolation.
func (st *Store) Percentiles(name string, now time.Time, w time.Duration) (count int64, p50, p95, p99 float64, ok bool) {
	bounds, counts, ok := st.HistWindow(name, now, w)
	if !ok {
		return 0, 0, 0, 0, false
	}
	for _, c := range counts {
		count += c
	}
	if count == 0 {
		return 0, 0, 0, 0, true
	}
	return count,
		obs.HistQuantile(bounds, counts, 0.50),
		obs.HistQuantile(bounds, counts, 0.95),
		obs.HistQuantile(bounds, counts, 0.99),
		true
}
