package timeline

import (
	"sync"
	"testing"
	"time"
)

// fakeClock steps a deterministic clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestRingEviction fills a small ring past capacity and checks the
// oldest samples are evicted while queries stay exact over what
// remains.
func TestRingEviction(t *testing.T) {
	clk := newFakeClock()
	v := 0.0
	st := NewStore(Config{Capacity: 8, Now: clk.Now}, func(b *Batch) {
		b.Gauge("g", v)
		b.Counter("c", v*10)
	})
	for i := 0; i < 20; i++ {
		v = float64(i + 1)
		st.Sample()
		clk.Advance(time.Second)
	}
	now := clk.Now()
	sd := st.Query([]string{"g"}, now.Add(-time.Hour), now, 1000)
	if len(sd) != 1 || len(sd[0].Points) != 8 {
		t.Fatalf("got %d series / %d points, want 1 series with 8 points", len(sd), len(sd[0].Points))
	}
	// Samples 13..20 survive (values 13..20); the oldest must be 13.
	if got := sd[0].Points[0].V; got != 13 {
		t.Errorf("oldest surviving gauge = %g, want 13", got)
	}
	if got := sd[0].Points[7].V; got != 20 {
		t.Errorf("newest gauge = %g, want 20", got)
	}
	// Counter delta across the surviving ring: first in-ring sample is
	// the baseline (130), so the window increase is 200-130.
	d, ok := st.CounterWindow("c", now, time.Hour)
	if !ok || d != 70 {
		t.Errorf("counter window = %g (ok=%v), want 70", d, ok)
	}
}

// TestCounterReset simulates a process restart: the cumulative total
// drops, and the delta logic counts the post-reset total from zero
// instead of going negative.
func TestCounterReset(t *testing.T) {
	clk := newFakeClock()
	totals := []float64{0, 10, 20, 5, 15}
	i := 0
	st := NewStore(Config{Capacity: 64, Now: clk.Now}, func(b *Batch) {
		b.Counter("c", totals[i])
	})
	for i = 0; i < len(totals); i++ {
		st.Sample()
		clk.Advance(time.Second)
	}
	i = len(totals) - 1
	// 0→10 (+10), 10→20 (+10), 20→5 (reset, +5), 5→15 (+10) = 35.
	d, ok := st.CounterWindow("c", clk.Now(), time.Hour)
	if !ok || d != 35 {
		t.Errorf("reset-aware delta = %g (ok=%v), want 35", d, ok)
	}
}

// TestHistogramResetAndWindow: histogram snapshots difference
// per-bucket, with a decrease in any bucket treated as a restart.
func TestHistogramResetAndWindow(t *testing.T) {
	clk := newFakeClock()
	bounds := []float64{1, 2}
	snaps := [][]int64{
		{1, 0, 0},
		{3, 2, 0},
		{5, 2, 1},
		{1, 0, 0}, // restart
		{2, 1, 0},
	}
	i := 0
	st := NewStore(Config{Capacity: 64, Now: clk.Now}, func(b *Batch) {
		b.Hist("h", bounds, snaps[i])
	})
	for i = 0; i < len(snaps); i++ {
		st.Sample()
		clk.Advance(time.Second)
	}
	i = len(snaps) - 1
	_, counts, ok := st.HistWindow("h", clk.Now(), time.Hour)
	if !ok {
		t.Fatal("no histogram window")
	}
	// Deltas: {2,2,0} + {2,0,1} + reset {1,0,0} + {1,1,0} = {6,3,1}.
	want := []int64{6, 3, 1}
	for b := range want {
		if counts[b] != want[b] {
			t.Errorf("bucket %d = %d, want %d (all %v)", b, counts[b], want[b], counts)
		}
	}
}

// TestWindowedQueries pins window-edge semantics: CounterWindow uses
// the last sample at or before the window start as its baseline, so
// the increase is exactly the in-window growth.
func TestWindowedQueries(t *testing.T) {
	clk := newFakeClock()
	v := 0.0
	st := NewStore(Config{Capacity: 64, Now: clk.Now}, func(b *Batch) {
		b.Counter("c", v)
	})
	// One sample per second, totals 1..10.
	for i := 1; i <= 10; i++ {
		v = float64(i)
		st.Sample()
		clk.Advance(time.Second)
	}
	now := clk.Now().Add(-time.Second) // exactly at the last sample
	d, ok := st.CounterWindow("c", now, 3*time.Second)
	if !ok || d != 3 {
		t.Errorf("3s counter window = %g (ok=%v), want 3", d, ok)
	}
}

// TestQueryDownsampling: a query never returns more than maxPoints
// and counter rates stay consistent across the stride.
func TestQueryDownsampling(t *testing.T) {
	clk := newFakeClock()
	v := 0.0
	st := NewStore(Config{Capacity: 256, Now: clk.Now}, func(b *Batch) {
		b.Counter("c", v)
	})
	for i := 0; i < 100; i++ {
		v = float64(i * 2) // +2 per second
		st.Sample()
		clk.Advance(time.Second)
	}
	now := clk.Now()
	sd := st.Query([]string{"c"}, now.Add(-time.Hour), now, 10)
	if len(sd[0].Points) > 10 {
		t.Fatalf("downsampled to %d points, want <= 10", len(sd[0].Points))
	}
	for _, p := range sd[0].Points[1:] {
		if p.Rate != 2 {
			t.Errorf("strided counter rate = %g, want 2", p.Rate)
		}
	}
}

// TestConcurrentSampleAndQuery exercises the store under the race
// detector: one goroutine samples while others query and read
// windows.
func TestConcurrentSampleAndQuery(t *testing.T) {
	st := NewStore(Config{Capacity: 32}, func(b *Batch) {
		b.Gauge("g", 1)
		b.Counter("c", 2)
		b.Hist("h", []float64{1, 2}, []int64{1, 2, 3})
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st.Sample()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				now := time.Now()
				st.Query(nil, now.Add(-time.Minute), now, 50)
				st.CounterWindow("c", now, time.Minute)
				st.Percentiles("h", now, time.Minute)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestStartStopRestart: the sampler goroutine stops cleanly and can
// be restarted (the bench guard toggles it mid-measurement).
func TestStartStopRestart(t *testing.T) {
	st := NewStore(Config{Capacity: 32}, func(b *Batch) { b.Gauge("g", 1) })
	st.Start(time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	st.Stop()
	n := st.Samples()
	if n == 0 {
		t.Fatal("sampler took no samples")
	}
	time.Sleep(5 * time.Millisecond)
	if got := st.Samples(); got != n {
		t.Fatalf("samples advanced after Stop: %d -> %d", n, got)
	}
	st.Start(time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	st.Stop()
	if got := st.Samples(); got <= n {
		t.Fatalf("restart took no samples (%d -> %d)", n, got)
	}
}
