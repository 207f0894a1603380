package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPow2HistBuckets(t *testing.T) {
	var h Pow2Hist
	for _, v := range []int{0, 1, 2, 3, 4, 7, 8, 160, 1 << 30} {
		h.Observe(v)
	}
	buckets := h.snapshot()
	total := int64(0)
	for _, b := range buckets {
		if b.Count <= 0 || b.Lo > b.Hi {
			t.Errorf("bad bucket %+v", b)
		}
		total += b.Count
	}
	if total != 9 {
		t.Errorf("histogram total = %d, want 9", total)
	}
	// 2 and 3 share the bit-length-2 bucket [2,3].
	found := false
	for _, b := range buckets {
		if b.Lo == 2 && b.Hi == 3 {
			found = true
			if b.Count != 2 {
				t.Errorf("[2,3] count = %d, want 2", b.Count)
			}
		}
	}
	if !found {
		t.Error("missing [2,3] bucket")
	}
}

func TestFaninHistOverflow(t *testing.T) {
	var h FaninHist
	h.Add(2, 4)
	h.Add(2, 1)
	h.Add(MaxFanin+10, 7) // folds into the last bucket
	h.Add(-1, 3)          // clamps to 0
	b := h.snapshot()
	want := map[int]int64{0: 3, 2: 5, MaxFanin: 7}
	if len(b) != len(want) {
		t.Fatalf("buckets = %+v", b)
	}
	for _, x := range b {
		if want[x.Fanin] != x.Count {
			t.Errorf("fanin %d = %d, want %d", x.Fanin, x.Count, want[x.Fanin])
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	m.KernelHits.Add(3)
	m.KernelMisses.Add(1)
	m.ConvDirect.Add(5)
	m.ConvFFT.Add(2)
	m.ConvSupport.Observe(160)
	m.MixtureEvals.Add(3, 1)
	m.SubsetLeaves.Add(4, 256)
	m.MCRuns.Add(10000)
	m.Gates.Add(7)

	s := m.Snapshot()
	if s.KernelCache.Hits != 3 || s.KernelCache.Misses != 1 {
		t.Errorf("kernel cache snapshot %+v", s.KernelCache)
	}
	if s.Convolution.Direct != 5 || s.Convolution.FFT != 2 {
		t.Errorf("convolution snapshot %+v", s.Convolution)
	}
	if s.Gates != 7 {
		t.Errorf("gates = %d, want 7", s.Gates)
	}
	if s.MonteCarloRuns != 10000 {
		t.Errorf("mc runs = %d", s.MonteCarloRuns)
	}

	// The snapshot must round-trip as JSON (the CLI contract).
	enc, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if back.KernelCache.Hits != 3 || back.Gates != 7 {
		t.Error("JSON round-trip lost kernel hits or gates")
	}
}

// TestMetricsHoldNoWallTime: the registry holds counts only, and the
// tracer's spans are the one source of wall time. A field of type
// time.Duration or named *NS, in Metrics or in its Snapshot, at any
// depth, would be a second clock.
func TestMetricsHoldNoWallTime(t *testing.T) {
	durType := reflect.TypeOf(time.Duration(0))
	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if typ == durType {
			t.Errorf("%s is a time.Duration", path)
		}
		switch typ.Kind() {
		case reflect.Array, reflect.Slice, reflect.Pointer:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			if seen[typ] {
				return
			}
			seen[typ] = true
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				if strings.HasSuffix(f.Name, "NS") {
					t.Errorf("%s.%s is named as a wall time", path, f.Name)
				}
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("Metrics", reflect.TypeOf(Metrics{}))
	walk("Snapshot", reflect.TypeOf(Snapshot{}))
}

func TestScopeNilSafety(t *testing.T) {
	var s *Scope
	if s.M() != nil || s.T() != nil || s.Snapshot() != nil {
		t.Error("nil scope accessors must return nil")
	}
	s = NewScope()
	if s.M() == nil {
		t.Error("NewScope has no metrics registry")
	}
	if s.T() != nil {
		t.Error("NewScope must not trace")
	}
	s = NewTracedScope()
	if s.M() == nil || s.T() == nil {
		t.Error("NewTracedScope must carry both registries")
	}
	if s.Snapshot() == nil {
		t.Error("Snapshot on a live scope returned nil")
	}
}

// TestSnapshotMerge: AddTo folds one registry into another, so the
// snapshot of the sum merges the two registries' snapshots — counters
// and histogram buckets add, the peaks take the larger — and a nil
// registry adds nothing. Every counter and histogram of Metrics must
// take part, so a new one that AddTo misses fails here.
func TestSnapshotMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.KernelHits.Add(2)
	a.ConvSupport.Observe(5)
	a.MixtureEvals.Add(2, 3)
	a.Gates.Add(4)
	a.SupportWidthPeak.Store(90)
	b.KernelHits.Add(5)
	b.ConvSupport.Observe(5)
	b.ConvSupport.Observe(1000)
	b.MixtureEvals.Add(2, 1)
	b.MixtureEvals.Add(7, 2)
	b.Gates.Add(9)
	b.SupportWidthPeak.Store(40)

	var sum Metrics
	a.AddTo(&sum)
	b.AddTo(&sum)
	(*Metrics)(nil).AddTo(&sum) // must be a no-op
	s := sum.Snapshot()
	if s.KernelCache.Hits != 7 {
		t.Errorf("merged hits = %d, want 7", s.KernelCache.Hits)
	}
	var support int64
	for _, h := range s.Convolution.SupportHist {
		support += h.Count
	}
	if support != 3 {
		t.Errorf("merged support observations = %d, want 3", support)
	}
	evals := map[int]int64{}
	for _, f := range s.Mixture.EvalsByFanin {
		evals[f.Fanin] = f.Count
	}
	if evals[2] != 4 || evals[7] != 2 {
		t.Errorf("merged evals = %v", evals)
	}
	if s.Gates != 13 {
		t.Errorf("merged gates = %d, want 13", s.Gates)
	}
	if s.Grid.SupportWidthPeak != 90 {
		t.Errorf("merged support width peak = %d, want 90", s.Grid.SupportWidthPeak)
	}

	// Field i of src holds i+1 in every counter and bucket; added
	// twice, dst must hold 2(i+1), or i+1 for the two peaks.
	src, dst := NewMetrics(), NewMetrics()
	counters := func(m *Metrics, f func(name string, i int, c *atomic.Int64)) {
		v := reflect.ValueOf(m).Elem()
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			switch p := v.Field(i).Addr().Interface().(type) {
			case *atomic.Int64:
				f(name, i, p)
			case *Pow2Hist:
				for j := range p.b {
					f(name, i, &p.b[j])
				}
			case *FaninHist:
				for j := range p.b {
					f(name, i, &p.b[j])
				}
			default:
				t.Fatalf("Metrics.%s has type %T, which this test does not fill", name, p)
			}
		}
	}
	counters(src, func(_ string, i int, c *atomic.Int64) { c.Store(int64(i + 1)) })
	src.AddTo(dst)
	src.AddTo(dst)
	counters(dst, func(name string, i int, c *atomic.Int64) {
		want := int64(2 * (i + 1))
		if name == "SupportWidthPeak" || name == "SlabBytesPeak" {
			want = int64(i + 1)
		}
		if got := c.Load(); got != want {
			t.Errorf("Metrics.%s: AddTo twice gives %d, want %d", name, got, want)
		}
	})
}

func TestMetricsConcurrentUpdates(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.ConvDirect.Add(1)
				m.ConvSupport.Observe(i)
				m.Gates.Add(1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Convolution.Direct != 8000 {
		t.Errorf("direct = %d, want 8000", s.Convolution.Direct)
	}
	if s.Gates != 8000 {
		t.Errorf("gates = %d, want 8000", s.Gates)
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer()
	tr.NameThread(0, "levels")
	tr.NameThread(1, "worker 0")
	t0 := time.Now()
	tr.Span("L0", "level", 0, t0, 2*time.Millisecond, map[string]any{"gates": 3})
	tr.Span("g1", "gate", 1, t0, time.Millisecond, nil)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	// 2 metadata + 2 spans.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4", len(doc.TraceEvents))
	}
	var spans, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Dur <= 0 || e.Ts < 0 || e.PID != 1 {
				t.Errorf("bad span %+v", e)
			}
		case "M":
			meta++
			if e.Name != "thread_name" {
				t.Errorf("bad metadata event %+v", e)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if spans != 2 || meta != 2 {
		t.Errorf("spans=%d meta=%d", spans, meta)
	}
}

func TestTracerDropsOverCap(t *testing.T) {
	tr := NewTracer()
	tr.max = 4
	t0 := time.Now()
	for i := 0; i < 10; i++ {
		tr.Span("g", "gate", 1, t0, time.Microsecond, nil)
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", tr.Dropped())
	}
}

func TestTraceMetadataRecordsDropped(t *testing.T) {
	tr := NewTracer()
	tr.max = 4
	t0 := time.Now()
	for i := 0; i < 10; i++ {
		tr.Span("g", "gate", 1, t0, time.Microsecond, nil)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metadata struct {
			Spans     int   `json:"spans"`
			Dropped   int64 `json:"dropped"`
			MaxEvents int   `json:"max_events"`
		} `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Metadata.Spans != 4 || doc.Metadata.Dropped != 6 || doc.Metadata.MaxEvents != 4 {
		t.Errorf("trace metadata = %+v", doc.Metadata)
	}
}
