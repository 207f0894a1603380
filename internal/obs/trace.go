package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxEvents bounds a Tracer's buffer; spans recorded beyond it
// are counted in Dropped instead of stored, so a huge circuit cannot
// exhaust memory through tracing.
const DefaultMaxEvents = 1 << 20

// SpanID identifies one span within a Tracer. IDs are allocated with
// NewSpan, which lets a parent reserve its ID before its children run
// and record itself after they finish — children always know their
// parent even though spans are buffered on completion. Zero is "no
// parent" (a root span).
type SpanID uint64

// Event is one Chrome trace_event entry. Complete spans use Ph "X"
// with microsecond Ts/Dur; metadata events (thread names) use Ph "M".
// The schema is the trace_event JSON consumed by chrome://tracing and
// Perfetto; the span_id/parent_span_id fields are an extension both
// viewers ignore, carrying the parent/child structure that Tree
// reconstructs.
type Event struct {
	Name   string         `json:"name"`
	Cat    string         `json:"cat,omitempty"`
	Ph     string         `json:"ph"`
	Ts     float64        `json:"ts"`
	Dur    float64        `json:"dur,omitempty"`
	PID    int            `json:"pid"`
	TID    int            `json:"tid"`
	SpanID uint64         `json:"span_id,omitempty"`
	Parent uint64         `json:"parent_span_id,omitempty"`
	Args   map[string]any `json:"args,omitempty"`
}

// Tracer records spans from the level-parallel schedule and exports
// them as Chrome trace_event JSON (flat timeline) or as a nested span
// tree (Tree/WriteTreeJSON). Track (tid) conventions, applied by the
// instrumented call sites:
//
//	tid 0      — the level schedule (one span per level barrier)
//	tid w+1    — worker w's per-gate spans
//
// so worker imbalance shows up directly as gaps on the worker tracks
// of a Perfetto timeline.
//
// A tracer runs in one of two granularities. A fine tracer (NewTracer)
// records everything including per-gate spans — two clock reads and a
// mutex append per gate, for offline timeline inspection. A coarse
// tracer (NewCoarseTracer) is cheap enough to stay on for every
// service request: instrumented sites consult Fine() and skip the
// per-gate work, so only request/engine/level spans (a handful
// per level) are recorded.
type Tracer struct {
	start    time.Time
	max      int
	coarse   bool
	dropped  atomic.Int64
	nextSpan atomic.Uint64

	mu      sync.Mutex
	traceID string
	events  []Event
	threads map[int]string
}

// NewTracer returns an empty fine-grained tracer whose clock starts
// now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now(), max: DefaultMaxEvents, threads: make(map[int]string)}
}

// NewCoarseTracer returns an empty coarse tracer: Fine() reports
// false, so instrumented sites skip per-gate spans and record only the
// request → engine → level skeleton.
func NewCoarseTracer() *Tracer {
	t := NewTracer()
	t.coarse = true
	return t
}

// Fine reports whether per-gate spans should be recorded. It is
// nil-safe: a nil tracer is not fine, and hot paths use it as the
// single branch deciding between per-gate instrumentation and the
// cheap coarse path.
func (t *Tracer) Fine() bool { return t != nil && !t.coarse }

// NewSpan allocates a span ID without recording anything. Allocate the
// parent's ID before dispatching children, then RecordSpan the parent
// once its duration is known. Nil-safe; returns 0 on a nil tracer.
func (t *Tracer) NewSpan() SpanID {
	if t == nil {
		return 0
	}
	return SpanID(t.nextSpan.Add(1))
}

// RecordSpan records one complete ("X") span with an explicit span ID
// and parent. args may be nil. Nil-safe.
func (t *Tracer) RecordSpan(id, parent SpanID, name, cat string, tid int, start time.Time, d time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	e := Event{
		Name:   name,
		Cat:    cat,
		Ph:     "X",
		Ts:     float64(start.Sub(t.start)) / float64(time.Microsecond),
		Dur:    float64(d) / float64(time.Microsecond),
		PID:    1,
		TID:    tid,
		SpanID: uint64(id),
		Parent: uint64(parent),
		Args:   args,
	}
	t.mu.Lock()
	if len(t.events) >= t.max {
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Span records one complete ("X") span on track tid with a fresh span
// ID and no parent. args may be nil.
func (t *Tracer) Span(name, cat string, tid int, start time.Time, d time.Duration, args map[string]any) {
	t.RecordSpan(t.NewSpan(), 0, name, cat, tid, start, d, args)
}

// SetTraceID attaches the request's 128-bit trace ID (32 hex digits)
// to the tracer; it is carried in both export formats.
func (t *Tracer) SetTraceID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.traceID = id
	t.mu.Unlock()
}

// TraceID returns the attached trace ID, or "" if none was set.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// NameThread labels track tid (emitted as a thread_name metadata
// event); the first name per tid wins.
func (t *Tracer) NameThread(tid int, name string) {
	t.mu.Lock()
	if _, ok := t.threads[tid]; !ok {
		t.threads[tid] = name
	}
	t.mu.Unlock()
}

// Len returns the number of buffered spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns the number of spans discarded over the buffer cap.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// NewTraceID returns a random 128-bit trace ID as 32 lowercase hex
// digits, the W3C trace-context format.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a constant
		// ID only degrades trace correlation.
		return "00000000000000000000000000000001"
	}
	return hex.EncodeToString(b[:])
}

// ParseTraceparent extracts the trace ID from a W3C traceparent header
// (version-traceid-parentid-flags, e.g.
// "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"). Only
// version 00 is accepted; the trace ID must be 32 hex digits and not
// all zero. Returns the lowercase trace ID and whether the header was
// valid.
func ParseTraceparent(h string) (string, bool) {
	if len(h) != 55 {
		return "", false
	}
	if h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", false
	}
	traceID, parent, flags := h[3:35], h[36:52], h[53:55]
	if !isLowerHex(traceID) || !isLowerHex(parent) || !isLowerHex(flags) {
		return "", false
	}
	if traceID == "00000000000000000000000000000000" {
		return "", false
	}
	return traceID, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// FormatTraceparent renders a W3C traceparent header for the given
// trace ID and span (the "parent id" the next hop sees), with the
// sampled flag set.
func FormatTraceparent(traceID string, span SpanID) string {
	var sp [8]byte
	for i := 7; i >= 0; i-- {
		sp[i] = byte(span)
		span >>= 8
	}
	return "00-" + traceID + "-" + hex.EncodeToString(sp[:]) + "-01"
}

// traceFile is the emitted JSON document (the "JSON Object Format" of
// the trace_event spec; the bare-array format is also accepted by
// viewers but the object form carries displayTimeUnit and the
// metadata block).
type traceFile struct {
	TraceEvents     []Event       `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Metadata        traceMetadata `json:"metadata"`
}

// traceMetadata summarizes the buffer in the exported document, most
// importantly the spans discarded over the buffer cap — a truncated
// timeline must be identifiable from the file alone.
type traceMetadata struct {
	TraceID   string `json:"trace_id,omitempty"`
	Spans     int    `json:"spans"`
	Dropped   int64  `json:"dropped"`
	MaxEvents int    `json:"max_events"`
}

// WriteJSON writes the buffered spans, plus thread-name metadata, as
// a trace_event JSON document loadable in chrome://tracing or
// Perfetto. The document's metadata block records the trace ID, the
// buffered span count, and how many spans were dropped over the
// buffer cap.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	traceID := t.traceID
	spans := len(t.events)
	events := make([]Event, 0, len(t.events)+len(t.threads))
	tids := make([]int, 0, len(t.threads))
	for tid := range t.threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		events = append(events, Event{
			Name: "thread_name",
			Ph:   "M",
			PID:  1,
			TID:  tid,
			Args: map[string]any{"name": t.threads[tid]},
		})
	}
	events = append(events, t.events...)
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		Metadata:        traceMetadata{TraceID: traceID, Spans: spans, Dropped: t.Dropped(), MaxEvents: t.max},
	})
}

// SpanNode is one span in the nested export, with its children ordered
// by start time.
type SpanNode struct {
	ID       uint64         `json:"span_id"`
	Parent   uint64         `json:"parent_span_id,omitempty"`
	Name     string         `json:"name"`
	Cat      string         `json:"cat,omitempty"`
	StartUS  float64        `json:"start_us"`
	DurUS    float64        `json:"dur_us"`
	Args     map[string]any `json:"args,omitempty"`
	Children []*SpanNode    `json:"children,omitempty"`
}

// SpanTree is the nested-JSON export: the span forest of one request,
// roots ordered by start time.
type SpanTree struct {
	TraceID string      `json:"trace_id,omitempty"`
	Spans   int         `json:"spans"`
	Dropped int64       `json:"dropped"`
	Roots   []*SpanNode `json:"roots"`
}

// Tree reconstructs the span hierarchy from the buffered events. Spans
// whose parent was dropped (buffer cap) or never recorded become
// roots, so a truncated buffer still yields a well-formed forest.
func (t *Tracer) Tree() *SpanTree {
	t.mu.Lock()
	events := make([]Event, len(t.events))
	copy(events, t.events)
	traceID := t.traceID
	t.mu.Unlock()

	nodes := make(map[uint64]*SpanNode, len(events))
	for _, e := range events {
		if e.Ph != "X" || e.SpanID == 0 {
			continue
		}
		nodes[e.SpanID] = &SpanNode{
			ID: e.SpanID, Parent: e.Parent,
			Name: e.Name, Cat: e.Cat,
			StartUS: e.Ts, DurUS: e.Dur, Args: e.Args,
		}
	}
	tree := &SpanTree{TraceID: traceID, Spans: len(nodes), Dropped: t.Dropped()}
	for _, n := range nodes {
		if p, ok := nodes[n.Parent]; ok && n.Parent != n.ID {
			p.Children = append(p.Children, n)
		} else {
			tree.Roots = append(tree.Roots, n)
		}
	}
	var sortNodes func(ns []*SpanNode)
	sortNodes = func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].StartUS != ns[j].StartUS {
				return ns[i].StartUS < ns[j].StartUS
			}
			return ns[i].ID < ns[j].ID
		})
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(tree.Roots)
	return tree
}

// WriteTreeJSON writes the nested span-tree export.
func (t *Tracer) WriteTreeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Tree())
}
