package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanLog records benchmark-side spans: one around each call the
// benchmark makes into a layer, with the span that caused it. Spans stay
// in memory until the run ends. A nil *spanLog records nothing, so
// untraced passes pay one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []span
}

type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin allocates a span ID before the call it will cover, so the
// call's children can name it as parent, and returns the start time.
func (l *spanLog) begin() (uint64, time.Time) {
	if l == nil {
		return 0, time.Now()
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	return id, time.Now()
}

// end records span id, begun at start, as ending now.
func (l *spanLog) end(id, parent uint64, name string, start time.Time) {
	if l == nil {
		return
	}
	d := time.Since(start)
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(l.t0).Nanoseconds(), DurNS: d.Nanoseconds()})
	l.mu.Unlock()
}

// traceFile is what a traced run writes beside its result: the spans,
// the per-layer metrics and the raw counts they were derived from.
type traceFile struct {
	Env      env            `json:"env"`
	PerLayer []layerValue   `json:"per_layer"`
	Counts   map[string]any `json:"counts"`
	Spans    []span         `json:"spans"`
	log      *spanLog
}

type layerValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact,omitempty"`
}

func newTraceFile() *traceFile {
	return &traceFile{Counts: map[string]any{}, log: newSpanLog()}
}

// writeTrace writes a traced run's trace file under outDir.
func (r *report) writeTrace() error {
	t := r.trace
	if t == nil {
		return nil
	}
	t.Env = r.env
	t.Spans = t.log.spans
	for _, m := range perLayer {
		t.PerLayer = append(t.PerLayer, layerValue{Name: m.Name, Value: r.values[m.Name], Unit: m.Unit, Exact: m.exact})
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return fmt.Errorf("encoding the trace: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spstabench-trace-%s-seed%d.json", r.env.Workload, r.env.Seed))
	return os.WriteFile(path, b, 0o644)
}
