// The flight recorder: a fixed-size ring of recent request summaries
// plus automatic full captures (span tree and metrics snapshot) for
// requests that reach a latency threshold. The ring is the
// first stop when diagnosing "that one slow request five minutes
// ago": /debug/requests lists the summaries newest-first, and
// /debug/requests/{id} returns a captured request's span tree (or the
// raw Chrome trace with ?format=trace).
package service

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// RequestSummary is one finished (or rejected) request as the flight
// recorder remembers it.
type RequestSummary struct {
	ID      string `json:"request_id"`
	TraceID string `json:"trace_id,omitempty"`
	Path    string `json:"path"`
	Engine  string `json:"engine,omitempty"`
	Circuit string `json:"circuit,omitempty"`

	// Knobs, for replaying the request by hand.
	Scenario string  `json:"scenario,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	Sigma    float64 `json:"sigma,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	Runs     int     `json:"runs,omitempty"`
	Coarsen  string  `json:"coarsen,omitempty"`

	Status int `json:"status"`
	// Rejected marks a load-shed request (429 queue-full or 503
	// shutdown/abandonment): no work ran, CostUnits is zero, and the
	// summary exists precisely so shed traffic is visible post hoc.
	Rejected bool   `json:"rejected,omitempty"`
	Error    string `json:"error,omitempty"`

	Start     time.Time `json:"start"`
	LatencyNS int64     `json:"latency_ns"`
	QueueNS   int64     `json:"queue_ns,omitempty"`

	CostUnits  int64   `json:"cost_units"`
	PrunedMass float64 `json:"pruned_mass,omitempty"`
	MaxBudget  float64 `json:"max_budget,omitempty"`

	// Cached marks a request served entirely from the result cache
	// (CostUnits is then the near-zero serving cost, not the original
	// run's); Delta marks a /v1/delta request with the node
	// recomputations its reconciliation performed.
	Cached         bool `json:"cached,omitempty"`
	Delta          bool `json:"delta,omitempty"`
	NetsRecomputed int  `json:"nets_recomputed,omitempty"`

	// SLOBurning lists the SLO objectives that were in violation when
	// the request finished — a request summary from inside an incident
	// carries the incident with it.
	SLOBurning []string `json:"slo_burning,omitempty"`

	// Captured marks entries holding a full span tree and metrics
	// snapshot (the request reached the slow-latency threshold);
	// /debug/requests/{id} serves them.
	Captured bool `json:"captured"`
}

// flightEntry is one ring slot: the summary plus, for captured
// entries, the request's tracer and metrics snapshot, and for a
// request that failed on a recovered panic, the panic's stack.
type flightEntry struct {
	sum    RequestSummary
	tracer *obs.Tracer
	snap   *obs.Snapshot
	stack  string
}

// flightRecorder is the fixed-size ring. All methods are safe for
// concurrent use; record is O(1) and the read side copies out under
// the same mutex, so a slow /debug reader never blocks requests for
// longer than the copy.
type flightRecorder struct {
	mu      sync.Mutex
	size    int
	slowLat time.Duration // 0 disables capture
	ring    []flightEntry
	next    int
	total   int64
}

func newFlightRecorder(size int, slowLat time.Duration) *flightRecorder {
	if size <= 0 {
		size = 128
	}
	return &flightRecorder{size: size, slowLat: slowLat}
}

// record appends one request to the ring, capturing the scope's span
// tree and metrics snapshot when the request's latency reaches the
// slow threshold.
// scope may be nil (rejected requests never built one); stack is a
// recovered panic's stack or empty. It returns whether the entry was
// captured.
func (f *flightRecorder) record(sum RequestSummary, scope *obs.Scope, stack string) bool {
	e := flightEntry{sum: sum, stack: stack}
	if scope != nil && f.slowLat > 0 && time.Duration(sum.LatencyNS) >= f.slowLat {
		e.sum.Captured = true
		e.tracer = scope.T()
		e.snap = scope.Snapshot()
	}
	f.mu.Lock()
	if f.ring == nil {
		f.ring = make([]flightEntry, f.size)
	}
	f.ring[f.next] = e
	f.next = (f.next + 1) % f.size
	f.total++
	f.mu.Unlock()
	return e.sum.Captured
}

// list returns the ring's summaries newest-first and the lifetime
// total of recorded requests.
func (f *flightRecorder) list() ([]RequestSummary, int64) {
	return f.listSince(time.Time{})
}

// listSince returns the ring's summaries newest-first, keeping only
// requests that started at or after since (zero keeps everything),
// along with the lifetime total of recorded requests.
func (f *flightRecorder) listSince(since time.Time) ([]RequestSummary, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := int64(len(f.ring))
	if f.total < n {
		n = f.total
	}
	out := make([]RequestSummary, 0, n)
	for i := int64(0); i < n; i++ {
		slot := (f.next - 1 - int(i) + len(f.ring)) % len(f.ring)
		sum := f.ring[slot].sum
		if !since.IsZero() && sum.Start.Before(since) {
			continue
		}
		out = append(out, sum)
	}
	return out, f.total
}

// get returns the entry recorded for request id, if still in the ring.
func (f *flightRecorder) get(id string) (flightEntry, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.ring {
		if f.ring[i].sum.ID == id {
			return f.ring[i], true
		}
	}
	return flightEntry{}, false
}
