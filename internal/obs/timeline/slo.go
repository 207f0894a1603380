// The SLO engine: declarative objectives over timeline series,
// evaluated with multi-window burn rates at every sample boundary.
//
// An objective defines a budget — the tolerable fraction of bad
// events (errors, rejections, too-slow requests, cache misses) or a
// bound a gauge must stay under — and the burn rate measures how fast
// the service is consuming that budget: burn 1.0 means "exactly at
// the objective", burn 14.4 means "the 30-day budget gone in 2 days"
// in classic SRE terms. An objective fires only when EVERY configured
// window's burn rate is at or above that window's threshold — the
// standard multi-window rule: the long window proves the problem is
// sustained, the short window proves it is still happening (and
// clears the alert promptly once it stops). State transitions are
// deterministic functions of the sampled history: they can only
// happen inside Store.Sample, so a fake-clock test can assert the
// exact tick an alert fires and the exact tick it clears.
package timeline

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// ObjectiveKind selects the burn-rate computation.
type ObjectiveKind string

const (
	// KindRatio divides a bad-event counter by a total counter:
	// burn = (bad/total) / (1 - Target). Availability ("999 of 1000
	// requests succeed") and rejection rate are ratios.
	KindRatio ObjectiveKind = "ratio"
	// KindLatency derives the bad fraction from a histogram series:
	// an observation is bad when it exceeds Threshold (interpolated
	// within its bucket), and burn = badFrac / (1 - Target). "99% of
	// requests complete within 250ms" is a latency objective.
	KindLatency ObjectiveKind = "latency"
	// KindGauge bounds a gauge: burn = windowAverage / Bound, for
	// gauges such as the accuracy-drift monitor's deviation.
	KindGauge ObjectiveKind = "gauge"
)

// BurnWindow is one evaluation window and its burn-rate threshold.
type BurnWindow struct {
	Window    time.Duration `json:"window"`
	Threshold float64       `json:"threshold"`
}

// Objective is one declarative service-level objective.
type Objective struct {
	// Name identifies the objective in logs, metrics and captures.
	Name string        `json:"name"`
	Kind ObjectiveKind `json:"kind"`

	// Bad and Total name the counter series of a ratio objective.
	Bad   string `json:"bad,omitempty"`
	Total string `json:"total,omitempty"`

	// Hist names the histogram series of a latency objective and
	// Threshold its per-observation limit (seconds for the service's
	// latency histograms).
	Hist      string  `json:"hist,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`

	// Target is the good-event fraction a ratio or latency objective
	// promises (e.g. 0.999); the error budget is 1 - Target.
	Target float64 `json:"target,omitempty"`

	// Series and Bound define a gauge objective.
	Series string  `json:"series,omitempty"`
	Bound  float64 `json:"bound,omitempty"`

	// Windows are the burn windows; ALL must exceed their thresholds
	// for the objective to burn. Empty disables the objective.
	Windows []BurnWindow `json:"windows"`
}

// WindowStatus is one window's last evaluation.
type WindowStatus struct {
	WindowMS  int64   `json:"window_ms"`
	Burn      float64 `json:"burn"`
	Threshold float64 `json:"threshold"`
	// Events is the total observations the window saw (ratio and
	// latency objectives; gauge objectives report samples).
	Events int64 `json:"events"`
}

// ObjectiveStatus is one objective's current state.
type ObjectiveStatus struct {
	Objective
	Burning bool `json:"burning"`
	// Since is when the current state was entered.
	Since time.Time `json:"since,omitzero"`
	// Transitions counts state changes since the engine started.
	Transitions int64          `json:"transitions"`
	Windows     []WindowStatus `json:"window_status,omitempty"`
	LastEval    time.Time      `json:"last_eval,omitzero"`
}

// objState is the engine's mutable per-objective record.
type objState struct {
	obj         Objective
	burning     bool
	since       time.Time
	transitions int64
	windows     []WindowStatus
	lastEval    time.Time
}

// SLOEngine evaluates objectives against a Store.
type SLOEngine struct {
	store *Store
	// OnTransition, when set, is called after every state change with
	// the objective's post-transition status. It runs outside the
	// engine's lock, on the sampling goroutine — implementations that
	// do slow work (profile capture) must hand it off.
	OnTransition func(st ObjectiveStatus)

	mu   sync.Mutex
	objs []*objState
}

// NewSLOEngine builds an engine over the store for the given
// objectives. Objectives with no windows are dropped.
func NewSLOEngine(store *Store, objectives []Objective) *SLOEngine {
	e := &SLOEngine{store: store}
	for _, o := range objectives {
		if len(o.Windows) == 0 || o.Name == "" {
			continue
		}
		e.objs = append(e.objs, &objState{obj: o})
	}
	return e
}

// Evaluate re-computes every objective's burn rates as of now and
// applies state transitions. Store.Sample calls it after each tick;
// it may also be called directly (a /debug/slo request does not, so
// the reported state is always exactly the state as of the last
// sample).
func (e *SLOEngine) Evaluate(now time.Time) {
	if e == nil {
		return
	}
	var fired []ObjectiveStatus
	e.mu.Lock()
	for _, os := range e.objs {
		burning := true
		os.windows = os.windows[:0]
		for _, w := range os.obj.Windows {
			burn, events := e.burn(os.obj, now, w.Window)
			os.windows = append(os.windows, WindowStatus{
				WindowMS: w.Window.Milliseconds(), Burn: burn,
				Threshold: w.Threshold, Events: events,
			})
			if burn < w.Threshold {
				burning = false
			}
		}
		os.lastEval = now
		if burning != os.burning {
			os.burning = burning
			os.since = now
			os.transitions++
			fired = append(fired, os.status())
		}
	}
	e.mu.Unlock()
	if e.OnTransition != nil {
		for _, st := range fired {
			e.OnTransition(st)
		}
	}
}

// burn computes one objective's burn rate over one window. Windows
// with no observed events burn at 0 — an idle service is not in
// violation.
func (e *SLOEngine) burn(o Objective, now time.Time, w time.Duration) (float64, int64) {
	switch o.Kind {
	case KindRatio:
		total, ok := e.store.CounterWindow(o.Total, now, w)
		if !ok || total <= 0 {
			return 0, 0
		}
		bad, _ := e.store.CounterWindow(o.Bad, now, w)
		budget := 1 - o.Target
		if budget <= 0 {
			budget = 1e-9 // a 100% target burns on any bad event
		}
		return (bad / total) / budget, int64(total)
	case KindLatency:
		bounds, counts, ok := e.store.HistWindow(o.Hist, now, w)
		if !ok {
			return 0, 0
		}
		var total int64
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			return 0, 0
		}
		badFrac := 1 - obs.HistFractionBelow(bounds, counts, o.Threshold)
		budget := 1 - o.Target
		if budget <= 0 {
			budget = 1e-9
		}
		return badFrac / budget, total
	case KindGauge:
		avg, _, _, n := e.store.GaugeWindow(o.Series, now, w)
		if n == 0 || o.Bound <= 0 {
			return 0, 0
		}
		return avg / o.Bound, int64(n)
	}
	return 0, 0
}

func (os *objState) status() ObjectiveStatus {
	return ObjectiveStatus{
		Objective:   os.obj,
		Burning:     os.burning,
		Since:       os.since,
		Transitions: os.transitions,
		Windows:     append([]WindowStatus(nil), os.windows...),
		LastEval:    os.lastEval,
	}
}

// Status returns every objective's current state, in declaration
// order.
func (e *SLOEngine) Status() []ObjectiveStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ObjectiveStatus, 0, len(e.objs))
	for _, os := range e.objs {
		out = append(out, os.status())
	}
	return out
}

// Burning returns the names of the objectives currently in violation
// (nil when none — the common case allocates nothing).
func (e *SLOEngine) Burning() []string {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, os := range e.objs {
		if os.burning {
			out = append(out, os.obj.Name)
		}
	}
	return out
}

// MaxWindow returns the longest window any objective evaluates —
// the natural span for a capture bundle's timeline excerpt.
func (e *SLOEngine) MaxWindow() time.Duration {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var max time.Duration
	for _, os := range e.objs {
		for _, w := range os.obj.Windows {
			if w.Window > max {
				max = w.Window
			}
		}
	}
	return max
}
