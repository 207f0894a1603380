package obs

// Scope is one analysis' observability handle: a metrics registry
// plus an optional tracer. Every concurrent analysis (a spstad
// request, a CLI invocation, a test goroutine) owns its own Scope, so
// counters and spans from different analyses never mix. A nil *Scope
// means instrumentation is fully disabled; its accessors are nil-safe
// so config structs embed a *Scope and hot paths branch on the nil
// registry exactly as they would for a disabled global.
type Scope struct {
	// Metrics is the scope's counter registry; nil disables metrics.
	Metrics *Metrics
	// Tracer is the scope's span recorder; nil disables tracing.
	Tracer *Tracer
	// Span is the parent span for the analysis' top-level spans: a
	// service handler allocates its request/engine span IDs and passes
	// them down here, so engine-internal spans (levels, Monte
	// Carlo shards) attach under the right node of the request tree.
	// Zero (the default) makes engine spans roots.
	Span SpanID
}

// NewScope returns a scope with a fresh metrics registry and no
// tracer.
func NewScope() *Scope { return &Scope{Metrics: NewMetrics()} }

// NewTracedScope returns a scope with a fresh metrics registry and a
// fresh tracer.
func NewTracedScope() *Scope { return &Scope{Metrics: NewMetrics(), Tracer: NewTracer()} }

// M returns the scope's metrics registry; nil on a nil scope or an
// untraced metrics-less scope. Hot paths load it once per call and
// branch on nil.
func (s *Scope) M() *Metrics {
	if s == nil {
		return nil
	}
	return s.Metrics
}

// T returns the scope's tracer; nil on a nil scope or when tracing is
// off.
func (s *Scope) T() *Tracer {
	if s == nil {
		return nil
	}
	return s.Tracer
}

// SpanID returns the scope's parent span; 0 on a nil scope.
func (s *Scope) SpanID() SpanID {
	if s == nil {
		return 0
	}
	return s.Span
}

// WithSpan returns a shallow copy of the scope whose parent span is
// id. The Metrics and Tracer pointers are shared — only the span
// lineage changes — so a handler can re-parent each engine run without
// splitting the request's counters.
func (s *Scope) WithSpan(id SpanID) *Scope {
	if s == nil {
		return nil
	}
	cp := *s
	cp.Span = id
	return &cp
}

// Snapshot captures the scope's metrics totals; nil when the scope
// records no metrics.
func (s *Scope) Snapshot() *Snapshot {
	if m := s.M(); m != nil {
		return m.Snapshot()
	}
	return nil
}
