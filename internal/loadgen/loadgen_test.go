package loadgen

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	got, err := ParseMix(" hot=0.6, cold=0.2 ,delta=0")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"hot": 0.6, "cold": 0.2, "delta": 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseMix = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "hot", "warm=1", "hot=x", "hot=-1", "hot=0,cold=0", "hot=1,"} {
		if w, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) = %v, want an error", bad, w)
		}
	}
}

// TestGate checks each soak-gate condition on its own at the default
// bounds, and that a report within every bound passes.
func TestGate(t *testing.T) {
	report := func(all ClassReport, violations ...string) *Report {
		all.Class = ClassAll
		r := &Report{Classes: []ClassReport{all}}
		if violations != nil {
			r.SLO = &SLOSummary{Violations: violations}
		}
		return r
	}
	ok := ClassReport{Count: 990, Rejected: 10, P99Sec: 0.5}
	for _, c := range []struct {
		name string
		r    *Report
		want string // substring of the one failure; "" means pass
	}{
		{"within bounds", report(ok), ""},
		{"slo burning", report(ok, "latency", "rejections"), "SLO objectives burned: latency, rejections"},
		{"no requests", &Report{}, "no request completed"},
		{"only rejections", report(ClassReport{Rejected: 3}), "no request completed"},
		{"one error", report(ClassReport{Count: 1000, Errors: 1, P99Sec: 0.1}), "1 request errors"},
		{"p99 over", report(ClassReport{Count: 1000, P99Sec: 0.501}), "client p99 501ms over limit 500ms"},
		{"rejections over", report(ClassReport{Count: 989, Rejected: 11, P99Sec: 0.1}), "rejection rate 1.10% over budget 1.00%"},
	} {
		got := c.r.Gate(DefaultP99Limit, DefaultRejectionBudget)
		switch {
		case c.want == "" && len(got) != 0:
			t.Errorf("%s: failures %q, want a pass", c.name, got)
		case c.want != "" && (len(got) != 1 || !strings.Contains(got[0], c.want)):
			t.Errorf("%s: failures %q, want one containing %q", c.name, got, c.want)
		}
	}
	if got := report(ClassReport{Count: 10, Errors: 1, P99Sec: 1}, "x").Gate(time.Second, 0); len(got) != 2 {
		t.Errorf("burning objective and an error: failures %q, want both", got)
	}
}
