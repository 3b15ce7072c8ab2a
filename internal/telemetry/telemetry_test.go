package telemetry

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRecorderSpansAndTotals(t *testing.T) {
	r := NewRecorder()
	s := r.StartSpan("saturate")
	time.Sleep(2 * time.Millisecond)
	_ = make([]byte, 1<<20)
	s.End()
	s = r.StartSpan("extract")
	time.Sleep(time.Millisecond)
	s.End()
	r.Count("applied", 40)
	r.Count("applied", 2)
	r.SetStopReason("saturated")
	tr := r.Finish()

	if len(tr.Stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(tr.Stages))
	}
	sat, ok := tr.Stage("saturate")
	if !ok || sat.Duration < 2*time.Millisecond {
		t.Fatalf("saturate span wrong: %+v (ok=%v)", sat, ok)
	}
	if sat.AllocBytes < 1<<20 {
		t.Errorf("saturate alloc delta %d, want >= 1MB", sat.AllocBytes)
	}
	if tr.Stages[1].Start < tr.Stages[0].Start+tr.Stages[0].Duration {
		t.Errorf("spans overlap: %+v", tr.Stages)
	}
	if got := tr.StagesTotal(); got > tr.Duration {
		t.Errorf("stage sum %v exceeds total %v", got, tr.Duration)
	}
	if tr.Counter("applied") != 42 {
		t.Errorf("counter = %d, want 42", tr.Counter("applied"))
	}
	if !tr.Saturated() {
		t.Error("Saturated() = false")
	}
	if _, ok := tr.Stage("missing"); ok {
		t.Error("found a stage that was never recorded")
	}
}

// TestStagesTotalOverlap pins the interval-union semantics: spans recorded
// by concurrent goroutines overlap in wall time and must not be
// double-counted, while gaps between spans must not be covered.
func TestStagesTotalOverlap(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name   string
		stages []Span
		want   time.Duration
	}{
		{"empty", nil, 0},
		{"sequential", []Span{
			{Name: "a", Start: ms(0), Duration: ms(10)},
			{Name: "b", Start: ms(10), Duration: ms(5)},
		}, ms(15)},
		{"gap", []Span{
			{Name: "a", Start: ms(0), Duration: ms(10)},
			{Name: "b", Start: ms(20), Duration: ms(5)},
		}, ms(15)},
		{"full overlap", []Span{ // two workers racing the same window
			{Name: "a", Start: ms(0), Duration: ms(10)},
			{Name: "b", Start: ms(0), Duration: ms(10)},
		}, ms(10)},
		{"partial overlap", []Span{
			{Name: "a", Start: ms(0), Duration: ms(10)},
			{Name: "b", Start: ms(5), Duration: ms(10)},
		}, ms(15)},
		{"contained", []Span{
			{Name: "a", Start: ms(0), Duration: ms(20)},
			{Name: "b", Start: ms(5), Duration: ms(5)},
		}, ms(20)},
		{"unsorted input", []Span{ // End order, not Start order
			{Name: "b", Start: ms(15), Duration: ms(5)},
			{Name: "a", Start: ms(0), Duration: ms(10)},
		}, ms(15)},
	}
	for _, tc := range cases {
		tr := &Trace{Stages: tc.stages, Duration: ms(100)}
		if got := tr.StagesTotal(); got != tc.want {
			t.Errorf("%s: StagesTotal = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTraceIterationHelpers(t *testing.T) {
	tr := &Trace{Iterations: []IterationGauge{
		{Iteration: 1, Nodes: 10, Classes: 8, Matches: 3, Applied: 3, Rules: []RuleStep{
			{Rule: "a", Matches: 2, Applied: 2, NewNodes: 1, Duration: time.Millisecond},
			{Rule: "b", Matches: 1, Applied: 1, NewNodes: 4},
		}},
		{Iteration: 2, Nodes: 30, Classes: 20, Matches: 3, Applied: 3, Rules: []RuleStep{
			{Rule: "a", Matches: 3, Applied: 3, NewNodes: 2, Duration: time.Millisecond},
			{Rule: "b", Matches: 9, BannedUntil: 5, Bans: 1},
		}},
	}}
	g, ok := tr.FinalGauge()
	if !ok || g.Nodes != 30 || g.Iteration != 2 {
		t.Fatalf("FinalGauge = %+v, %v", g, ok)
	}
	if _, ok := (&Trace{}).FinalGauge(); ok {
		t.Error("FinalGauge on empty trace reported ok")
	}

	// A banned step's discarded matches count toward its rule's totals;
	// the biggest node growth sorts first.
	rules, bans := Attribution(tr.Iterations)
	want := []RuleAttribution{
		{Rule: "b", Matches: 10, Applied: 1, NewNodes: 4, Bans: 1},
		{Rule: "a", Matches: 5, Applied: 5, NewNodes: 3, Duration: 2 * time.Millisecond},
	}
	if !reflect.DeepEqual(rules, want) {
		t.Fatalf("Attribution rules = %+v, want %+v", rules, want)
	}
	if len(bans) != 1 || bans[0].Iteration != 2 || bans[0].Rule != "b" || bans[0].BannedUntil != 5 {
		t.Fatalf("Attribution bans = %+v, want b banned at 2 until 5", bans)
	}
}

func TestTraceFormatAndJSON(t *testing.T) {
	r := NewRecorder()
	r.StartSpan("lower").End()
	r.SetIterations([]IterationGauge{{Iteration: 1, Nodes: 5, Classes: 4, Matches: 2, Applied: 1,
		Rules: []RuleStep{
			{Rule: "vec-mac", Matches: 2, Applied: 1, NewNodes: 3},
			{Rule: "assoc-add", Matches: 9, BannedUntil: 3, Bans: 1},
		}}})
	r.SetStopReason("timeout")
	r.Count("saturate.applied", 7)
	tr := r.Finish()

	out := tr.Format()
	for _, want := range []string{"lower", "total", "stopped: timeout", "saturate.applied",
		"vec-mac", "ban: assoc-add at iteration 1 (9 matches), until 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
	raw, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Trace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.StopReason != "timeout" || len(back.Stages) != 1 || back.Counters["saturate.applied"] != 7 {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
}

// A nil recorder must be a no-op so callers can opt out of telemetry.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.StartSpan("x").End()
	r.Count("c", 1)
	r.SetIterations(nil)
	r.SetStopReason("saturated")
	if tr := r.Finish(); tr == nil || len(tr.Stages) != 0 {
		t.Fatalf("nil recorder Finish = %+v", tr)
	}
}
