package telemetry

import (
	"encoding/json"
	"reflect"
	"runtime"
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
	r.Set(func(t *Trace) { t.StopReason = "saturated" })
	tr := r.Finish()

	if len(tr.Stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(tr.Stages))
	}
	sat := tr.Stages[0]
	if sat.Name != "saturate" || sat.Duration < 2*time.Millisecond {
		t.Fatalf("saturate span wrong: %+v", sat)
	}
	if sat.AllocBytes < 1<<20 {
		t.Errorf("saturate alloc delta %d, want >= 1MB", sat.AllocBytes)
	}
	if tr.Stages[1].Start < tr.Stages[0].Start+tr.Stages[0].Duration {
		t.Errorf("spans overlap: %+v", tr.Stages)
	}
	if tr.Counters["applied"] != 42 {
		t.Errorf("counter = %d, want 42", tr.Counters["applied"])
	}
	if !tr.Saturated() {
		t.Error("Saturated() = false")
	}
}

// sink keeps a test allocation reachable so it lands on the heap.
var sink []byte

// TestRecorderIsTheMemoryProbe checks that the recorder's readings — one
// in NewRecorder, one per span End, one in Finish — fill every heap field
// of a memory record set before Finish.
func TestRecorderIsTheMemoryProbe(t *testing.T) {
	r := NewRecorder()
	s := r.StartSpan("saturate")
	sink = make([]byte, 1<<20)
	runtime.GC()
	s.End()
	r.StartSpan("extract").End()
	r.Set(func(t *Trace) { t.Memory = &MemoryTrace{PeakBytes: 1} })
	tr := r.Finish()

	m := tr.Memory
	if m.HeapSamples != 4 {
		t.Errorf("HeapSamples = %d, want 4 (start, two span ends, finish)", m.HeapSamples)
	}
	if m.HeapPeakBytes == 0 || m.GCCycles < 1 || m.GCPauseTotal <= 0 {
		t.Errorf("heap fields not filled: %+v", m)
	}
	if a := tr.Stages[0].AllocBytes; a < 1<<20 {
		t.Errorf("saturate alloc delta %d, want >= 1MB", a)
	}
	sink = nil
}

// TestPhasesNestSaturationLoop pins the phase list's shape: compile
// first, one compile.<stage> per span in order, and the four loop steps
// summed over the gauges right after the saturate span, with no alloc.
func TestPhasesNestSaturationLoop(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := &Trace{
		Duration: ms(100), AllocBytes: 900,
		Stages: []Span{
			{Name: "lift", Duration: ms(5), AllocBytes: 10},
			{Name: "saturate", Duration: ms(60), AllocBytes: 500},
			{Name: "extract", Duration: ms(20), AllocBytes: 300},
		},
		Iterations: []IterationGauge{
			{Iteration: 1, Duration: ms(25), Index: ms(1), Match: ms(10), Apply: ms(5), Rebuild: ms(4)},
			{Iteration: 2, Duration: ms(30), Index: ms(2), Match: ms(12), Apply: ms(6), Rebuild: ms(7)},
		},
	}
	want := []Phase{
		{Path: "compile", Duration: ms(100), AllocBytes: 900},
		{Path: "compile.lift", Duration: ms(5), AllocBytes: 10},
		{Path: "compile.saturate", Duration: ms(60), AllocBytes: 500},
		{Path: "compile.saturate.index", Duration: ms(3)},
		{Path: "compile.saturate.match", Duration: ms(22)},
		{Path: "compile.saturate.apply", Duration: ms(11)},
		{Path: "compile.saturate.rebuild", Duration: ms(11)},
		{Path: "compile.extract", Duration: ms(20), AllocBytes: 300},
	}
	if got := tr.Phases(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Phases() =\n%+v\nwant\n%+v", got, want)
	}
	// No gauges, no loop steps.
	tr.Iterations = nil
	if got := len(tr.Phases()); got != 4 {
		t.Errorf("gauge-less trace has %d phases, want 4", got)
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
	r.Set(func(t *Trace) {
		t.Iterations = []IterationGauge{{Iteration: 1, Nodes: 5, Classes: 4, Matches: 2, Applied: 1,
			Rules: []RuleStep{
				{Rule: "vec-mac", Matches: 2, Applied: 1, NewNodes: 3},
				{Rule: "assoc-add", Matches: 9, BannedUntil: 3, Bans: 1},
			}}}
		t.StopReason = "timeout"
	})
	r.Count("vir.instrs", 7)
	tr := r.Finish()

	out := tr.Format()
	for _, want := range []string{"compile.lower", "compile.saturate.rebuild", "stopped: timeout", "vir.instrs",
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
	if back.StopReason != "timeout" || len(back.Stages) != 1 || back.Counters["vir.instrs"] != 7 {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
}

// A nil recorder must be a no-op so callers can opt out of telemetry.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.StartSpan("x").End()
	r.Count("c", 1)
	r.Set(func(t *Trace) { t.StopReason = "saturated" })
	if tr := r.Finish(); tr == nil || len(tr.Stages) != 0 {
		t.Fatalf("nil recorder Finish = %+v", tr)
	}
}
