package diff

import (
	"strings"
	"testing"
	"time"

	"diospyros/internal/sim"
	"diospyros/internal/telemetry"
)

// synthTrace builds a fully populated compile trace. Each call returns fresh
// structures, so tests can mutate one side without aliasing the other.
func synthTrace() *telemetry.Trace {
	return &telemetry.Trace{
		Schema: telemetry.TraceSchema,
		Stages: []telemetry.Span{
			{Name: "lift", Duration: 10 * time.Microsecond},
			{Name: "saturate", Duration: 900 * time.Microsecond},
			{Name: "extract", Duration: 100 * time.Microsecond},
		},
		Iterations: []telemetry.IterationGauge{
			{Iteration: 1, Nodes: 10, Classes: 8, Matches: 4, Applied: 3, BestCost: cost(20),
				Rules: []telemetry.RuleStep{
					{Rule: "vec-mac", Matches: 2, Applied: 2, NewNodes: 3, Duration: time.Microsecond},
					{Rule: "add-zero", Matches: 2, Applied: 1},
				}},
			{Iteration: 2, Nodes: 14, Classes: 9, Matches: 2, Applied: 1, BestCost: cost(12),
				Rules: []telemetry.RuleStep{
					{Rule: "assoc-add", Matches: 8, BannedUntil: 4, Bans: 1},
					{Rule: "vec-mac", Matches: 2, Applied: 1, NewNodes: 2},
				}},
		},
		StopReason: "saturated",
		Extraction: &telemetry.ExtractionTrace{
			TotalCost: 12, Classes: 9, Contested: 2,
			Decisions: []telemetry.ExtractionDecision{
				{Class: 7, Winner: "(VecMAC /3)", WinnerCost: 7.5,
					RunnerUp: "(VecAdd /2)", RunnerUpCost: 9.5, Candidates: 2},
			},
			Contiguous: 1, Shuffles: 3,
		},
		Memory: &telemetry.MemoryTrace{
			PeakBytes: 2000, PeakIteration: 2,
			Components: []telemetry.MemoryComponent{
				{Name: "nodes", Entries: 14, Bytes: 1400},
				{Name: "hashcons", Entries: 14, Bytes: 600},
			},
		},
		Duration: time.Millisecond,
	}
}

func cost(c float64) *float64 { return &c }

// synthProfile builds a matching simulator cycle profile.
func synthProfile() *sim.Profile {
	return &sim.Profile{
		PerOp: []sim.OpProfile{
			{Op: "vmac", Count: 1, Cycles: 3},
			{Op: "vadd", Count: 2, Cycles: 2, Stall: 1},
		},
		Slots:        []sim.SlotProfile{{Slot: "alu", Issued: 3, Cycles: 5}},
		OperandStall: 1,
		Cycles:       9,
	}
}

func synthInput(label string) Input {
	return Input{Label: label, Kernel: "k", Trace: synthTrace(), Profile: synthProfile(), Cycles: 9}
}

// kinds collects the divergence kinds present in the diff.
func kinds(d *Diff) map[string]bool {
	out := map[string]bool{}
	for _, dv := range d.Divergences {
		out[dv.Kind] = true
	}
	return out
}

func TestSelfCompareEmpty(t *testing.T) {
	d := Compare(synthInput("a"), synthInput("b"))
	if !d.Empty() {
		t.Fatalf("self-diff not empty:\n%s", d.Format())
	}
	if d.Schema != Schema {
		t.Errorf("schema = %q, want %q", d.Schema, Schema)
	}
	if len(d.Rules) != 3 {
		t.Fatalf("rules = %d, want 3", len(d.Rules))
	}
	for _, r := range d.Rules {
		if r.Diverged() {
			t.Errorf("rule %s diverged on identical inputs: %+v", r.Rule, r)
		}
	}
	if d.Saturation == nil || d.Saturation.SplitIteration != 0 {
		t.Errorf("saturation split on identical inputs: %+v", d.Saturation)
	}
	if d.Bans == nil || d.Bans.FirstDivergence != -1 {
		t.Errorf("ban timelines misaligned on identical inputs: %+v", d.Bans)
	}
	if !strings.Contains(d.Format(), "runs are equivalent") {
		t.Errorf("Format lacks the equivalence verdict:\n%s", d.Format())
	}
}

// TestWallTimeNeverDiverges pins the determinism-contract boundary: wall
// time and allocation counters are informational, so a run that is slower
// but semantically identical must still self-diff empty.
func TestWallTimeNeverDiverges(t *testing.T) {
	base, cur := synthInput("fast"), synthInput("slow")
	cur.Trace.Duration *= 3
	for i := range cur.Trace.Stages {
		cur.Trace.Stages[i].Duration *= 7
		cur.Trace.Stages[i].AllocBytes += 12345
	}
	for _, g := range cur.Trace.Iterations {
		for i := range g.Rules {
			g.Rules[i].Duration += time.Millisecond
		}
	}
	d := Compare(base, cur)
	if !d.Empty() {
		t.Fatalf("wall-time delta produced divergences:\n%s", d.Format())
	}
	// The waterfall still reports the (informational) slowdown.
	var saturate *StageDelta
	for i := range d.Stages {
		if d.Stages[i].Stage == "saturate" {
			saturate = &d.Stages[i]
		}
	}
	if saturate == nil || saturate.DeltaPct <= 0 {
		t.Errorf("waterfall lost the wall-time delta: %+v", d.Stages)
	}
}

func TestRuleDivergenceSplitIteration(t *testing.T) {
	base, cur := synthInput("a"), synthInput("b")
	step := &cur.Trace.Iterations[1].Rules[1] // vec-mac: 3 -> 4 applied overall
	step.Applied, step.NewNodes = 2, 3
	d := Compare(base, cur)
	if d.Empty() {
		t.Fatal("rule count change not flagged")
	}
	if !kinds(d)["rule"] {
		t.Fatalf("no rule divergence in %+v", d.Divergences)
	}
	// Diverged rules sort first, biggest applied swing on top.
	if d.Rules[0].Rule != "vec-mac" || !d.Rules[0].Diverged() {
		t.Fatalf("rules[0] = %+v, want diverged vec-mac", d.Rules[0])
	}
	if d.Rules[0].SplitIteration != 2 {
		t.Errorf("split iteration = %d, want 2", d.Rules[0].SplitIteration)
	}
	if !strings.Contains(d.Format(), "vec-mac") {
		t.Errorf("Format does not name the rule:\n%s", d.Format())
	}
}

func TestStopReasonAndSaturationDivergence(t *testing.T) {
	base, cur := synthInput("a"), synthInput("b")
	cur.Trace.StopReason = "node-limit"
	cur.Trace.Iterations = append(cur.Trace.Iterations,
		telemetry.IterationGauge{Iteration: 3, Nodes: 20, Classes: 10})
	d := Compare(base, cur)
	k := kinds(d)
	if !k["stop-reason"] || !k["saturation"] {
		t.Fatalf("kinds = %v, want stop-reason and saturation in %+v", k, d.Divergences)
	}
	if d.Saturation.Iterations != (Pair{2, 3}) {
		t.Errorf("iterations = %+v, want {2 3}", d.Saturation.Iterations)
	}
}

// TestBannedMatchesSplitIteration: two runs that differ only in a banned
// step's discarded match count. The gauges' Matches agree, but the rule's
// totals and its row diverge, so the autopsy names the split iteration.
func TestBannedMatchesSplitIteration(t *testing.T) {
	base, cur := synthInput("a"), synthInput("b")
	cur.Trace.Iterations[1].Rules[0].Matches = 9 // assoc-add's banned step: 8 -> 9
	d := Compare(base, cur)
	var rd *RuleDelta
	for i := range d.Rules {
		if d.Rules[i].Rule == "assoc-add" {
			rd = &d.Rules[i]
		}
	}
	if rd == nil || rd.Matches != (Pair{8, 9}) || rd.SplitIteration != 2 {
		t.Fatalf("assoc-add delta = %+v, want matches 8 -> 9 split at iteration 2", rd)
	}
	var detail string
	for _, dv := range d.Divergences {
		if dv.Kind == "rule" && dv.Subject == "assoc-add" {
			detail = dv.Detail
		}
	}
	if !strings.Contains(detail, "(diverging from iteration 2)") {
		t.Errorf("rule divergence %q does not name the split iteration", detail)
	}
}

func TestExtractionFlipNamesWinner(t *testing.T) {
	base, cur := synthInput("a"), synthInput("b")
	cur.Trace.Extraction.TotalCost = 14
	cur.Trace.Extraction.Decisions[0].Winner = "(VecAdd /2)"
	cur.Trace.Extraction.Decisions[0].WinnerCost = 9.5
	cur.Trace.Extraction.Shuffles = 4
	d := Compare(base, cur)
	k := kinds(d)
	if !k["extraction"] || !k["movement"] {
		t.Fatalf("kinds = %v, want extraction and movement in %+v", k, d.Divergences)
	}
	if len(d.Extraction.Flips) != 1 || d.Extraction.Flips[0].CurWinner != "(VecAdd /2)" {
		t.Fatalf("flips = %+v", d.Extraction.Flips)
	}
	var flip string
	for _, dv := range d.Divergences {
		if dv.Kind == "extraction" && strings.Contains(dv.Detail, "flipped") {
			flip = dv.Detail
		}
	}
	if !strings.Contains(flip, "(VecMAC /3)") || !strings.Contains(flip, "(VecAdd /2)") {
		t.Errorf("flip divergence does not name both winners: %q", flip)
	}
}

func TestBanTimelineDivergence(t *testing.T) {
	base, cur := synthInput("a"), synthInput("b")
	cur.Trace.Iterations[1].Rules[0].BannedUntil = 5
	d := Compare(base, cur)
	if !kinds(d)["ban"] {
		t.Fatalf("no ban divergence in %+v", d.Divergences)
	}
	if d.Bans.FirstDivergence != 0 {
		t.Errorf("first ban divergence = %d, want 0", d.Bans.FirstDivergence)
	}
}

func TestCostTrajectorySplit(t *testing.T) {
	base, cur := synthInput("a"), synthInput("b")
	cur.Trace.Iterations[1].BestCost = cost(13)
	d := Compare(base, cur)
	if !kinds(d)["cost"] {
		t.Fatalf("no cost divergence in %+v", d.Divergences)
	}
	if d.CostSplit == nil || d.CostSplit.Iteration != 2 ||
		d.CostSplit.Base != 12 || d.CostSplit.Cur != 13 {
		t.Fatalf("cost split = %+v, want iteration 2, 12 -> 13", d.CostSplit)
	}
}

// TestOneSidedJournalExclusion pins the forensics asymmetry: a value-only
// baseline (measured journal-off) against a journal-armed recompile compares
// raw peaks, because the flight recorder is excluded from the footprint by
// construction — equal peaks agree, and any difference is a real one.
func TestOneSidedJournalExclusion(t *testing.T) {
	base := Input{Label: "BENCH.json", Kernel: "k", Cycles: 9, PeakBytes: 2000}
	d := Compare(base, synthInput("current")) // peak 2000
	if !d.Empty() {
		t.Fatalf("equal peaks counted as divergence:\n%s", d.Format())
	}
	if d.Memory == nil || d.Memory.PeakBytes != (Pair{2000, 2000}) {
		t.Fatalf("memory = %+v, want raw peaks {2000 2000}", d.Memory)
	}
	base.PeakBytes = 1400
	if d := Compare(base, synthInput("current")); !kinds(d)["memory"] {
		t.Fatalf("a 600-byte peak delta was not flagged: %+v", d.Divergences)
	}
}

// TestOneSidedCyclesDivergence is the forensics happy path: a value-only
// baseline that genuinely regressed produces exactly the cycles divergence.
func TestOneSidedCyclesDivergence(t *testing.T) {
	base := Input{Label: "BENCH.json", Kernel: "k", Cycles: 4, PeakBytes: 2000}
	d := Compare(base, synthInput("current"))
	if len(d.Divergences) != 1 || d.Divergences[0].Kind != "cycles" {
		t.Fatalf("divergences = %+v, want exactly one cycles divergence", d.Divergences)
	}
	if !strings.Contains(d.Divergences[0].Detail, "4 → 9") {
		t.Errorf("cycles detail = %q, want 4 → 9", d.Divergences[0].Detail)
	}
}

// TestOneSidedZeroPeakIsInformational pins the no-baseline rule for memory:
// an old value-only row without peak_egraph_bytes must not read as 0 → N.
func TestOneSidedZeroPeakIsInformational(t *testing.T) {
	base := Input{Label: "old.json", Kernel: "k", Cycles: 9} // no PeakBytes
	d := Compare(base, synthInput("current"))
	if !d.Empty() {
		t.Fatalf("zero baseline peak counted as divergence:\n%s", d.Format())
	}
}

func TestValueOnlyComparison(t *testing.T) {
	base := Input{Label: "a", Kernel: "k", Cycles: 100, PeakBytes: 500}
	cur := Input{Label: "b", Kernel: "k", Cycles: 100, PeakBytes: 600}
	d := Compare(base, cur)
	if !kinds(d)["memory"] {
		t.Fatalf("peak-bytes delta not flagged: %+v", d.Divergences)
	}
	var noted bool
	for _, n := range d.Notes {
		if strings.Contains(n, "neither artifact carries a compile trace") {
			noted = true
		}
	}
	if !noted {
		t.Errorf("missing value-only note in %v", d.Notes)
	}
}

func TestProfileDeltasPerOpcodeAndSlot(t *testing.T) {
	base, cur := synthInput("a"), synthInput("b")
	cur.Cycles = 11
	cur.Profile.Cycles = 11
	cur.Profile.PerOp[0].Count = 0 // vmac gone
	cur.Profile.PerOp[0].Cycles = 0
	cur.Profile.PerOp[1].Count = 3 // one more vadd
	cur.Profile.Slots[0].Issued = 4
	d := Compare(base, cur)
	if !kinds(d)["cycles"] {
		t.Fatalf("no cycles divergence in %+v", d.Divergences)
	}
	var subjects []string
	for _, dv := range d.Divergences {
		if dv.Kind == "cycles" {
			subjects = append(subjects, dv.Subject)
		}
	}
	joined := strings.Join(subjects, " ")
	for _, want := range []string{"vmac", "vadd", "alu"} {
		if !strings.Contains(joined, want) {
			t.Errorf("cycle divergences %v miss subject %q", subjects, want)
		}
	}
}
