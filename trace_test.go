package diospyros

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"diospyros/internal/egraph"
	"diospyros/internal/kernels"
	"diospyros/internal/pipeline"
	"diospyros/internal/telemetry"
)

// The quickstart saxpy kernel (examples/quickstart).
const quickstartSrc = `
kernel saxpy8(x[8], y[8], alpha[1]) -> (out[8]) {
    for i in 0..8 {
        out[i] = x[i] * alpha[0] + y[i];
    }
}
`

// TestCompileTraceQuickstart checks the telemetry contract on a
// quickstart-kernel compile: every executed stage has a span, stage
// durations sum to ≈ the compile time, and the iteration gauges reconcile
// exactly with the saturation report.
func TestCompileTraceQuickstart(t *testing.T) {
	opts := testOpts()
	opts.Validate = true
	res, err := CompileSourceContext(context.Background(), quickstartSrc, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("no trace")
	}

	wantStages := []string{StageLift, StageSaturate, StageExtract, StageLower, StageCodegen, StageValidate}
	if len(tr.Stages) != len(wantStages) {
		t.Fatalf("got %d spans %v, want %d", len(tr.Stages), tr.Stages, len(wantStages))
	}
	for i, name := range wantStages {
		if tr.Stages[i].Name != name {
			t.Errorf("stage %d = %s, want %s", i, tr.Stages[i].Name, name)
		}
	}

	// The phase path nests (children never outgrow their parent), and the
	// stages cover the compile up to inter-stage bookkeeping.
	for _, msg := range PhaseInvariantViolations(tr) {
		t.Error(msg)
	}
	var sum time.Duration
	for _, s := range tr.Stages {
		sum += s.Duration
	}
	if gap := tr.Duration - sum; gap > 100*time.Millisecond {
		t.Errorf("unattributed time %v too large (stages %v of %v)", gap, sum, tr.Duration)
	}

	// Per-iteration gauges reconcile with the saturation report.
	if len(tr.Iterations) != res.Saturation.Iterations {
		t.Fatalf("%d gauges for %d iterations", len(tr.Iterations), res.Saturation.Iterations)
	}
	g, ok := tr.FinalGauge()
	if !ok || g.Nodes != res.Saturation.Nodes || g.Classes != res.Saturation.Classes {
		t.Errorf("final gauge %+v disagrees with report (%d nodes, %d classes)",
			g, res.Saturation.Nodes, res.Saturation.Classes)
	}
	if tr.StopReason != string(res.Saturation.Reason) {
		t.Errorf("trace stop reason %q vs report %q", tr.StopReason, res.Saturation.Reason)
	}
}

// TestCompileReadsMemoryOncePerStageBoundary pins the cost of the memory
// probe: a compile reads the runtime's memory statistics once at its
// start, once per stage and once at its end, and those readings alone
// fill the trace's heap figures.
func TestCompileReadsMemoryOncePerStageBoundary(t *testing.T) {
	src, err := os.ReadFile("testdata/dotprod8.dios")
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompileSource(string(src), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Trace.Memory
	if m == nil {
		t.Fatal("no memory record")
	}
	if want := len(res.Trace.Stages) + 2; m.HeapSamples != want {
		t.Errorf("HeapSamples = %d, want %d (one per stage boundary)", m.HeapSamples, want)
	}
	if m.HeapPeakBytes == 0 {
		t.Error("HeapPeakBytes = 0")
	}
}

// TestRuleAttributionWithoutJournal checks that rule attribution needs no
// flight recorder: a journal-less compile's gauges carry rule rows whose
// applications sum to the report's, and whose non-banned matches sum to
// each gauge's Matches. AC rules under Backoff make some steps banned.
func TestRuleAttributionWithoutJournal(t *testing.T) {
	opts := testOpts()
	opts.ExtraRules, opts.UseBackoff = ACRules(), true
	res, err := Compile(kernels.Conv2D(3, 5, 3, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	applied, banned := 0, 0
	for _, g := range res.Trace.Iterations {
		matches := 0
		for _, s := range g.Rules {
			applied += s.Applied
			if s.Banned() {
				banned++
				continue
			}
			matches += s.Matches
		}
		if matches != g.Matches {
			t.Errorf("iteration %d: non-banned rows sum to %d matches, gauge says %d",
				g.Iteration, matches, g.Matches)
		}
	}
	if applied != res.Saturation.Applied || applied == 0 {
		t.Errorf("rule rows sum to %d applications, report says %d", applied, res.Saturation.Applied)
	}
	if banned == 0 {
		t.Error("no banned step recorded; the banned-match rule went untested")
	}
}

// Validation off ⇒ no validate span; compiling a pre-lifted kernel ⇒ no
// lift span.
func TestCompileTraceSkipsUnusedStages(t *testing.T) {
	res, err := Compile(kernels.MatMul(2, 2, 2), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stageSpan(res.Trace, StageValidate); ok {
		t.Error("validate span present without Options.Validate")
	}
	if _, ok := stageSpan(res.Trace, StageLift); ok {
		t.Error("lift span present for a pre-lifted kernel")
	}
	if _, ok := stageSpan(res.Trace, StageSaturate); !ok {
		t.Error("saturate span missing")
	}
}

func TestCompileContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileContext(ctx, kernels.MatMul(2, 2, 2), testOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *pipeline.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err %v is not a StageError", err)
	}
}

// Cancelling mid-saturation aborts the compile with an error wrapping
// context.Canceled, attributed to the saturate stage, promptly.
func TestCompileContextCancelledMidSaturation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// The largest suite kernel: saturation runs for far longer than the
	// cancellation delay, so the cancel lands mid-saturation.
	_, err := CompileContext(ctx, kernels.MatMul(16, 16, 16), testOpts())
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("kernel compiled before the cancellation landed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *pipeline.StageError
	if !errors.As(err, &se) || se.Stage != StageSaturate {
		t.Fatalf("err = %v, want saturate StageError", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v to take effect", elapsed)
	}
}

// Options.Timeout expiring is NOT a cancellation: the partially saturated
// e-graph still extracts and produces code (the Figure 6 contract).
func TestCompileSaturationTimeoutStillEmitsCode(t *testing.T) {
	opts := testOpts()
	opts.Timeout = time.Millisecond
	res, err := Compile(kernels.MatMul(10, 10, 10), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturation.Reason == egraph.StopCancelled {
		t.Fatalf("internal timeout misreported as cancellation")
	}
	if res.C == "" || res.VIR == nil {
		t.Fatal("timed-out compile produced no code")
	}
}

// stageSpan returns the trace's span of the named stage, if recorded.
func stageSpan(tr *telemetry.Trace, name string) (telemetry.Span, bool) {
	for _, s := range tr.Stages {
		if s.Name == name {
			return s, true
		}
	}
	return telemetry.Span{}, false
}

// PhaseInvariantViolations checks a compile trace's phase path and returns
// one message per broken invariant:
//   - every path's children sum to at most the parent;
//   - each gauge's index, match, apply and rebuild sum to at most its
//     Duration, and the gauges' Durations to at most the saturate span;
//   - the list round-trips through the Server-Timing codec at microsecond
//     resolution.
//
// It is exported for the suite-wide test in the external test package.
func PhaseInvariantViolations(tr *telemetry.Trace) []string {
	var out []string
	phases := tr.Phases()
	dur := map[string]time.Duration{}
	children := map[string]time.Duration{}
	for _, p := range phases {
		dur[p.Path] = p.Duration
		if i := strings.LastIndexByte(p.Path, '.'); i >= 0 {
			children[p.Path[:i]] += p.Duration
		}
	}
	for parent, sum := range children {
		if d, ok := dur[parent]; !ok || sum > d {
			out = append(out, fmt.Sprintf("children of %s sum to %v, parent %v (present %v)", parent, sum, d, ok))
		}
	}
	var loop time.Duration
	for _, g := range tr.Iterations {
		if steps := g.Index + g.Match + g.Apply + g.Rebuild; steps > g.Duration {
			out = append(out, fmt.Sprintf("iteration %d: steps sum to %v, iteration %v", g.Iteration, steps, g.Duration))
		}
		loop += g.Duration
	}
	if sat, ok := stageSpan(tr, StageSaturate); ok && loop > sat.Duration {
		out = append(out, fmt.Sprintf("iterations sum to %v, saturate span %v", loop, sat.Duration))
	}
	back := telemetry.ParseServerTiming(telemetry.FormatServerTiming(phases))
	if len(back) != len(phases) {
		return append(out, fmt.Sprintf("Server-Timing round trip kept %d of %d phases", len(back), len(phases)))
	}
	for i, p := range phases {
		if want := p.Duration.Round(time.Microsecond); back[i].Path != p.Path || back[i].Duration != want {
			out = append(out, fmt.Sprintf("Server-Timing round trip: %s %v, want %s %v", back[i].Path, back[i].Duration, p.Path, want))
		}
	}
	return out
}
