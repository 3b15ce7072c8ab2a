package diospyros

import (
	"os"
	"testing"

	"diospyros/internal/telemetry"
)

// TestExplainMatMul2x2 is the acceptance check for -explain: compiling the
// 2x2 matmul with provenance on yields an explanation naming at least one
// vectorization rule and at least one shuffle step.
func TestExplainMatMul2x2(t *testing.T) {
	src, err := os.ReadFile("testdata/matmul2x2.dios")
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Explain = true
	res, err := CompileSource(string(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Trace.Explanation
	if e == nil {
		t.Fatal("Explain option set but Trace.Explanation is nil")
	}
	if !e.HasKind(telemetry.KindVectorization) {
		t.Errorf("no vectorization rule in explanation:\n%s", e.Format())
	}
	if !e.HasKind(telemetry.KindShuffle) {
		t.Errorf("no shuffle step in explanation:\n%s", e.Format())
	}
	if e.RewrittenNodes == 0 {
		t.Error("explanation attributes zero e-nodes to rewrites")
	}
	for _, s := range e.Steps {
		if s.Nodes <= 0 {
			t.Errorf("step %s has node count %d", s.Rule, s.Nodes)
		}
	}
	if res.Trace.Counters["provenance.nodes"] == 0 {
		t.Error("provenance.nodes counter not recorded")
	}
}

// TestExplainOffByDefault: without Options.Explain the compiler records no
// explanation and no provenance counters (the zero-overhead contract).
func TestExplainOffByDefault(t *testing.T) {
	src := `
kernel vadd4(a[4], b[4]) -> (c[4]) {
    for i in 0..4 {
        c[i] = a[i] + b[i];
    }
}
`
	res, err := CompileSource(src, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Explanation != nil {
		t.Fatal("Trace.Explanation populated without Options.Explain")
	}
	if res.Trace.Counters["provenance.nodes"] != 0 {
		t.Fatal("provenance counters recorded while disabled")
	}
}
