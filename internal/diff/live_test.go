package diff_test

import (
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	diospyros "diospyros"
	"diospyros/internal/diff"
	"diospyros/internal/egraph"
)

// These tests exercise the diff package against real compilations of the
// matmul2x2 testdata kernel: the self-diff-empty invariant, the induced
// regressions the acceptance criteria pin (a nerfed cost weight must name
// the responsible op; a disabled rule family must name the missing rules).

// compileMM compiles testdata/matmul2x2.dios with the journal armed and
// simulates it, returning the diff input.
func compileMM(t *testing.T, opts diospyros.Options) diff.Input {
	t.Helper()
	src, err := os.ReadFile("../../testdata/matmul2x2.dios")
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = egraph.NewJournal()
	if opts.Timeout == 0 {
		opts.Timeout = time.Minute
	}
	res, err := diospyros.CompileSource(string(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	in := diff.Input{Label: "live", Kernel: res.Kernel.Name, Trace: res.Trace}
	if res.Program != nil {
		r := rand.New(rand.NewSource(1))
		inputs := map[string][]float64{}
		for _, d := range res.Kernel.Inputs {
			s := make([]float64, d.Len())
			for i := range s {
				s[i] = float64(int(r.Float64()*200-100)) / 10
			}
			inputs[d.Name] = s
		}
		if _, sres, err := res.Run(inputs, nil); err == nil {
			in.Profile = sres.Profile
			in.Cycles = sres.Cycles
		}
	}
	return in
}

// TestLiveSelfDiffEmpty checks the determinism anchor on real compiles: the
// same kernel compiled twice — and again at GOMAXPROCS 8 — diffs empty.
func TestLiveSelfDiffEmpty(t *testing.T) {
	a := compileMM(t, diospyros.Options{})
	b := compileMM(t, diospyros.Options{})
	if d := diff.Compare(a, b); !d.Empty() {
		t.Errorf("identical compiles diverged:\n%s", d.Format())
	}
	withProcs(t, 8)
	p := compileMM(t, diospyros.Options{})
	if d := diff.Compare(a, p); !d.Empty() {
		t.Errorf("default vs GOMAXPROCS=8 diverged:\n%s", d.Format())
	}
}

// TestInducedCostRegressionNamesRule is the acceptance pin for the induced
// regression: nerfing VecMAC's cost weight must produce a non-empty diff
// that names VecMAC in the divergence list, the JSON artifact, and the HTML
// report.
func TestInducedCostRegressionNamesRule(t *testing.T) {
	base := compileMM(t, diospyros.Options{})
	cur := compileMM(t, diospyros.Options{OpCost: map[string]float64{"VecMAC": 50}})
	d := diff.Compare(base, cur)
	if d.Empty() {
		t.Fatal("nerfed VecMAC cost produced an empty diff")
	}
	var named bool
	for _, dv := range d.Divergences {
		if strings.Contains(dv.Detail, "VecMAC") {
			named = true
		}
	}
	if !named {
		t.Fatalf("no divergence names VecMAC:\n%s", d.Format())
	}
	raw, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "VecMAC") || !strings.Contains(string(raw), diff.Schema) {
		t.Error("JSON artifact does not name VecMAC under the diff schema")
	}
	page, err := diff.Report(d, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "VecMAC") {
		t.Error("HTML report does not name VecMAC")
	}
	// A cost-weight change leaves the search untouched: the e-graph and the
	// rule attribution must agree, only extraction-side sections may differ.
	for _, dv := range d.Divergences {
		switch dv.Kind {
		case "rule", "saturation", "stop-reason", "ban":
			t.Errorf("cost-only change produced a search divergence: %+v", dv)
		}
	}
}

// TestInducedRuleDisableDivergence pins the other induced-regression lever:
// disabling the vectorization rules must surface as rules running only in
// the baseline.
func TestInducedRuleDisableDivergence(t *testing.T) {
	base := compileMM(t, diospyros.Options{})
	cur := compileMM(t, diospyros.Options{DisableVectorRules: true})
	d := diff.Compare(base, cur)
	if d.Empty() {
		t.Fatal("disabling vector rules produced an empty diff")
	}
	var baselineOnly bool
	for _, r := range d.Rules {
		if r.OnlyIn == "baseline" {
			baselineOnly = true
		}
	}
	if !baselineOnly {
		t.Errorf("no rule attributed to the baseline only:\n%s", d.Format())
	}
}
