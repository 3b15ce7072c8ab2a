package diospyros

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diospyros/internal/egraph"
	"diospyros/internal/expr"
	"diospyros/internal/kernels"
	"diospyros/internal/telemetry"
	"diospyros/internal/vir"
)

// TestExtraRulesRecip exercises the §6 extension path: a user rewrite rule
// introducing a target-specific reciprocal, made attractive with OpCost.
func TestExtraRulesRecip(t *testing.T) {
	src := `
kernel inv4(d[4]) -> (out[4]) {
    for i in 0..4 {
        out[i] = 1.0 / d[i];
    }
}
`
	opts := testOpts()
	opts.ExtraRules = []RewriteRule{
		{Name: "one-over-to-recip", LHS: "(/ 1 ?x)", RHS: "(func recip ?x)"},
	}
	opts.OpCost = map[string]float64{"func:recip": 0.5, "VecFunc:recip": 0.5}
	res, err := CompileSource(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.C, "recip_v(") {
		t.Fatalf("recip not chosen:\n%s", res.C)
	}
	funcs := map[string]func([]float64) float64{
		"recip": func(a []float64) float64 { return 1 / a[0] },
	}
	out, _, err := res.Run(map[string][]float64{"d": {1, 2, 4, 8}}, funcs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.5, 0.25, 0.125}
	for i := range want {
		if out["out"][i] != want[i] {
			t.Fatalf("out[%d] = %g, want %g", i, out["out"][i], want[i])
		}
	}
}

func TestExtraRulesRejectMalformed(t *testing.T) {
	opts := testOpts()
	recip := RewriteRule{Name: "one-over-to-recip", LHS: "(/ 1 ?x)", RHS: "(func recip ?x)"}
	for _, tc := range []struct {
		name  string
		rules []RewriteRule
		want  string // in the error
	}{
		{"bad-lhs", []RewriteRule{{Name: "bad-lhs", LHS: "(bogus ?x)", RHS: "?x"}}, "bad-lhs"},
		{"bad-rhs", []RewriteRule{{Name: "bad-rhs", LHS: "(+ ?x 0)", RHS: "(+ ?x"}}, "bad-rhs"},
		{"unbound", []RewriteRule{{Name: "unbound", LHS: "(+ ?x 0)", RHS: "?y"}}, "unbound"},
		{"empty name", []RewriteRule{{LHS: "(/ 1 ?x)", RHS: "(func recip ?x)"}}, "(/ 1 ?x) => (func recip ?x)"},
		{"built-in name", []RewriteRule{{Name: "vec-mac", LHS: "(/ 1 ?x)", RHS: "(func recip ?x)"}}, `"vec-mac"`},
		{"repeated extra name", []RewriteRule{recip, recip}, `"one-over-to-recip"`},
	} {
		opts.ExtraRules = tc.rules
		_, err := Compile(kernels.MatMul(2, 2, 2), opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}

// TestOpCostSteersExtraction makes vector MACs prohibitively expensive and
// checks extraction routes around them.
func TestOpCostSteersExtraction(t *testing.T) {
	l := kernels.MatMul(2, 2, 2)
	base, err := Compile(l, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(base.C, "PDX_MAC_MXF32") {
		t.Skip("base compile does not use MAC; nothing to steer")
	}
	opts := testOpts()
	opts.OpCost = map[string]float64{"VecMAC": 1e9}
	res, err := Compile(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.C, "PDX_MAC_MXF32") {
		t.Fatalf("VecMAC extracted despite prohibitive cost:\n%s", res.C)
	}
	// Result must still be correct.
	checkCompiled(t, l, opts)
}

// TestWidthParametric compiles at non-default widths; every width now gets
// IR, C, and runnable assembly (targets are width-parametric).
func TestWidthParametric(t *testing.T) {
	for _, w := range []int{2, 8} {
		l := kernels.MatMul(2, 2, 2)
		opts := testOpts()
		opts.Targets = []string{fmt.Sprintf("fg3lite-%d", w)}
		res, err := Compile(l, opts)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if res.Program == nil {
			t.Fatalf("width %d: no assembly program", w)
		}
		if res.VIR.Width != w {
			t.Fatalf("width %d: IR width %d", w, res.VIR.Width)
		}
		if len(res.C) == 0 {
			t.Fatalf("width %d: no C output", w)
		}
		r := rand.New(rand.NewSource(int64(w)))
		in := randIn(r, l)
		got, _, err := res.Run(in, nil)
		if err != nil {
			t.Fatalf("width %d: Run: %v", w, err)
		}
		env := expr.NewEnv()
		for k, v := range in {
			env.Arrays[k] = v
		}
		want, err := l.Spec.Eval(env)
		if err != nil {
			t.Fatal(err)
		}
		for i, wv := range want.AsSlice() {
			if math.Abs(got["c"][i]-wv) > 1e-9 {
				t.Fatalf("width %d: c[%d] = %g, want %g", w, i, got["c"][i], wv)
			}
		}
	}
}

// TestACRulesFindCommutedMatch checks the AC rules as extra rules: with
// them, (+ x y) and (+ y x) share a class, and each of their steps
// classifies as reassociation.
func TestACRulesFindCommutedMatch(t *testing.T) {
	rs, err := RuleSet(Options{ExtraRules: ACRules()})
	if err != nil {
		t.Fatal(err)
	}
	g := egraph.New()
	l := g.AddExpr(expr.MustParse("(+ x y)"))
	r := g.AddExpr(expr.MustParse("(+ y x)"))
	egraph.Run(g, rs, egraph.Limits{MaxIterations: 5, MaxNodes: 10000})
	if g.Find(l) != g.Find(r) {
		t.Fatal("AC rules did not merge commuted additions")
	}
	for _, rule := range ACRules() {
		if k := telemetry.ClassifyRule(rule.Name); k != telemetry.KindReassociation {
			t.Errorf("rule %s classifies as %s, want %s", rule.Name, k, telemetry.KindReassociation)
		}
	}
}

func TestACRulesCompile(t *testing.T) {
	opts := testOpts()
	opts.ExtraRules = ACRules()
	opts.NodeLimit = 100_000
	checkCompiled(t, kernels.MatMul(2, 2, 2), opts)
}

// TestGeneratedCodeRegisterPressure checks the codegen's recycling
// allocator keeps even the largest suite kernels within plausible DSP
// register files (the real G3 class has on the order of 32–64 registers
// per file; FG3-lite sizes its files to the program).
func TestGeneratedCodeRegisterPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles large kernels")
	}
	for _, mk := range []func() *Result{
		func() *Result { r, _ := Compile(kernels.Conv2D(16, 16, 4, 4), testOpts()); return r },
		func() *Result { r, _ := Compile(kernels.MatMul(16, 16, 16), testOpts()); return r },
		func() *Result { r, _ := Compile(kernels.QRDecomp(4), testOpts()); return r },
	} {
		res := mk()
		if res == nil || res.Program == nil {
			t.Fatal("compile failed")
		}
		maxF, maxV := 0, 0
		for _, in := range res.Program.Instrs {
			if in.Op.IsVector() {
				if in.Dst > maxV {
					maxV = in.Dst
				}
			} else if in.Dst > maxF {
				maxF = in.Dst
			}
		}
		t.Logf("%s: %d vector regs, %d scalar/int regs", res.Kernel.Name, maxV+1, maxF+1)
		if maxV+1 > 64 {
			t.Errorf("%s: %d vector registers exceeds a realistic file", res.Kernel.Name, maxV+1)
		}
	}
}

func TestACWithBackoffCompilesLargerKernel(t *testing.T) {
	// Full AC rules on a 3x3 matmul blow up quickly; the backoff scheduler
	// keeps the run inside a modest node budget and the result correct.
	opts := testOpts()
	opts.ExtraRules = ACRules()
	opts.UseBackoff = true
	opts.NodeLimit = 150_000
	checkCompiled(t, kernels.MatMul(3, 3, 3), opts)
}

// TestWidthParametricSemantics executes non-default-width compilations via
// the IR interpreter (FG3-lite assembly is width-4 only) and checks the
// outputs against the specification.
func TestWidthParametricSemantics(t *testing.T) {
	for _, w := range []int{2, 8} {
		l := kernels.Conv2D(3, 3, 2, 2)
		opts := testOpts()
		opts.Targets = []string{fmt.Sprintf("fg3lite-%d", w)}
		res, err := Compile(l, opts)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		r := rand.New(rand.NewSource(int64(w)))
		in := randIn(r, l)
		got, err := vir.Interp(res.VIR, in, nil)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		env := expr.NewEnv()
		for k, v := range in {
			env.Arrays[k] = v
		}
		want, err := l.Spec.Eval(env)
		if err != nil {
			t.Fatal(err)
		}
		flat := want.AsSlice()
		for i, wv := range flat {
			if math.Abs(got["o"][i]-wv) > 1e-9 {
				t.Fatalf("width %d: o[%d] = %g, want %g", w, i, got["o"][i], wv)
			}
		}
		// A wide target must actually use vectors; at width 2 the cost
		// model may legitimately prefer scalar code (2-lane SIMD barely
		// amortizes its data movement).
		if w >= 4 {
			usedVec := false
			for _, in := range res.VIR.Instrs {
				if in.Op.IsVectorValue() {
					usedVec = true
				}
			}
			if !usedVec {
				t.Errorf("width %d: no vector ops in IR", w)
			}
		}
	}
}

// TestTestdataKernelsCompile compiles every sample kernel shipped under
// testdata/ (the CLI's example inputs) with validation enabled.
func TestTestdataKernelsCompile(t *testing.T) {
	files, err := filepath.Glob("testdata/*.dios")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata kernels found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		opts := testOpts()
		opts.Validate = true
		res, err := CompileSource(string(src), opts)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		checkCompiled(t, res.Kernel, opts)
	}
}
