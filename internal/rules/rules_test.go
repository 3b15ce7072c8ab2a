package rules

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
	"diospyros/internal/extract"
	"diospyros/internal/frontend"
)

// saturateAndExtract runs the full rule set and extracts the best program.
func saturateAndExtract(t *testing.T, src string, cfg Config) (*expr.Expr, egraph.Report) {
	t.Helper()
	g := egraph.New()
	root := g.AddExpr(expr.MustParse(src))
	rep := egraph.Run(g, cfg.Rules(), egraph.Limits{MaxIterations: 30, MaxNodes: 200000})
	ex := extract.New(g, cost.Diospyros{Width: costWidth(cfg)})
	out, err := ex.Expr(root)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	return out, rep
}

// costWidth is the machine width extraction prices cfg's programs at: its
// first width, or the paper's 4 when cfg has no vector rules.
func costWidth(cfg Config) int {
	if len(cfg.Widths) == 0 {
		return 4
	}
	return cfg.Widths[0]
}

// countOps counts the operators of e's tree, a shared node once per
// occurrence.
func countOps(e *expr.Expr) map[expr.Op]int {
	m := map[expr.Op]int{}
	var walk func(*expr.Expr)
	walk = func(e *expr.Expr) {
		m[e.Op]++
		for _, a := range e.Args {
			walk(a)
		}
	}
	walk(e)
	return m
}

// evalPrefix evaluates a program and returns its first n elements.
func evalPrefix(t *testing.T, e *expr.Expr, env *expr.Env, n int) []float64 {
	t.Helper()
	v, err := e.Eval(env)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	s := v.AsSlice()
	if len(s) < n {
		t.Fatalf("program yields %d elements, want at least %d", len(s), n)
	}
	return s[:n]
}

func randEnv(r *rand.Rand, arrays map[string]int) *expr.Env {
	env := expr.NewEnv()
	for name, n := range arrays {
		a := make([]float64, n)
		for i := range a {
			a[i] = math.Round((r.Float64()*10-5)*16) / 16 // exact dyadics
		}
		env.Arrays[name] = a
	}
	return env
}

func TestVectorAddSpecFullyVectorizes(t *testing.T) {
	// The paper's §3.2 example: 4-element vector-vector add at width 4
	// becomes a single VecAdd of two contiguous loads.
	spec := "(List (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)) (+ (Get a 2) (Get b 2)) (+ (Get a 3) (Get b 3)))"
	out, rep := saturateAndExtract(t, spec, Default(4))
	if !rep.Saturated() {
		t.Fatalf("did not saturate: %+v", rep)
	}
	ops := countOps(out)
	if ops[expr.OpVecAdd] != 1 {
		t.Fatalf("want exactly 1 VecAdd, got %d in %s", ops[expr.OpVecAdd], out)
	}
	if ops[expr.OpAdd] != 0 {
		t.Fatalf("scalar adds remain: %s", out)
	}
	// Semantics preserved.
	r := rand.New(rand.NewSource(1))
	env := randEnv(r, map[string]int{"a": 4, "b": 4})
	specE := expr.MustParse(spec)
	want := evalPrefix(t, specE, env, 4)
	got := evalPrefix(t, out, env, 4)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("lane %d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestVectorAddWidth2Chunks(t *testing.T) {
	// §3.2 at width 2: the same spec becomes a Concat of two VecAdds.
	spec := "(List (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)) (+ (Get a 2) (Get b 2)) (+ (Get a 3) (Get b 3)))"
	out, _ := saturateAndExtract(t, spec, Default(2))
	ops := countOps(out)
	if ops[expr.OpVecAdd] != 2 || ops[expr.OpConcat] != 1 {
		t.Fatalf("want 2 VecAdd under 1 Concat, got %v in %s", ops, out)
	}
}

func TestZeroPaddingVectorizes(t *testing.T) {
	// 3 outputs at width 4: the pad lane is 0 and must not block VecAdd
	// (the custom zero-tolerant matcher, §3.3).
	spec := "(List (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)) (+ (Get a 2) (Get b 2)))"
	out, _ := saturateAndExtract(t, spec, Default(4))
	ops := countOps(out)
	if ops[expr.OpVecAdd] != 1 || ops[expr.OpAdd] != 0 {
		t.Fatalf("ragged add not vectorized: %s", out)
	}
	// Padded lane must still evaluate to 0.
	r := rand.New(rand.NewSource(2))
	env := randEnv(r, map[string]int{"a": 3, "b": 3})
	got := evalPrefix(t, out, env, 4)
	if got[3] != 0 {
		t.Fatalf("pad lane = %g, want 0", got[3])
	}
}

func TestMACIntroduced(t *testing.T) {
	// Dot-product-style lanes: each output is a sum of two products, which
	// should become VecMul followed by VecMAC (or a MAC chain), with no
	// scalar ops left.
	spec := `(List
		(+ (* (Get a 0) (Get b 0)) (* (Get a 4) (Get b 4)))
		(+ (* (Get a 1) (Get b 1)) (* (Get a 5) (Get b 5)))
		(+ (* (Get a 2) (Get b 2)) (* (Get a 6) (Get b 6)))
		(+ (* (Get a 3) (Get b 3)) (* (Get a 7) (Get b 7))))`
	out, _ := saturateAndExtract(t, strings.ReplaceAll(spec, "\n", " "), Default(4))
	ops := countOps(out)
	if ops[expr.OpVecMAC] < 1 {
		t.Fatalf("no VecMAC introduced: %s", out)
	}
	if ops[expr.OpAdd] != 0 || ops[expr.OpMul] != 0 {
		t.Fatalf("scalar ops remain: %s", out)
	}
	r := rand.New(rand.NewSource(3))
	env := randEnv(r, map[string]int{"a": 8, "b": 8})
	specE := expr.MustParse(strings.ReplaceAll(spec, "\n", " "))
	want := evalPrefix(t, specE, env, 4)
	got := evalPrefix(t, out, env, 4)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatalf("lane %d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestRaggedMAC(t *testing.T) {
	// Lanes of uneven reduction depth (the paper's convolution boundary
	// conditions): lane 0 has one product, others have two or three.
	spec := `(List
		(* (Get a 0) (Get b 0))
		(+ (* (Get a 1) (Get b 1)) (* (Get a 5) (Get b 5)))
		(+ (+ (* (Get a 2) (Get b 2)) (* (Get a 6) (Get b 6))) (* (Get a 7) (Get b 7)))
		(+ (* (Get a 3) (Get b 3)) (* (Get a 4) (Get b 4))))`
	out, _ := saturateAndExtract(t, strings.ReplaceAll(spec, "\n", " "), Default(4))
	ops := countOps(out)
	if ops[expr.OpAdd] != 0 || ops[expr.OpMul] != 0 {
		t.Fatalf("ragged reduction not fully vectorized: %s", out)
	}
	r := rand.New(rand.NewSource(4))
	env := randEnv(r, map[string]int{"a": 8, "b": 8})
	specE := expr.MustParse(strings.ReplaceAll(spec, "\n", " "))
	want := evalPrefix(t, specE, env, 4)
	got := evalPrefix(t, out, env, 4)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatalf("lane %d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestUnaryVectorization(t *testing.T) {
	spec := "(List (sqrt (Get a 0)) (sqrt (Get a 1)) (sqrt (Get a 2)) (sqrt (Get a 3)))"
	out, _ := saturateAndExtract(t, spec, Default(4))
	ops := countOps(out)
	if ops[expr.OpVecSqrt] != 1 || ops[expr.OpSqrt] != 0 {
		t.Fatalf("sqrt not vectorized: %s", out)
	}
}

func TestSgnZeroLaneNotVectorized(t *testing.T) {
	// sgn(x) is never 0 under our semantics (sgn(0)=1), so a zero pad lane
	// must NOT be absorbed into VecSgn; the extracted program must still
	// evaluate correctly.
	spec := "(List (sgn (Get a 0)) (sgn (Get a 1)) (sgn (Get a 2)))"
	out, _ := saturateAndExtract(t, spec, Default(4))
	r := rand.New(rand.NewSource(5))
	env := randEnv(r, map[string]int{"a": 3})
	specE := expr.MustParse(spec)
	want := evalPrefix(t, specE, env, 3)
	got := evalPrefix(t, out, env, 3)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("lane %d: got %g want %g (program %s)", i, got[i], want[i], out)
		}
	}
	// The pad lane, if present, must be 0, not sgn(something).
	full := evalPrefix(t, out, env, out.OutputLen())
	if len(full) == 4 && full[3] != 0 {
		t.Fatalf("pad lane corrupted: %v from %s", full, out)
	}
}

func TestDivisionVectorization(t *testing.T) {
	spec := "(List (/ (Get a 0) (Get b 0)) (/ (Get a 1) (Get b 1)) (/ (Get a 2) (Get b 2)) (/ (Get a 3) (Get b 3)))"
	out, _ := saturateAndExtract(t, spec, Default(4))
	ops := countOps(out)
	if ops[expr.OpVecDiv] != 1 || ops[expr.OpDiv] != 0 {
		t.Fatalf("div not vectorized: %s", out)
	}
	// Ragged division: pad lane uses 0/1, never 0/0.
	spec3 := "(List (/ (Get a 0) (Get b 0)) (/ (Get a 1) (Get b 1)) (/ (Get a 2) (Get b 2)))"
	out3, _ := saturateAndExtract(t, spec3, Default(4))
	r := rand.New(rand.NewSource(6))
	env := randEnv(r, map[string]int{"a": 3, "b": 3})
	for i, v := range env.Arrays["b"] {
		if v == 0 {
			env.Arrays["b"][i] = 1
		}
	}
	got := evalPrefix(t, out3, env, out3.OutputLen())
	for _, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("division padding produced non-finite lane: %v from %s", got, out3)
		}
	}
}

func TestDisableVectorAblation(t *testing.T) {
	// §5.6: with vector rules disabled the extracted program has no vector
	// arithmetic but is still simplified scalar code.
	spec := "(List (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)) (+ (Get a 2) (Get b 2)) (+ (Get a 3) (Get b 3)))"
	cfg := Config{}
	out, rep := saturateAndExtract(t, spec, cfg)
	if !rep.Saturated() {
		t.Fatalf("scalar run did not saturate: %+v", rep)
	}
	ops := countOps(out)
	if ops[expr.OpVecAdd] != 0 || ops[expr.OpVec] != 0 {
		t.Fatalf("vector ops present with no widths: %s", out)
	}
	if ops[expr.OpAdd] != 4 {
		t.Fatalf("expected 4 scalar adds, got %v", ops)
	}
}

// liftOne lifts the one-line kernel o[0] = body over a[2] and returns its
// spec as text, ready for saturateAndExtract.
func liftOne(t *testing.T, body string) string {
	t.Helper()
	l, err := frontend.Lift(frontend.MustParse("kernel k(a[2]) -> (o[1]) { o[0] = " + body + "; }"))
	if err != nil {
		t.Fatalf("lift %s: %v", body, err)
	}
	return l.Spec.String()
}

// TestScalarSimplification checks that scalar identities in a kernel's
// source reach the extracted program simplified: Lift folds them as it
// builds the spec, and saturation with the scalar rules keeps that form.
func TestScalarSimplification(t *testing.T) {
	cases := []struct {
		body, want string
	}{
		{"a[0] + 0.0", "(List (Get a 0))"},
		{"a[0] * 1.0", "(List (Get a 0))"},
		{"a[0] * 0.0", "(List 0)"},
		{"a[0] - a[0]", "(List 0)"},
		{"-(-a[0])", "(List (Get a 0))"},
		{"2.0 + 3.0", "(List 5)"},
		{"sqrt(9.0)", "(List 3)"},
	}
	cfg := Config{}
	for _, c := range cases {
		out, _ := saturateAndExtract(t, liftOne(t, c.body), cfg)
		if got := out.String(); got != c.want {
			t.Errorf("simplify %s: got %s, want %s", c.body, got, c.want)
		}
	}
}

// TestConstFoldSkipsUnsound checks that no literal operation whose value
// is undefined or non-finite becomes a literal, neither in Lift nor under
// any built-in rule: the extracted lane keeps its operator.
func TestConstFoldSkipsUnsound(t *testing.T) {
	specs := []string{"(List (/ 1 0))", "(List (sqrt (neg 1)))", "(List (* 1e+308 10))"}
	for _, body := range []string{"1.0 / 0.0", "sqrt(-1.0)", "1e308 * 10.0"} {
		specs = append(specs, liftOne(t, body))
	}
	for _, cfg := range []Config{{}, {Widths: []int{4}}} {
		for _, src := range specs {
			out, _ := saturateAndExtract(t, src, cfg)
			if len(out.Args) != 1 || out.Args[0].Op == expr.OpLit {
				t.Errorf("widths %v: unsound fold of %s to %s", cfg.Widths, src, out)
			}
		}
	}
}

// Property-style soundness: for random sum-of-products specs, the extracted
// program always evaluates to the same outputs as the spec.
func TestRandomSpecSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 1 + r.Intn(7) // outputs
		elems := make([]*expr.Expr, n)
		for i := range elems {
			depth := r.Intn(4)
			e := expr.Mul(expr.Get("a", r.Intn(8)), expr.Get("b", r.Intn(8)))
			for d := 0; d < depth; d++ {
				e = expr.Add(e, expr.Mul(expr.Get("a", r.Intn(8)), expr.Get("b", r.Intn(8))))
			}
			elems[i] = e
		}
		spec := expr.List(elems...)
		g := egraph.New()
		root := g.AddExpr(spec)
		cfg := Default(4)
		egraph.Run(g, cfg.Rules(), egraph.Limits{MaxIterations: 20, MaxNodes: 50000})
		ex := extract.New(g, cost.Diospyros{Width: costWidth(cfg)})
		out, err := ex.Expr(root)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		env := randEnv(r, map[string]int{"a": 8, "b": 8})
		want := evalPrefix(t, spec, env, n)
		got := evalPrefix(t, out, env, n)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9 {
				t.Fatalf("trial %d lane %d: got %g want %g\nspec: %s\nout:  %s",
					trial, i, got[i], want[i], spec, out)
			}
		}
	}
}

func TestExtractedCostReflectsMovement(t *testing.T) {
	// Gathering from one array must extract cheaper than from two arrays.
	single := "(List (+ (Get a 0) (Get a 4)) (+ (Get a 1) (Get a 5)) (+ (Get a 2) (Get a 6)) (+ (Get a 3) (Get a 7)))"
	cross := "(List (+ (Get a 0) (Get b 0)) (+ (Get a 3) (Get c 1)) (+ (Get c 2) (Get b 6)) (+ (Get b 3) (Get a 7)))"
	costOf := func(src string) float64 {
		g := egraph.New()
		root := g.AddExpr(expr.MustParse(src))
		cfg := Default(4)
		egraph.Run(g, cfg.Rules(), egraph.Limits{MaxIterations: 20, MaxNodes: 50000})
		ex := extract.New(g, cost.Diospyros{Width: costWidth(cfg)})
		return ex.Cost(root)
	}
	if cs, cc := costOf(single), costOf(cross); cs >= cc {
		t.Fatalf("single-array cost %g >= cross-array cost %g", cs, cc)
	}
}
