package validate

import (
	"math/rand"
	"strings"
	"testing"

	"diospyros/internal/expr"
	"diospyros/internal/kernel"
	"diospyros/internal/kernels"
)

func mustEquivalent(t *testing.T, a, b string, n int) {
	t.Helper()
	if err := Equivalent(expr.MustParse(a), expr.MustParse(b), n); err != nil {
		t.Fatalf("expected equivalent:\n  %s\n  %s\n  %v", a, b, err)
	}
}

func mustDiffer(t *testing.T, a, b string, n int) {
	t.Helper()
	err := Equivalent(expr.MustParse(a), expr.MustParse(b), n)
	if err == nil {
		t.Fatalf("expected inequivalent:\n  %s\n  %s", a, b)
	}
}

// identityCases are equivalent one-output program pairs.
var identityCases = [][2]string{
	// Commutativity and associativity over ℝ.
	{"(List (+ (Get a 0) (Get a 1)))", "(List (+ (Get a 1) (Get a 0)))"},
	{"(List (+ (+ (Get a 0) (Get a 1)) (Get a 2)))", "(List (+ (Get a 0) (+ (Get a 1) (Get a 2))))"},
	{"(List (* (Get a 0) (+ (Get a 1) (Get a 2))))", "(List (+ (* (Get a 0) (Get a 1)) (* (Get a 0) (Get a 2))))"},
	// Identity elimination, negation.
	{"(List (+ (Get a 0) 0))", "(List (Get a 0))"},
	{"(List (- (Get a 0) (Get a 0)))", "(List 0)"},
	{"(List (neg (neg (Get a 0))))", "(List (Get a 0))"},
	{"(List (* (Get a 0) 1))", "(List (Get a 0))"},
	// Rational functions: a/b + c/b = (a+c)/b; (a*b)/b = a.
	{"(List (+ (/ (Get a 0) (Get a 2)) (/ (Get a 1) (Get a 2))))",
		"(List (/ (+ (Get a 0) (Get a 1)) (Get a 2)))"},
	{"(List (/ (* (Get a 0) (Get a 1)) (Get a 1)))", "(List (Get a 0))"},
	// Opaque atoms: sqrt of equal (normalized) args.
	{"(List (sqrt (+ (Get a 0) 0)))", "(List (sqrt (Get a 0)))"},
	{"(List (* 2 (sgn (Get a 0))))", "(List (+ (sgn (+ (Get a 0) 0)) (sgn (Get a 0))))"},
	// Uninterpreted functions keyed by canonical args.
	{"(List (func f (+ (Get a 0) (Get a 1))))", "(List (func f (+ (Get a 1) (Get a 0))))"},
}

func TestEquivalentBasicIdentities(t *testing.T) {
	for _, c := range identityCases {
		mustEquivalent(t, c[0], c[1], 1)
	}
}

// inequivalentCases are one-output program pairs that differ.
var inequivalentCases = [][2]string{
	{"(List (+ (Get a 0) (Get a 1)))", "(List (- (Get a 0) (Get a 1)))"},
	{"(List (Get a 0))", "(List (Get a 1))"},
	{"(List (* (Get a 0) 2))", "(List (+ (Get a 0) 2))"},
	{"(List (sqrt (Get a 0)))", "(List (sqrt (Get a 1)))"},
	{"(List (func f (Get a 0)))", "(List (func g (Get a 0)))"},
	// sqrt(x)² is NOT x to the uninterpreted checker (sound refusal).
	{"(List (* (sqrt (Get a 0)) (sqrt (Get a 0))))", "(List (Get a 0))"},
}

func TestInequivalentDetected(t *testing.T) {
	for _, c := range inequivalentCases {
		mustDiffer(t, c[0], c[1], 1)
	}
}

func TestVectorProgramsFlatten(t *testing.T) {
	spec := "(List (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)) (+ (Get a 2) (Get b 2)))"
	vectorized := "(VecAdd (Vec (Get a 0) (Get a 1) (Get a 2) 0) (Vec (Get b 0) (Get b 1) (Get b 2) 0))"
	mustEquivalent(t, spec, vectorized, 3)
	// VecMAC expands to acc + b*c.
	spec2 := "(List (+ (Get x 0) (* (Get y 0) (Get z 0))))"
	mac := "(VecMAC (Vec (Get x 0) 0 0 0) (Vec (Get y 0) 0 0 0) (Vec (Get z 0) 0 0 0))"
	mustEquivalent(t, spec2, mac, 1)
	// A wrong shuffle is caught.
	wrong := "(VecAdd (Vec (Get a 1) (Get a 0) (Get a 2) 0) (Vec (Get b 0) (Get b 1) (Get b 2) 0))"
	mustDiffer(t, spec, wrong, 3)
}

func TestEquivalentWholeKernels(t *testing.T) {
	// The full Diospyros pipeline output is validated elsewhere; here check
	// the validator accepts an independently derived equivalent program.
	l := kernels.MatMul(2, 2, 2)
	// Hand-vectorized version of the same computation.
	vectorized := expr.MustParse(strings.ReplaceAll(`(VecMAC
		(VecMul (Vec (Get a 0) (Get a 0) (Get a 2) (Get a 2)) (Vec (Get b 0) (Get b 1) (Get b 0) (Get b 1)))
		(Vec (Get a 1) (Get a 1) (Get a 3) (Get a 3))
		(Vec (Get b 2) (Get b 3) (Get b 2) (Get b 3)))`, "\n", " "))
	if err := Equivalent(l.Spec, vectorized, l.OutputLen()); err != nil {
		t.Fatal(err)
	}
}

func TestLanesArity(t *testing.T) {
	ls, err := flattenLanes(expr.MustParse("(Concat (Vec 1 2 3 4) (VecAdd (Vec 1 2 3 4) (Vec 5 6 7 8)))"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != 8 {
		t.Fatalf("got %d lanes, want 8", len(ls))
	}
	if _, err := flattenLanes(expr.MustParse("(VecAdd (Vec 1 2) (Vec 1 2 3))")); err == nil {
		t.Fatal("lane mismatch not caught")
	}
	// The modular path counts lanes the same way and rejects the mismatch.
	mustEquivalent(t, "(List 1 2 3 4 6 8 10 12)",
		"(Concat (Vec 1 2 3 4) (VecAdd (Vec 1 2 3 4) (Vec 5 6 7 8)))", 8)
	for _, bad := range []string{
		"(VecAdd (Vec 1 2) (Vec 1 2 3))",
		"(VecMAC (Vec 1 2) (Vec 1 2) (Vec 1))",
		"(VecFunc f (Vec 1 2) (Vec 1 2 3))",
	} {
		if err := Equivalent(expr.MustParse("(List 1 2)"), expr.MustParse(bad), 2); err == nil || !strings.Contains(err.Error(), "lane mismatch") {
			t.Errorf("%s: got %v, want a lane mismatch", bad, err)
		}
	}
}

// randomRewrites returns random sum-of-products expressions, each paired
// with itself re-associated right-nested in reverse order.
func randomRewrites() [][2]*expr.Expr {
	r := rand.New(rand.NewSource(9))
	var out [][2]*expr.Expr
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(5)
		terms := make([]*expr.Expr, n)
		for i := range terms {
			terms[i] = expr.Mul(expr.Get("a", r.Intn(6)), expr.Get("b", r.Intn(6)))
		}
		left := terms[0]
		for _, tm := range terms[1:] {
			left = expr.Add(left, tm)
		}
		// Right-nested, reversed order.
		right := terms[n-1]
		for i := n - 2; i >= 0; i-- {
			right = expr.Add(terms[i], right)
		}
		out = append(out, [2]*expr.Expr{expr.List(left), expr.List(right)})
	}
	return out
}

func TestExactDecidesRandomRewrites(t *testing.T) {
	// Re-associated sums of products must validate.
	for i, rw := range randomRewrites() {
		if err := Equivalent(rw[0], rw[1], 1); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
}

func TestLitRationalExactness(t *testing.T) {
	// 0.1 + 0.2 must equal 0.3 over exact decimals (lit parsing goes
	// through decimal strings, not float bits).
	mustEquivalent(t, "(List (+ 0.1 0.2))", "(List 0.3)", 1)
	mustEquivalent(t, "(List (/ 1 3))", "(List (/ 2 6))", 1)
}

// TestModularDecidesHugeProduct checks a kernel whose exact normal form
// outgrows the oracle — the product of 18 distinct binomials has 2^18
// monomials — through Check: it validates, and a +1 mutant is rejected.
func TestModularDecidesHugeProduct(t *testing.T) {
	prod := func() *expr.Expr {
		e := expr.Add(expr.Get("a", 0), expr.Get("b", 0))
		for i := 1; i < 18; i++ {
			e = expr.Mul(e, expr.Add(expr.Get("a", i), expr.Get("b", i)))
		}
		return e
	}
	l := &kernel.Lifted{Name: "big", Spec: expr.List(prod())}
	l.Inputs = []kernel.ArrayDecl{
		{Name: "a", Rows: 18, Cols: 1},
		{Name: "b", Rows: 18, Cols: 1},
	}
	l.Outputs = []kernel.ArrayDecl{{Name: "o", Rows: 1, Cols: 1}}
	c := NewChecker(l)
	bound, err := c.CheckBound(expr.List(prod()))
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if want := 18.0 / p; bound != want {
		t.Errorf("bound %g, want the product's degree over p, %g", bound, want)
	}
	if err := c.Check(expr.List(expr.Add(prod(), expr.Lit(1)))); err == nil {
		t.Fatal("a +1 mutant validated")
	}
}
