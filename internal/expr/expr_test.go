package expr

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstructorsAndString(t *testing.T) {
	cases := []struct {
		e    *Expr
		want string
	}{
		{Lit(1.5), "1.5"},
		{Lit(0), "0"},
		{Sym("x"), "x"},
		{Get("a", 3), "(Get a 3)"},
		{Add(Get("a", 0), Get("b", 0)), "(+ (Get a 0) (Get b 0))"},
		{Sub(Sym("x"), Lit(2)), "(- x 2)"},
		{Mul(Sym("x"), Sym("y")), "(* x y)"},
		{Div(Lit(1), Sym("x")), "(/ 1 x)"},
		{Neg(Sym("x")), "(neg x)"},
		{Sqrt(Sym("x")), "(sqrt x)"},
		{Sgn(Sym("x")), "(sgn x)"},
		{Func("f", Sym("x"), Sym("y")), "(func f x y)"},
		{Vec(Lit(0), Lit(1)), "(Vec 0 1)"},
		{Concat(Vec(Lit(0)), Vec(Lit(1))), "(Concat (Vec 0) (Vec 1))"},
		{VecAdd(Vec(Sym("a")), Vec(Sym("b"))), "(VecAdd (Vec a) (Vec b))"},
		{VecMAC(Vec(Sym("a")), Vec(Sym("b")), Vec(Sym("c"))), "(VecMAC (Vec a) (Vec b) (Vec c))"},
		{List(Lit(1), Lit(2)), "(List 1 2)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		"(List (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)))",
		"(Concat (Vec (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1))) (Vec 0 0))",
		"(VecMAC (Vec 0 0 0 0) (Vec (Get i 6) (Get i 7) (Get i 8) (Get i 9)) (Vec (Get f 0) (Get f 0) (Get f 0) (Get f 0)))",
		"(func sq (Get a 0))",
		"(VecFunc sq (Vec (Get a 0)))",
		"(sgn (sqrt (neg x)))",
		"(/ (Get a 0) (- (Get a 1) 3.25))",
	}
	for _, src := range srcs {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got := e.String(); got != src {
			t.Errorf("round trip: got %q, want %q", got, src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(",
		"()",
		"(+ 1)",
		"(+ 1 2 3)",
		"(Unknown 1 2)",
		"(Get a)",
		"(Get a x)",
		"(Vec)",
		"(List)",
		"(VecFunc f)",
		"(+ 1 2) extra",
		"(VecMAC (Vec 0) (Vec 0))",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// genExpr builds a random scalar expression over arrays a,b and symbol x.
func genExpr(r *rand.Rand, depth int) *Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return Lit(float64(r.Intn(7)) - 3)
		case 1:
			return Sym("x")
		case 2:
			return Get("a", r.Intn(8))
		default:
			return Get("b", r.Intn(8))
		}
	}
	switch r.Intn(7) {
	case 0:
		return Add(genExpr(r, depth-1), genExpr(r, depth-1))
	case 1:
		return Sub(genExpr(r, depth-1), genExpr(r, depth-1))
	case 2:
		return Mul(genExpr(r, depth-1), genExpr(r, depth-1))
	case 3:
		return Div(genExpr(r, depth-1), genExpr(r, depth-1))
	case 4:
		return Neg(genExpr(r, depth-1))
	case 5:
		return Sqrt(genExpr(r, depth-1))
	default:
		return Sgn(genExpr(r, depth-1))
	}
}

func TestPropertyParsePrintIdentity(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(v ref) bool {
		s := v.E.String()
		parsed, err := Parse(s)
		if err != nil {
			return false
		}
		return parsed.Equal(v.E) && parsed.String() == s
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// ref wraps *Expr so testing/quick can generate random expressions.
type ref struct{ E *Expr }

func (ref) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(ref{genExpr(r, 4)})
}

func TestEvalScalarOps(t *testing.T) {
	env := NewEnv()
	env.Scalars["x"] = 2
	env.Arrays["a"] = []float64{10, 20, 30}
	cases := []struct {
		src  string
		want float64
	}{
		{"(+ x 3)", 5},
		{"(- x 3)", -1},
		{"(* x 3)", 6},
		{"(/ x 4)", 0.5},
		{"(neg x)", -2},
		{"(sqrt 9)", 3},
		{"(sgn -5)", -1},
		{"(sgn 0)", 1},
		{"(sgn 7)", 1},
		{"(Get a 1)", 20},
	}
	for _, c := range cases {
		v, err := MustParse(c.src).Eval(env)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if v.IsVec || v.Scalar != c.want {
			t.Errorf("Eval(%q) = %v, want %g", c.src, v, c.want)
		}
	}
}

func TestEvalVectorOps(t *testing.T) {
	env := NewEnv()
	env.Arrays["a"] = []float64{1, 2, 3, 4}
	env.Arrays["b"] = []float64{10, 20, 30, 40}
	cases := []struct {
		src  string
		want []float64
	}{
		{"(Vec (Get a 0) (Get a 1))", []float64{1, 2}},
		{"(Concat (Vec 1 2) (Vec 3 4))", []float64{1, 2, 3, 4}},
		{"(VecAdd (Vec (Get a 0) (Get a 1)) (Vec (Get b 0) (Get b 1)))", []float64{11, 22}},
		{"(VecMinus (Vec (Get b 0) (Get b 1)) (Vec (Get a 0) (Get a 1)))", []float64{9, 18}},
		{"(VecMul (Vec 2 3) (Vec 4 5))", []float64{8, 15}},
		{"(VecDiv (Vec 8 9) (Vec 2 3))", []float64{4, 3}},
		{"(VecMAC (Vec 1 1) (Vec 2 3) (Vec 10 10))", []float64{21, 31}},
		{"(VecNeg (Vec 1 -2))", []float64{-1, 2}},
		{"(VecSqrt (Vec 4 9))", []float64{2, 3}},
		{"(VecSgn (Vec -4 0))", []float64{-1, 1}},
		{"(List (+ 1 2) (* 2 3))", []float64{3, 6}},
	}
	for _, c := range cases {
		v, err := MustParse(c.src).Eval(env)
		if err != nil {
			t.Fatalf("Eval(%q): %v", c.src, err)
		}
		if !v.IsVec {
			t.Fatalf("Eval(%q) returned scalar %v", c.src, v.Scalar)
		}
		if len(v.Elems) != len(c.want) {
			t.Fatalf("Eval(%q) len = %d, want %d", c.src, len(v.Elems), len(c.want))
		}
		for i := range c.want {
			if math.Abs(v.Elems[i]-c.want[i]) > 1e-12 {
				t.Errorf("Eval(%q)[%d] = %g, want %g", c.src, i, v.Elems[i], c.want[i])
			}
		}
	}
}

func TestEvalUninterpretedFunc(t *testing.T) {
	env := NewEnv()
	env.Funcs["sq"] = func(args []float64) float64 { return args[0] * args[0] }
	v, err := MustParse("(func sq 3)").Eval(env)
	if err != nil || v.Scalar != 9 {
		t.Fatalf("(func sq 3) = %v, %v; want 9", v, err)
	}
	v, err = MustParse("(VecFunc sq (Vec 2 3))").Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if v.Elems[0] != 4 || v.Elems[1] != 9 {
		t.Fatalf("VecFunc sq = %v", v.Elems)
	}
	if _, err := MustParse("(func nosuch 3)").Eval(env); err == nil {
		t.Error("expected error for missing function semantics")
	}
}

func TestEvalErrors(t *testing.T) {
	env := NewEnv()
	env.Arrays["a"] = []float64{1}
	bad := []string{
		"y",
		"(Get nosuch 0)",
		"(Get a 5)",
		"(VecAdd (Vec 1 2) (Vec 1))",
		"(VecMAC (Vec 1) (Vec 1 2) (Vec 1))",
	}
	for _, src := range bad {
		if _, err := MustParse(src).Eval(env); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", src)
		}
	}
	// The parser rejects (VecFunc f); the builder can still make it.
	env.Funcs["f"] = func([]float64) float64 { return 0 }
	if _, err := VecFunc("f").Eval(env); err == nil {
		t.Error("Eval of a VecFunc with no arguments succeeded, want error")
	}
}

func TestVectorEquivalentBijection(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		if vop, ok := op.VectorEquivalent(); ok {
			back, ok2 := vop.ScalarEquivalent()
			if !ok2 || back != op {
				t.Errorf("round trip failed for %s -> %s -> %s", op, vop, back)
			}
		}
	}
}

func TestOutputLen(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"(+ 1 2)", 1},
		{"(Vec 1 2 3 4)", 4},
		{"(Concat (Vec 1 2) (Vec 3 4))", 4},
		{"(List 1 2 3)", 3},
		{"(VecAdd (Vec 1 2) (Vec 3 4))", 2},
		{"(VecMAC (Vec 1 2 3) (Vec 1 2 3) (Vec 1 2 3))", 3},
		{"(List (Vec 1 2) (Vec 3 4))", 4},
	}
	for _, c := range cases {
		if got := MustParse(c.src).OutputLen(); got != c.want {
			t.Errorf("OutputLen(%q) = %d, want %d", c.src, got, c.want)
		}
	}
}

// TestSize counts distinct nodes: a tree's every node, a DAG's shared
// nodes once.
func TestSize(t *testing.T) {
	e := MustParse("(+ (* (Get a 0) (Get f 1)) (* (Get a 1) (Get f 0)))")
	if e.Size() != 7 {
		t.Errorf("Size = %d, want 7", e.Size())
	}
	x := Get("a", 0)
	for range 40 {
		x = Add(x, x)
	}
	if got := x.Size(); got != 41 {
		t.Errorf("Size of 40 doublings = %d, want 41", got)
	}
	if got := (*Expr)(nil).Size(); got != 0 {
		t.Errorf("nil Size = %d, want 0", got)
	}
}

// TestMemoFold pins the fold's contract: first-occurrence post-order, one
// call per distinct pointer with its arguments' values in order, values
// kept across calls until Reset, and no value for a node whose fold
// failed or for its ancestors.
func TestMemoFold(t *testing.T) {
	x, y := Sym("x"), Sym("y")
	sum := Add(x, x)
	root := Mul(sum, Sub(y, sum))
	var m Memo[string]
	var visits []string
	name := func(e *Expr, args []string) (string, error) {
		s := e.Op.String()
		if e.Op == OpSym {
			s = e.Sym
		}
		if len(args) > 0 {
			s = "(" + s + " " + strings.Join(args, " ") + ")"
		}
		visits = append(visits, s)
		return s, nil
	}
	got, err := m.Fold(root, name)
	if err != nil || got != root.String() {
		t.Fatalf("Fold = %q, %v; want %q", got, err, root.String())
	}
	want := []string{"x", "(+ x x)", "y", "(- y (+ x x))", "(* (+ x x) (- y (+ x x)))"}
	if !slices.Equal(visits, want) {
		t.Errorf("visits = %q, want %q", visits, want)
	}
	if m.Len() != 5 {
		t.Errorf("Len = %d, want 5", m.Len())
	}

	// A later fold reuses every value it already has.
	visits = nil
	if got, _ := m.Fold(Neg(sum), name); got != "(neg (+ x x))" {
		t.Errorf("second Fold = %q", got)
	}
	if !slices.Equal(visits, []string{"(neg (+ x x))"}) {
		t.Errorf("second Fold visited %q, want only the new root", visits)
	}
	m.Reset()
	if m.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", m.Len())
	}
	visits = nil
	m.Fold(sum, name)
	if !slices.Equal(visits, []string{"x", "(+ x x)"}) {
		t.Errorf("Fold after Reset visited %q, want x and (+ x x)", visits)
	}

	// An error stops the fold: the failing node and its ancestors get no
	// value, while what was folded before it keeps its own.
	m.Reset()
	bad := errors.New("bad y")
	failY := func(e *Expr, args []string) (string, error) {
		if e == y {
			return "", bad
		}
		return name(e, args)
	}
	visits = nil
	if _, err := m.Fold(root, failY); err != bad {
		t.Fatalf("Fold error = %v, want %v", err, bad)
	}
	if !slices.Equal(visits, []string{"x", "(+ x x)"}) {
		t.Errorf("failing Fold visited %q, want x and (+ x x) only", visits)
	}
	if m.Len() != 2 {
		t.Errorf("Len after a failed Fold = %d, want 2", m.Len())
	}
	visits = nil
	if got, err := m.Fold(root, name); err != nil || got != root.String() {
		t.Fatalf("Fold after the failure = %q, %v", got, err)
	}
	if !slices.Equal(visits, []string{"y", "(- y (+ x x))", "(* (+ x x) (- y (+ x x)))"}) {
		t.Errorf("Fold after the failure visited %q, want y and its ancestors", visits)
	}
}

// TestDump pins Dump's layout: a term of at most 8 nodes on one line, a
// larger one with an argument per indented line, and every shared
// compound subterm as one let, named wherever it occurs.
func TestDump(t *testing.T) {
	e := MustParse("(List (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)) (+ (Get a 2) (Get b 2)))")
	want := "(List\n  (+ (Get a 0) (Get b 0))\n  (+ (Get a 1) (Get b 1))\n  (+ (Get a 2) (Get b 2))\n)\n"
	if got := Dump(e); got != want {
		t.Errorf("Dump of a tree:\n%s\nwant\n%s", got, want)
	}
	x := Add(Get("a", 0), Lit(1))
	for range 3 {
		x = Add(x, x)
	}
	e = List(x, Mul(x, Get("a", 0)))
	want = "let %0 = (+ (Get a 0) 1)\nlet %1 = (+ %0 %0)\nlet %2 = (+ %1 %1)\nlet %3 = (+ %2 %2)\n" +
		"(List %3 (* %3 (Get a 0)))\n"
	if got := Dump(e); got != want {
		t.Errorf("Dump of a DAG:\n%s\nwant\n%s", got, want)
	}
	// A shared argument of a multi-line term prints by name on its line.
	x = Add(Get("a", 0), Get("b", 0))
	e = List(Mul(x, Get("c", 0)), Mul(x, Get("c", 1)), Add(Get("d", 0), Get("d", 1)), x)
	want = "let %0 = (+ (Get a 0) (Get b 0))\n" +
		"(List\n  (* %0 (Get c 0))\n  (* %0 (Get c 1))\n  (+ (Get d 0) (Get d 1))\n  %0\n)\n"
	if got := Dump(e); got != want {
		t.Errorf("Dump of a multi-line term with a shared argument:\n%s\nwant\n%s", got, want)
	}
}
