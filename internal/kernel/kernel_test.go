package kernel_test

import (
	"testing"

	"diospyros/internal/frontend"
	"diospyros/internal/kernel"
)

// lift lifts the kernel-language source src, failing the test on error.
func lift(t *testing.T, src string) *kernel.Lifted {
	t.Helper()
	k, err := frontend.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	l, err := frontend.Lift(k)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return l
}

// TestBuilderLiftShapes checks the shapes a lifted kernel records and its
// spec's layout: one element per output element, in declaration order,
// row-major, each zero unless written.
func TestBuilderLiftShapes(t *testing.T) {
	l := lift(t, "kernel shapes(a[2][3], v[5]) -> (o[2][2], w[3]) { o[1][1] = 7.0; w[2] = 9.0; }")
	if l.Name != "shapes" {
		t.Fatalf("name = %q", l.Name)
	}
	want := []kernel.ArrayDecl{{Name: "a", Rows: 2, Cols: 3}, {Name: "v", Rows: 5, Cols: 1}}
	for i, d := range want {
		if l.Inputs[i] != d {
			t.Errorf("input %d = %+v, want %+v", i, l.Inputs[i], d)
		}
	}
	if l.InputLen() != 6+5 || l.OutputLen() != 4+3 {
		t.Fatalf("lens = %d, %d", l.InputLen(), l.OutputLen())
	}
	if len(l.Spec.Args) != 7 {
		t.Fatalf("spec has %d elements", len(l.Spec.Args))
	}
	if !l.Spec.Args[3].IsLit(7) || !l.Spec.Args[6].IsLit(9) || !l.Spec.Args[0].IsZero() {
		t.Fatalf("spec = %s", l.Spec)
	}
}

// TestInputReadsAreGets checks that an input element reads as a Get of
// its row-major offset, and that every read of one element is the same
// node.
func TestInputReadsAreGets(t *testing.T) {
	l := lift(t, "kernel gets(a[2][3]) -> (o[2]) { o[0] = a[1][2]; o[1] = a[1][2]; }")
	if got := l.Spec.Args[0].String(); got != "(Get a 5)" {
		t.Fatalf("got %s, want (Get a 5)", got)
	}
	if l.Spec.Args[0] != l.Spec.Args[1] {
		t.Fatal("two reads of a[1][2] are different nodes")
	}
}

// TestAccumulatorReadBack checks that outputs are readable accumulators:
// o += x twice yields (+ x x), the first sum folding 0 + x to x.
func TestAccumulatorReadBack(t *testing.T) {
	l := lift(t, "kernel acc(a[1]) -> (o[1]) { o[0] = o[0] + a[0]; o[0] = o[0] + a[0]; }")
	if got := l.Spec.Args[0].String(); got != "(+ (Get a 0) (Get a 0))" {
		t.Fatalf("accumulated spec = %s", got)
	}
}

// TestScalarHelpers checks the term lift builds for each float operation,
// and the literal folds it applies.
func TestScalarHelpers(t *testing.T) {
	cases := []struct{ body, want string }{
		{"a[0] - a[1]", "(- (Get a 0) (Get a 1))"},
		{"a[0] / a[1]", "(/ (Get a 0) (Get a 1))"},
		{"6.0 / 3.0", "2"},
		{"1.0 / 0.0", "(/ 1 0)"},
		{"2.0 - 3.0", "-1"},
		{"2.0 * 3.0", "6"},
		{"-a[0]", "(neg (Get a 0))"},
		{"-(2.0)", "-2"},
		{"sqrt(a[0])", "(sqrt (Get a 0))"},
		{"sqrt(0.0)", "0"},
		{"sqrt(1.0)", "1"},
		{"sqrt(4.0)", "2"},
		{"sgn(a[0])", "(sgn (Get a 0))"},
		{"sgn(-3.0)", "-1"},
		{"sgn(0.0)", "1"},
		{"abs(a[0])", "(* (Get a 0) (sgn (Get a 0)))"},
		{"abs(-2.0)", "2"},
		{"rsqrt(a[0])", "(func rsqrt (Get a 0))"},
	}
	for _, c := range cases {
		l := lift(t, "kernel k(a[2]) -> (o[1]) { o[0] = "+c.body+"; }")
		if got := l.Spec.Args[0].String(); got != c.want {
			t.Errorf("%s: got %s, want %s", c.body, got, c.want)
		}
	}
}

func TestArrayDeclLen(t *testing.T) {
	if (kernel.ArrayDecl{Name: "x", Rows: 3, Cols: 4}).Len() != 12 {
		t.Fatal("Len wrong")
	}
}
