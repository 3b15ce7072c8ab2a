package frontend

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"diospyros/internal/expr"
)

const matmulSrc = `
kernel matmul(a[2][3], b[3][3]) -> (c[2][3]) {
    for i in 0..2 {
        for j in 0..3 {
            c[i][j] = 0.0;
            for k in 0..3 {
                c[i][j] = c[i][j] + a[i][k] * b[k][j];
            }
        }
    }
}
`

func TestParseMatmul(t *testing.T) {
	k, err := Parse(matmulSrc)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "matmul" || len(k.Params) != 2 || len(k.Outs) != 1 {
		t.Fatalf("unexpected kernel shape: %+v", k)
	}
	if k.Outs[0].Len() != 6 {
		t.Fatalf("output len = %d", k.Outs[0].Len())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []struct{ src, wantSub string }{
		{"", `expected "kernel"`},
		{"kernel f() -> (o[1]) {}", ""},                                 // ok actually? no params is legal
		{"kernel f(a[2]) -> (o[2]) { a[0] = 1.0; }", "read-only"},       // write to input
		{"kernel f(a[2]) -> (o[2]) { o[0][0] = 1.0; }", "1 dimensions"}, // extra index
		{"kernel f(a[2]) -> (o[2]) { o[0] = x; }", "undefined"},
		{"kernel f(a[2]) -> (o[2]) { let i = 1; let i = 2; }", "redeclaration"},
		{"kernel f(a[2]) -> (o[2]) { o[0] = a[0] % 2; }", "expected int"},
		{"kernel f(a[2]) -> (o[2]) { for i in 0..a[0] { } }", "expected int"},
		{"kernel f(a[2]) -> (o[2]) { if a[0] { } }", "expected bool"},
		{"kernel f(a[2]) -> (o[2]) { for i in 0..2 { i = 3; } }", "loop variable"},
		{"kernel f(a[0]) -> (o[2]) { }", "positive"},
		{"kernel f(a[2][2][2]) -> (o[2]) { }", "1 or 2 dimensions"},
		{"kernel f(a[2], a[3]) -> (o[2]) { }", "duplicate"},
		{"kernel k(a[2]) -> (a[2]) { }", "duplicate parameter"}, // output named like an input
		{"kernel A()->(){}", "declares no outputs"},
		{"kernel A(a[2])->(){}", "declares no outputs"},
		{"kernel f(a[2]) -> (o[2]) { o[0] = sqrt(1.0, 2.0); }", "expects 1"},
	}
	for _, c := range bad {
		_, err := Parse(c.src)
		if c.wantSub == "" {
			if err != nil {
				t.Errorf("Parse(%q) failed: %v", c.src, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error %q does not contain %q", c.src, err, c.wantSub)
		}
	}
}

func TestLiftRejectsDataDependentControlFlow(t *testing.T) {
	src := `
kernel clamp(a[4]) -> (o[4]) {
    for i in 0..4 {
        if a[i] < 0.0 {
            o[i] = 0.0;
        } else {
            o[i] = a[i];
        }
    }
}
`
	k := MustParse(src)
	_, err := Lift(k)
	var dd *ErrDataDependent
	if !errors.As(err, &dd) {
		t.Fatalf("expected ErrDataDependent, got %v", err)
	}
	// But concrete interpretation works fine.
	out, err := Interp(k, map[string][]float64{"a": {-1, 2, -3, 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 0, 4}
	for i := range want {
		if out["o"][i] != want[i] {
			t.Fatalf("clamp[%d] = %g", i, out["o"][i])
		}
	}
}

// whileSrc sums its input five times in an integer while loop.
const whileSrc = `
kernel powsum(a[1]) -> (o[1]) {
    let n = 0;
    let acc = 0.0;
    while n < 5 {
        acc = acc + a[0];
        n = n + 1;
    }
    o[0] = acc;
}
`

func TestWhileLoopInterp(t *testing.T) {
	// Integer while loops work in both interpretation and lifting.
	k := MustParse(whileSrc)
	out, err := Interp(k, map[string][]float64{"a": {3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["o"][0] != 15 {
		t.Fatalf("powsum = %g, want 15", out["o"][0])
	}
	lifted, err := Lift(k)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.NewEnv()
	env.Arrays["a"] = []float64{3}
	v, err := lifted.Spec.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if v.Elems[0] != 15 {
		t.Fatalf("lifted powsum = %g", v.Elems[0])
	}
}

func TestBuiltinsAndUserFuncs(t *testing.T) {
	src := `
kernel funcs(a[4]) -> (o[4]) {
    o[0] = sqrt(a[0]);
    o[1] = abs(a[1]);
    o[2] = sgn(a[2]);
    o[3] = myfn(a[3], 2.0);
}
`
	k := MustParse(src)
	if k.UserFuncs["myfn"] != 2 {
		t.Fatalf("UserFuncs = %v", k.UserFuncs)
	}
	funcs := map[string]func([]float64) float64{
		"myfn": func(args []float64) float64 { return args[0] * args[1] },
	}
	out, err := Interp(k, map[string][]float64{"a": {9, -2, -7, 5}}, funcs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1, 10}
	for i := range want {
		if out["o"][i] != want[i] {
			t.Fatalf("o[%d] = %g, want %g", i, out["o"][i], want[i])
		}
	}
	// Lifted abs becomes x*sgn(x); evaluate to check.
	lifted, err := Lift(k)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.NewEnv()
	env.Arrays["a"] = []float64{9, -2, -7, 5}
	env.Funcs["myfn"] = funcs["myfn"]
	v, err := lifted.Spec.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if v.Elems[i] != want[i] {
			t.Fatalf("lifted o[%d] = %g, want %g", i, v.Elems[i], want[i])
		}
	}
}

func TestLocalVarArrays(t *testing.T) {
	src := `
kernel transpose_mul(a[2][2]) -> (o[2][2]) {
    var t[2][2];
    for i in 0..2 {
        for j in 0..2 {
            t[i][j] = a[j][i];
        }
    }
    for i in 0..2 {
        for j in 0..2 {
            o[i][j] = 0.0;
            for k in 0..2 {
                o[i][j] = o[i][j] + a[i][k] * t[k][j];
            }
        }
    }
}
`
	k := MustParse(src)
	a := []float64{1, 2, 3, 4}
	out, err := Interp(k, map[string][]float64{"a": a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// a * aT = [[5, 11], [11, 25]]
	want := []float64{5, 11, 11, 25}
	for i := range want {
		if out["o"][i] != want[i] {
			t.Fatalf("o[%d] = %g, want %g", i, out["o"][i], want[i])
		}
	}
	// Same through lifting.
	lifted, err := Lift(k)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.NewEnv()
	env.Arrays["a"] = a
	v, err := lifted.Spec.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if v.Elems[i] != want[i] {
			t.Fatalf("lifted o[%d] = %g, want %g", i, v.Elems[i], want[i])
		}
	}
}

func TestIntFloatPromotion(t *testing.T) {
	src := `
kernel promo(a[2]) -> (o[2]) {
    for i in 0..2 {
        o[i] = a[i] * 2 + 1;
    }
}
`
	k := MustParse(src)
	out, err := Interp(k, map[string][]float64{"a": {1.5, -2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["o"][0] != 4 || out["o"][1] != -3 {
		t.Fatalf("promotion wrong: %v", out["o"])
	}
}

func TestElseIfChain(t *testing.T) {
	src := `
kernel sel(a[3]) -> (o[3]) {
    for i in 0..3 {
        if i == 0 {
            o[i] = a[0];
        } else if i == 1 {
            o[i] = a[1] * 10.0;
        } else {
            o[i] = a[2] * 100.0;
        }
    }
}
`
	k := MustParse(src)
	out, err := Interp(k, map[string][]float64{"a": {1, 2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 20, 300}
	for i := range want {
		if out["o"][i] != want[i] {
			t.Fatalf("o[%d] = %g", i, out["o"][i])
		}
	}
}

func TestInterpInputValidation(t *testing.T) {
	k := MustParse(matmulSrc)
	if _, err := Interp(k, map[string][]float64{"a": make([]float64, 6)}, nil); err == nil {
		t.Error("missing input not rejected")
	}
	if _, err := Interp(k, map[string][]float64{"a": make([]float64, 5), "b": make([]float64, 9)}, nil); err == nil {
		t.Error("wrong-size input not rejected")
	}
}

func TestRuntimeOOBIndex(t *testing.T) {
	src := `
kernel oob(a[2]) -> (o[2]) {
    for i in 0..3 {
        o[i] = a[0];
    }
}
`
	k := MustParse(src)
	const want = "4:9: o: index 2 out of bounds for dimension 0 (size 2)"
	if _, err := Interp(k, map[string][]float64{"a": {1, 2}}, nil); err == nil || err.Error() != want {
		t.Errorf("Interp: got %v, want %q", err, want)
	}
	if _, err := Lift(k); err == nil || err.Error() != want {
		t.Errorf("Lift: got %v, want %q", err, want)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
// doubling kernel
kernel dbl(a[2]) -> (o[2]) {
    for i in 0..2 { // loop over elements
        o[i] = a[i] + a[i];
    }
}
`
	k := MustParse(src)
	out, err := Interp(k, map[string][]float64{"a": {1, 2}}, nil)
	if err != nil || out["o"][0] != 2 || out["o"][1] != 4 {
		t.Fatalf("comment handling broken: %v %v", out, err)
	}
}

// TestParserNeverPanics mutates a valid kernel source at random positions
// and checks the parser/typechecker fail gracefully (error, not panic).
func TestParserNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	base := matmulSrc
	glyphs := []byte("(){}[]+-*/%<>=!&|;,.0123456789abczforinletvarwhile \n")
	for trial := 0; trial < 500; trial++ {
		b := []byte(base)
		for k := 0; k < 1+r.Intn(4); k++ {
			pos := r.Intn(len(b))
			switch r.Intn(3) {
			case 0: // substitute
				b[pos] = glyphs[r.Intn(len(glyphs))]
			case 1: // delete
				b = append(b[:pos], b[pos+1:]...)
			default: // insert
				b = append(b[:pos], append([]byte{glyphs[r.Intn(len(glyphs))]}, b[pos:]...)...)
			}
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("parser panicked on mutated input: %v\n%s", p, b)
				}
			}()
			if k, err := Parse(string(b)); err == nil {
				// Valid mutants must also lift or interp without panicking.
				_, _ = Lift(k)
			}
		}()
	}
}

// TestLiftInterpAgree cross-checks the two evaluation domains: on every
// testdata kernel (loops, if, local arrays, sqrt and sgn), on the while
// kernel, and on randomly generated straight-line kernels, the lifted
// specification evaluated on seeded inputs must equal Interp.
func TestLiftInterpAgree(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	srcs := map[string]string{"while": whileSrc}
	paths, err := filepath.Glob("../../testdata/*.dios")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no kernels under testdata (err %v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(src)
	}
	ops := []string{"+", "-", "*"}
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(5)
		src := fmt.Sprintf("kernel k(a[%d]) -> (o[%d]) {\n", n, n)
		for i := 0; i < n; i++ {
			src += fmt.Sprintf("    o[%d] = a[%d] %s a[%d] %s %d.5;\n",
				i, r.Intn(n), ops[r.Intn(len(ops))], r.Intn(n), ops[r.Intn(len(ops))], r.Intn(5))
		}
		srcs[fmt.Sprintf("random %d", trial)] = src + "}\n"
	}
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		k, err := Parse(srcs[name])
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, srcs[name])
		}
		in := map[string][]float64{}
		env := expr.NewEnv()
		for _, p := range k.Params {
			vals := make([]float64, p.Len())
			for i := range vals {
				vals[i] = r.Float64()*4 - 2
			}
			in[p.Name] = vals
			env.Arrays[p.Name] = vals
		}
		got, err := Interp(k, in, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lifted, err := Lift(k)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v, err := lifted.Spec.Eval(env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		i := 0
		for _, p := range k.Outs {
			for j, want := range got[p.Name] {
				if lv := v.Elems[i]; !(math.Abs(lv-want) <= 1e-9*math.Max(1, math.Abs(want))) { // NaN fails
					t.Errorf("%s: %s[%d]: lift %g vs interp %g", name, p.Name, j, lv, want)
				}
				i++
			}
		}
	}
}

// TestLiftFolds pins the scalar identities the symbolic domain folds as it
// builds the spec, the only place they are applied: each row lifts a
// one-line kernel and compares its spec exactly. The last rows stay
// unfolded, because folding them would put Inf or NaN in the spec or drop
// a subtraction of two different values.
func TestLiftFolds(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{"a[0] + 0.0", "(List (Get a 0))"},
		{"a[0] * 1.0", "(List (Get a 0))"},
		{"a[0] * 0.0", "(List 0)"},
		{"a[0] - a[0]", "(List 0)"},
		{"-(-a[0])", "(List (Get a 0))"},
		{"2.0 + 3.0", "(List 5)"},
		{"sqrt(9.0)", "(List 3)"},

		{"1.0 / 0.0", "(List (/ 1 0))"},
		{"sqrt(-1.0)", "(List (sqrt -1))"},
		{"1e308 * 10.0", "(List (* 1e+308 10))"},
		{"a[0] - a[1]", "(List (- (Get a 0) (Get a 1)))"},
	} {
		l, err := Lift(MustParse("kernel k(a[2]) -> (o[1]) { o[0] = " + tc.body + "; }"))
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if got := l.Spec.String(); got != tc.want {
			t.Errorf("%s: spec %s, want %s", tc.body, got, tc.want)
		}
	}
}
