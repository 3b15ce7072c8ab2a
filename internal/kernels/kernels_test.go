package kernels

import (
	"math"
	"math/rand"
	"testing"

	"diospyros/internal/expr"
	"diospyros/internal/kernel"
)

func randSlice(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.Float64()*4 - 2
	}
	return s
}

// liftEval evaluates a lifted spec on an environment.
func liftEval(t *testing.T, l *kernel.Lifted, env *expr.Env) []float64 {
	t.Helper()
	v, err := l.Spec.Eval(env)
	if err != nil {
		t.Fatalf("%s: eval: %v", l.Name, err)
	}
	if len(v.Elems) != l.OutputLen() {
		t.Fatalf("%s: spec has %d elems, metadata says %d", l.Name, len(v.Elems), l.OutputLen())
	}
	return v.Elems
}

func almostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatMulLiftMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, sz := range [][3]int{{2, 2, 2}, {2, 3, 3}, {3, 3, 3}, {4, 4, 4}, {1, 5, 2}} {
		m, n, p := sz[0], sz[1], sz[2]
		l := MatMul(m, n, p)
		if l.OutputLen() != m*p {
			t.Fatalf("matmul %v: OutputLen = %d", sz, l.OutputLen())
		}
		for trial := 0; trial < 3; trial++ {
			a, b := randSlice(r, m*n), randSlice(r, n*p)
			env := expr.NewEnv()
			env.Arrays["a"], env.Arrays["b"] = a, b
			got := liftEval(t, l, env)
			want := MatMulRef(m, n, p, a, b)
			if !almostEqual(got, want, 1e-12) {
				t.Fatalf("matmul %v: lift %v != ref %v", sz, got, want)
			}
		}
	}
}

// TestConvSpecMatchesPaperExample checks the lifted specification of the
// §2 example (3×5 input, 3×3 filter) against the four expressions printed
// in the paper for the first four output values.
func TestConvSpecMatchesPaperExample(t *testing.T) {
	l := Conv2D(3, 5, 3, 3)
	if l.OutputLen() != 5*7 {
		t.Fatalf("conv output len = %d, want 35", l.OutputLen())
	}
	// The paper's §2 lists "the first four values of the output matrix" as
	// starting with i00×f11 + i01×f10 + i10×f01 + i11×f00 — which under the
	// loop nest it prints is output element o[1][1] (the first four
	// *interior* values; the literal o[0][0] is the single corner product
	// i00×f00). Check o[1][1] (flat index 1*7+1 = 8) against the paper's
	// expression, flattened: i[r][c] = Get i (5r+c), f[r][c] = Get f (3r+c).
	want0 := "(+ (+ (+ (* (Get i 0) (Get f 4)) (* (Get i 1) (Get f 3))) (* (Get i 5) (Get f 1))) (* (Get i 6) (Get f 0)))"
	got0 := l.Spec.Args[8].String()
	if got0 != want0 {
		t.Errorf("o[1][1]:\n got %s\nwant %s", got0, want0)
	}
	if got := l.Spec.Args[0].String(); got != "(* (Get i 0) (Get f 0))" {
		t.Errorf("o[0][0] = %s, want the corner product", got)
	}
	// The paper's second displayed value (o[1][2]) has 6 products.
	var products func(*expr.Expr) int
	products = func(e *expr.Expr) int {
		n := 0
		if e.Op == expr.OpMul {
			n = 1
		}
		for _, a := range e.Args {
			n += products(a)
		}
		return n
	}
	if prodCount := products(l.Spec.Args[9]); prodCount != 6 {
		t.Errorf("second output has %d products, want 6", prodCount)
	}
}

func TestConvLiftMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, sz := range [][4]int{{3, 3, 2, 2}, {3, 5, 3, 3}, {4, 4, 3, 3}, {8, 8, 3, 3}} {
		ir, ic, fr, fc := sz[0], sz[1], sz[2], sz[3]
		l := Conv2D(ir, ic, fr, fc)
		in, f := randSlice(r, ir*ic), randSlice(r, fr*fc)
		env := expr.NewEnv()
		env.Arrays["i"], env.Arrays["f"] = in, f
		got := liftEval(t, l, env)
		want := Conv2DRef(ir, ic, fr, fc, in, f)
		if !almostEqual(got, want, 1e-12) {
			t.Fatalf("conv %v mismatch", sz)
		}
	}
}

func TestQProdLiftMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	l := QProd()
	if l.OutputLen() != 7 {
		t.Fatalf("qprod output len = %d, want 7", l.OutputLen())
	}
	for trial := 0; trial < 5; trial++ {
		aq, at := randSlice(r, 4), randSlice(r, 3)
		bq, bt := randSlice(r, 4), randSlice(r, 3)
		env := expr.NewEnv()
		env.Arrays["aq"], env.Arrays["at"] = aq, at
		env.Arrays["bq"], env.Arrays["bt"] = bq, bt
		got := liftEval(t, l, env)
		rq, rt := QProdRef(aq, at, bq, bt)
		want := append(append([]float64{}, rq...), rt...)
		if !almostEqual(got, want, 1e-12) {
			t.Fatalf("qprod: lift %v != ref %v", got, want)
		}
	}
}

// QProd composition sanity: rotating by a unit quaternion preserves norm.
func TestQProdRotationPreservesNorm(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		q := randSlice(r, 4)
		n := math.Sqrt(q[0]*q[0] + q[1]*q[1] + q[2]*q[2] + q[3]*q[3])
		for i := range q {
			q[i] /= n
		}
		tvec := randSlice(r, 3)
		_, rt := QProdRef(q, []float64{0, 0, 0}, []float64{1, 0, 0, 0}, tvec)
		n1 := math.Sqrt(tvec[0]*tvec[0] + tvec[1]*tvec[1] + tvec[2]*tvec[2])
		n2 := math.Sqrt(rt[0]*rt[0] + rt[1]*rt[1] + rt[2]*rt[2])
		if math.Abs(n1-n2) > 1e-9 {
			t.Fatalf("rotation changed norm: %g -> %g", n1, n2)
		}
	}
}

func TestQRDecompRefReconstructs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3, 4, 5} {
		for trial := 0; trial < 3; trial++ {
			a := randSlice(r, n*n)
			q, rr := QRDecompRef(n, a)
			// A = Q·R.
			qr := MatMulRef(n, n, n, q, rr)
			if !almostEqual(qr, a, 1e-9) {
				t.Fatalf("n=%d: Q*R != A", n)
			}
			// Q orthogonal: QᵀQ = I.
			qt := make([]float64, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					qt[j*n+i] = q[i*n+j]
				}
			}
			qtq := MatMulRef(n, n, n, qt, q)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := 0.0
					if i == j {
						want = 1
					}
					if math.Abs(qtq[i*n+j]-want) > 1e-9 {
						t.Fatalf("n=%d: QtQ[%d][%d] = %g", n, i, j, qtq[i*n+j])
					}
				}
			}
			// R right-triangular.
			for i := 1; i < n; i++ {
				for j := 0; j < i; j++ {
					if math.Abs(rr[i*n+j]) > 1e-9 {
						t.Fatalf("n=%d: R[%d][%d] = %g, want ~0", n, i, j, rr[i*n+j])
					}
				}
			}
		}
	}
}

func TestQRDecompLiftMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, n := range []int{2, 3} {
		l := QRDecomp(n)
		if l.OutputLen() != 2*n*n {
			t.Fatalf("qr %d output len = %d", n, l.OutputLen())
		}
		a := randSlice(r, n*n)
		env := expr.NewEnv()
		env.Arrays["a"] = a
		got := liftEval(t, l, env)
		q, rr := QRDecompRef(n, a)
		want := append(append([]float64{}, q...), rr...)
		if !almostEqual(got, want, 1e-9) {
			t.Fatalf("qr %d: lift %v != ref %v", n, got, want)
		}
	}
}

func TestQRDecomp4x4LiftsWithoutBlowup(t *testing.T) {
	// The 4×4 QR spec is huge as a tree but must stay polynomial as a DAG
	// and still evaluate correctly (DAG-memoized evaluation).
	l := QRDecomp(4)
	r := rand.New(rand.NewSource(7))
	a := randSlice(r, 16)
	env := expr.NewEnv()
	env.Arrays["a"] = a
	got := liftEval(t, l, env)
	q, rr := QRDecompRef(4, a)
	want := append(append([]float64{}, q...), rr...)
	if !almostEqual(got, want, 1e-8) {
		t.Fatal("4x4 qr lift mismatch")
	}
}

// TestBuilderPeephole checks the identity folds lift applies as it
// builds a spec: an identity returns its operand itself (the same node)
// and 0·x a fresh zero.
func TestBuilderPeephole(t *testing.T) {
	cases := []struct{ body, want string }{
		{"0.0 + a[0]", "(Get a 0)"},
		{"a[0] + 0.0", "(Get a 0)"},
		{"a[0] - 0.0", "(Get a 0)"},
		{"0.0 - a[0]", "(- 0 (Get a 0))"},
		{"1.0 * a[0]", "(Get a 0)"},
		{"a[0] * 1.0", "(Get a 0)"},
		{"a[0] / 1.0", "(Get a 0)"},
		{"1.0 / a[0]", "(/ 1 (Get a 0))"},
		{"0.0 * a[0]", "0"},
		{"a[0] * 0.0", "0"},
		{"2.0 + 3.0", "5"},
	}
	for _, c := range cases {
		l := lift("peep", "kernel peep(a[1]) -> (o[2]) { o[0] = "+c.body+"; o[1] = a[0]; }")
		got := l.Spec.Args[0]
		if got.String() != c.want {
			t.Errorf("%s = %s, want %s", c.body, got, c.want)
		}
		if c.want == "(Get a 0)" && got != l.Spec.Args[1] {
			t.Errorf("%s is not the node a[0] reads", c.body)
		}
	}
}
