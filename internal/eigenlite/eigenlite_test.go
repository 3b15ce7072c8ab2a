package eigenlite

import (
	"math"
	"math/rand"
	"testing"

	"diospyros/internal/kcc"
	"diospyros/internal/kernels"
)

func randSlice(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.Float64()*4 - 2
	}
	return s
}

func TestMatMulRoutine(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, sz := range [][3]int{{2, 3, 3}, {4, 4, 4}, {8, 8, 8}} {
		m, n, p := sz[0], sz[1], sz[2]
		rt, err := kcc.Build(MatMulSrc(m, n, p), kcc.Parametric)
		if err != nil {
			t.Fatalf("%v: %v", sz, err)
		}
		a, b := randSlice(r, m*n), randSlice(r, n*p)
		out, res, err := rt.Run(map[string][]float64{"a": a, "b": b})
		if err != nil {
			t.Fatal(err)
		}
		want := kernels.MatMulRef(m, n, p, a, b)
		for i := range want {
			if math.Abs(out["c"][i]-want[i]) > 1e-9 {
				t.Fatalf("%v: c[%d] = %g want %g", sz, i, out["c"][i], want[i])
			}
		}
		if res.Cycles == 0 {
			t.Fatal("no cycles")
		}
	}
}

func TestConv2DRoutine(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, sz := range [][4]int{{3, 5, 3, 3}, {8, 8, 3, 3}} {
		ir, ic, fr, fc := sz[0], sz[1], sz[2], sz[3]
		rt, err := kcc.Build(Conv2DSrc(ir, ic, fr, fc), kcc.Parametric)
		if err != nil {
			t.Fatal(err)
		}
		in, f := randSlice(r, ir*ic), randSlice(r, fr*fc)
		out, _, err := rt.Run(map[string][]float64{"i": in, "f": f})
		if err != nil {
			t.Fatal(err)
		}
		want := kernels.Conv2DRef(ir, ic, fr, fc, in, f)
		for i := range want {
			if math.Abs(out["o"][i]-want[i]) > 1e-9 {
				t.Fatalf("%v: o[%d] = %g want %g", sz, i, out["o"][i], want[i])
			}
		}
	}
}

func TestQProdRoutine(t *testing.T) {
	rt, err := kcc.Build(kernels.QProdSrc, kcc.Parametric)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	aq, at := randSlice(r, 4), randSlice(r, 3)
	bq, bt := randSlice(r, 4), randSlice(r, 3)
	out, _, err := rt.Run(map[string][]float64{"aq": aq, "at": at, "bq": bq, "bt": bt})
	if err != nil {
		t.Fatal(err)
	}
	rq, rtv := kernels.QProdRef(aq, at, bq, bt)
	for i := range rq {
		if math.Abs(out["rq"][i]-rq[i]) > 1e-9 {
			t.Fatalf("rq[%d] = %g want %g", i, out["rq"][i], rq[i])
		}
	}
	for i := range rtv {
		if math.Abs(out["rt"][i]-rtv[i]) > 1e-9 {
			t.Fatalf("rt[%d] = %g want %g", i, out["rt"][i], rtv[i])
		}
	}
}

func TestQRRoutineMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{2, 3, 4} {
		rt, err := kcc.Build(QRSrc(n), kcc.Parametric)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		a := randSlice(r, n*n)
		out, _, err := rt.Run(map[string][]float64{"a": a})
		if err != nil {
			t.Fatal(err)
		}
		q, rr := kernels.QRDecompRef(n, a)
		for i := range q {
			if math.Abs(out["q"][i]-q[i]) > 1e-8 {
				t.Fatalf("n=%d q[%d] = %g want %g", n, i, out["q"][i], q[i])
			}
		}
		for i := range rr {
			if math.Abs(out["r"][i]-rr[i]) > 1e-8 {
				t.Fatalf("n=%d r[%d] = %g want %g", n, i, out["r"][i], rr[i])
			}
		}
	}
}

func TestJacobiRefDiagonalizes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{3, 4} {
		// Symmetric matrix.
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := r.Float64()*4 - 2
				a[i*n+j] = v
				a[j*n+i] = v
			}
		}
		vals, vecs := JacobiEigenRef(n, a)
		// A·v_k = λ_k·v_k for each eigenpair.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				av := 0.0
				for j := 0; j < n; j++ {
					av += a[i*n+j] * vecs[j*n+k]
				}
				if math.Abs(av-vals[k]*vecs[i*n+k]) > 1e-6 {
					t.Fatalf("n=%d eigenpair %d violated: %g vs %g", n, k, av, vals[k]*vecs[i*n+k])
				}
			}
		}
	}
}

func TestJacobiRoutineMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	n := 4
	rt, err := kcc.Build(JacobiSrc(n), kcc.Parametric)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.Float64()*4 - 2
			a[i*n+j] = v
			a[j*n+i] = v
		}
	}
	out, res, err := rt.Run(map[string][]float64{"a": a})
	if err != nil {
		t.Fatal(err)
	}
	vals, vecs := JacobiEigenRef(n, a)
	for i := range vals {
		if math.Abs(out["vals"][i]-vals[i]) > 1e-6 {
			t.Fatalf("vals[%d] = %g want %g", i, out["vals"][i], vals[i])
		}
	}
	for i := range vecs {
		if math.Abs(out["vecs"][i]-vecs[i]) > 1e-6 {
			t.Fatalf("vecs[%d] = %g want %g", i, out["vecs"][i], vecs[i])
		}
	}
	if res.Cycles < 1000 {
		t.Fatalf("Jacobi suspiciously cheap: %d cycles", res.Cycles)
	}
	// Data-dependent control flow: must not compile fixed-size.
	if _, err := kcc.Build(JacobiSrc(n), kcc.FixedSize); err == nil {
		t.Fatal("fixed-size mode accepted the Jacobi sweep loop")
	}
}

func TestRQ3x3Ref(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	qr := func(a []float64) (q, rr []float64) { return kernels.QRDecompRef(3, a) }
	for trial := 0; trial < 10; trial++ {
		m := randSlice(r, 9)
		rr, q := RQ3x3Ref(m, qr)
		// M = R·Q.
		prod := kernels.MatMulRef(3, 3, 3, rr, q)
		for i := range m {
			if math.Abs(prod[i]-m[i]) > 1e-8 {
				t.Fatalf("R*Q != M at %d: %g vs %g", i, prod[i], m[i])
			}
		}
		// R upper triangular.
		for i := 1; i < 3; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(rr[i*3+j]) > 1e-8 {
					t.Fatalf("R[%d][%d] = %g", i, j, rr[i*3+j])
				}
			}
		}
		// Q orthogonal.
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				dot := 0.0
				for k := 0; k < 3; k++ {
					dot += q[i*3+k] * q[j*3+k]
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-8 {
					t.Fatalf("QQt[%d][%d] = %g", i, j, dot)
				}
			}
		}
	}
}
