package frontend_test

import (
	"math"
	"math/rand"
	"testing"

	"diospyros/internal/expr"
	"diospyros/internal/frontend"
	"diospyros/internal/kernels"
)

// The suite kernels are frontend sources that package kernels lifts, so
// these tests check the frontend against specifications written without
// it: built in Go from expr constructors, sharing neither the frontend's
// walker nor its folds.

// buildMatMul is the spec of the m×n by n×p product a·b: each element of
// c sums its products left to right, starting at the first.
func buildMatMul(m, n, p int) *expr.Expr {
	var elems []*expr.Expr
	for i := 0; i < m; i++ {
		for j := 0; j < p; j++ {
			acc := expr.Mul(expr.Get("a", i*n), expr.Get("b", j))
			for k := 1; k < n; k++ {
				acc = expr.Add(acc, expr.Mul(expr.Get("a", i*n+k), expr.Get("b", k*p+j)))
			}
			elems = append(elems, acc)
		}
	}
	return expr.List(elems...)
}

// buildConv2D is the spec of the padded 2-D convolution of an ir×ic
// input i with an fr×fc filter f: each output element sums the products
// that land on it in loop order, starting at the first.
func buildConv2D(ir, ic, fr, fc int) *expr.Expr {
	var elems []*expr.Expr
	for oRow := 0; oRow < ir+fr-1; oRow++ {
		for oCol := 0; oCol < ic+fc-1; oCol++ {
			var acc *expr.Expr
			for fRow := 0; fRow < fr; fRow++ {
				for fCol := 0; fCol < fc; fCol++ {
					fRT, fCT := fr-1-fRow, fc-1-fCol
					iRow, iCol := oRow-fRT, oCol-fCT
					if iRow < 0 || iRow >= ir || iCol < 0 || iCol >= ic {
						continue
					}
					p := expr.Mul(expr.Get("i", iRow*ic+iCol), expr.Get("f", fRT*fc+fCT))
					if acc == nil {
						acc = p
					} else {
						acc = expr.Add(acc, p)
					}
				}
			}
			elems = append(elems, acc)
		}
	}
	return expr.List(elems...)
}

func TestInterpMatmul(t *testing.T) {
	k := frontend.MustParse(kernels.MatMulSrc(2, 3, 3))
	r := rand.New(rand.NewSource(1))
	a := make([]float64, 6)
	b := make([]float64, 9)
	for i := range a {
		a[i] = r.Float64()
	}
	for i := range b {
		b[i] = r.Float64()
	}
	out, err := frontend.Interp(k, map[string][]float64{"a": a, "b": b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := kernels.MatMulRef(2, 3, 3, a, b)
	for i := range want {
		if math.Abs(out["c"][i]-want[i]) > 1e-12 {
			t.Fatalf("c[%d] = %g, want %g", i, out["c"][i], want[i])
		}
	}
}

func TestLiftMatmulMatchesBuilderKernel(t *testing.T) {
	lifted, err := frontend.Lift(frontend.MustParse(kernels.MatMulSrc(2, 3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lifted.Spec.String(), buildMatMul(2, 3, 3).String(); got != want {
		t.Fatalf("frontend lift != reference spec:\n got %s\nwant %s", got, want)
	}
}

func TestLiftConvMatchesBuilderKernel(t *testing.T) {
	lifted, err := frontend.Lift(frontend.MustParse(kernels.Conv2DSrc(3, 5, 3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lifted.Spec.String(), buildConv2D(3, 5, 3, 3).String(); got != want {
		t.Fatalf("frontend conv lift != reference spec:\n got %s\nwant %s", got, want)
	}
}
