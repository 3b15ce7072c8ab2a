package frontend_test

import (
	"math"
	"math/rand"
	"testing"

	"diospyros/internal/frontend"
	"diospyros/internal/kernel"
	"diospyros/internal/kernels"
)

// The suite kernels are frontend sources that package kernels lifts, so
// these tests check the frontend against specifications written without
// it: with the kernel builder, in Go.

// builderMatMul builds the m×n by n×p product with the kernel builder.
func builderMatMul(m, n, p int) *kernel.Lifted {
	b := kernel.NewBuilder("matmul")
	A := b.Input("a", m, n)
	B := b.Input("b", n, p)
	C := b.Output("c", m, p)
	for i := 0; i < m; i++ {
		for j := 0; j < p; j++ {
			acc := kernel.Const(0)
			for k := 0; k < n; k++ {
				acc = kernel.Add(acc, kernel.Mul(A.At(i, k), B.At(k, j)))
			}
			C.Set(i, j, acc)
		}
	}
	return b.Lift()
}

// builderConv2D builds the padded 2-D convolution of an ir×ic input with
// an fr×fc filter with the kernel builder.
func builderConv2D(ir, ic, fr, fc int) *kernel.Lifted {
	b := kernel.NewBuilder("conv2d")
	in := b.Input("i", ir, ic)
	f := b.Input("f", fr, fc)
	out := b.Output("o", ir+fr-1, ic+fc-1)
	for oRow := 0; oRow < ir+fr-1; oRow++ {
		for oCol := 0; oCol < ic+fc-1; oCol++ {
			for fRow := 0; fRow < fr; fRow++ {
				for fCol := 0; fCol < fc; fCol++ {
					fRT, fCT := fr-1-fRow, fc-1-fCol
					iRow, iCol := oRow-fRT, oCol-fCT
					if iRow >= 0 && iRow < ir && iCol >= 0 && iCol < ic {
						out.Set(oRow, oCol, kernel.Add(out.At(oRow, oCol),
							kernel.Mul(in.At(iRow, iCol), f.At(fRT, fCT))))
					}
				}
			}
		}
	}
	return b.Lift()
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
	if got, want := lifted.Spec.String(), builderMatMul(2, 3, 3).Spec.String(); got != want {
		t.Fatalf("frontend lift != builder lift:\n got %s\nwant %s", got, want)
	}
}

func TestLiftConvMatchesBuilderKernel(t *testing.T) {
	lifted, err := frontend.Lift(frontend.MustParse(kernels.Conv2DSrc(3, 5, 3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lifted.Spec.String(), builderConv2D(3, 5, 3, 3).Spec.String(); got != want {
		t.Fatalf("frontend conv lift != builder lift")
	}
}
