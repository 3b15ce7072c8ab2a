// Package kernels defines the benchmark kernels of the paper's evaluation
// (Table 1): fixed-size 2-D convolution, matrix multiply, quaternion
// (Euclidean Lie group) product, and QR decomposition. Each kernel is one
// naive frontend source, the straightforward loop nest that the paper's
// Naive baselines compile with xt-xcc (§5.2) and that Diospyros lifts to
// the vector DSL by symbolic evaluation (§3.1), so both see the same
// program. Plain float64 references back differential testing.
package kernels

import (
	"fmt"

	"diospyros/internal/frontend"
	"diospyros/internal/kernel"
)

// lift lifts one of the package's sources under the given name, which
// becomes the C function name of the compiled kernel; the source keeps its
// own name, which names its baseline program. The sources are fixed, so
// an error is a bug in this package.
func lift(name, src string) *kernel.Lifted {
	l, err := frontend.Lift(frontend.MustParse(src))
	if err != nil {
		panic(fmt.Sprintf("kernels: %s: %v", name, err))
	}
	l.Name = name
	return l
}

// MatMulSrc is the naive m×n by n×p matrix multiply. It accumulates
// through memory, unlike eigenlite.MatMulSrc, which accumulates in a
// register temporary.
func MatMulSrc(m, n, p int) string {
	return fmt.Sprintf(`
kernel matmul(a[%d][%d], b[%d][%d]) -> (c[%d][%d]) {
    for i in 0..%d {
        for j in 0..%d {
            c[i][j] = 0.0;
            for k in 0..%d {
                c[i][j] = c[i][j] + a[i][k] * b[k][j];
            }
        }
    }
}
`, m, n, n, p, m, p, m, p, n)
}

// MatMul lifts MatMulSrc(m, n, p).
func MatMul(m, n, p int) *kernel.Lifted {
	return lift(fmt.Sprintf("matmul_%dx%d_%dx%d", m, n, n, p), MatMulSrc(m, n, p))
}

// MatMulRef computes the same product over concrete data (row-major).
func MatMulRef(m, n, p int, a, b []float64) []float64 {
	c := make([]float64, m*p)
	for i := 0; i < m; i++ {
		for j := 0; j < p; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*p+j]
			}
			c[i*p+j] = s
		}
	}
	return c
}

// Conv2DSrc is the paper's §2 motivating kernel: 2-D convolution of an
// ir×ic input with an fr×fc filter, producing a padded
// (ir+fr−1)×(ic+fc−1) output. The filter transposition (fRT, fCT) and the
// boundary-condition if mirror the paper's C code exactly.
func Conv2DSrc(ir, ic, fr, fc int) string {
	or, oc := ir+fr-1, ic+fc-1
	return fmt.Sprintf(`
kernel conv2d(i[%d][%d], f[%d][%d]) -> (o[%d][%d]) {
    for oRow in 0..%d {
        for oCol in 0..%d {
            for fRow in 0..%d {
                for fCol in 0..%d {
                    let fRT = %d - 1 - fRow;
                    let fCT = %d - 1 - fCol;
                    let iRow = oRow - fRT;
                    let iCol = oCol - fCT;
                    if iRow >= 0 && iRow < %d && iCol >= 0 && iCol < %d {
                        o[oRow][oCol] = o[oRow][oCol] + i[iRow][iCol] * f[fRT][fCT];
                    }
                }
            }
        }
    }
}
`, ir, ic, fr, fc, or, oc, or, oc, fr, fc, fr, fc, ir, ic)
}

// Conv2D lifts Conv2DSrc(ir, ic, fr, fc).
func Conv2D(ir, ic, fr, fc int) *kernel.Lifted {
	return lift(fmt.Sprintf("conv2d_%dx%d_%dx%d", ir, ic, fr, fc), Conv2DSrc(ir, ic, fr, fc))
}

// Conv2DRef computes the same convolution over concrete data.
func Conv2DRef(ir, ic, fr, fc int, in, f []float64) []float64 {
	oRows, oCols := ir+fr-1, ic+fc-1
	out := make([]float64, oRows*oCols)
	for oRow := 0; oRow < oRows; oRow++ {
		for oCol := 0; oCol < oCols; oCol++ {
			for fRow := 0; fRow < fr; fRow++ {
				for fCol := 0; fCol < fc; fCol++ {
					fRT := fr - 1 - fRow
					fCT := fc - 1 - fCol
					iRow := oRow - fRT
					iCol := oCol - fCT
					if iRow >= 0 && iRow < ir && iCol >= 0 && iCol < ic {
						out[oRow*oCols+oCol] += in[iRow*ic+iCol] * f[fRT*fc+fCT]
					}
				}
			}
		}
	}
	return out
}

// QProdSrc is the Euclidean Lie group product (paper §5.3): the product of
// two rigid transforms represented as quaternion+translation pairs
// (q1, t1)·(q2, t2) = (q1⊗q2, q1·t2 + t1), where q1·t2 rotates t2 by q1
// as t2 + 2·(u × (u × t2 + w1·t2)) with u = (x1, y1, z1). Quaternions are
// stored (w, x, y, z). The same source serves as the naive and the
// Eigen-library baseline (package eigenlite).
const QProdSrc = `
kernel eigen_qprod(aq[4], at[3], bq[4], bt[3]) -> (rq[4], rt[3]) {
    let w1 = aq[0]; let x1 = aq[1]; let y1 = aq[2]; let z1 = aq[3];
    let w2 = bq[0]; let x2 = bq[1]; let y2 = bq[2]; let z2 = bq[3];
    rq[0] = w1*w2 - x1*x2 - y1*y2 - z1*z2;
    rq[1] = w1*x2 - z1*y2 + x1*w2 + y1*z2;
    rq[2] = w1*y2 - x1*z2 + y1*w2 + z1*x2;
    rq[3] = w1*z2 + x1*y2 - y1*x2 + z1*w2;
    var inner[3];
    inner[0] = y1*bt[2] - z1*bt[1] + w1*bt[0];
    inner[1] = z1*bt[0] - x1*bt[2] + w1*bt[1];
    inner[2] = x1*bt[1] - y1*bt[0] + w1*bt[2];
    var outer[3];
    outer[0] = y1*inner[2] - z1*inner[1];
    outer[1] = z1*inner[0] - x1*inner[2];
    outer[2] = x1*inner[1] - y1*inner[0];
    for k in 0..3 {
        rt[k] = bt[k] + 2.0*outer[k] + at[k];
    }
}
`

// QProd lifts QProdSrc.
func QProd() *kernel.Lifted { return lift("qprod", QProdSrc) }

// QProdRef computes the Euclidean Lie group product over concrete data.
// Layout matches QProd: q = (w, x, y, z).
func QProdRef(aq, at, bq, bt []float64) (rq, rt []float64) {
	w1, x1, y1, z1 := aq[0], aq[1], aq[2], aq[3]
	w2, x2, y2, z2 := bq[0], bq[1], bq[2], bq[3]
	rq = []float64{
		w1*w2 - x1*x2 - y1*y2 - z1*z2,
		w1*x2 - z1*y2 + x1*w2 + y1*z2,
		w1*y2 - x1*z2 + y1*w2 + z1*x2,
		w1*z2 + x1*y2 - y1*x2 + z1*w2,
	}
	u := []float64{x1, y1, z1}
	t := bt
	cross := func(a, b []float64) []float64 {
		return []float64{
			a[1]*b[2] - a[2]*b[1],
			a[2]*b[0] - a[0]*b[2],
			a[0]*b[1] - a[1]*b[0],
		}
	}
	inner := cross(u, t)
	for i := range inner {
		inner[i] += w1 * t[i]
	}
	outer := cross(u, inner)
	rt = make([]float64, 3)
	for i := range rt {
		rt[i] = t[i] + 2*outer[i] + at[i]
	}
	return rq, rt
}
