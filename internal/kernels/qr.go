package kernels

import (
	"fmt"
	"math"

	"diospyros/internal/kernel"
)

// QRDecompSrc is the plain n×n Householder QR decomposition: A = Q·R with
// Q orthogonal and R right-triangular (paper §5.7 uses the same Householder
// algorithm; compare eigenlite.QRSrc, which adds Eigen's stable-norm
// passes). The fully unrolled symbolic form grows very quickly with n —
// the paper's 4×4 instance produced a 509 MB specification text and timed
// out in saturation; here the lifted expression is a shared DAG, but its
// e-graph is still by far the largest of the suite.
func QRDecompSrc(n int) string {
	return fmt.Sprintf(`
kernel qrdecomp(a[%d][%d]) -> (q[%d][%d], r[%d][%d]) {
    for i in 0..%d {
        for j in 0..%d {
            r[i][j] = a[i][j];
            if i == j {
                q[i][j] = 1.0;
            } else {
                q[i][j] = 0.0;
            }
        }
    }
    var v[%d];
    for k in 0..%d {
        let norm2 = 0.0;
        for i in k..%d {
            norm2 = norm2 + r[i][k] * r[i][k];
        }
        let alpha = -(sgn(r[k][k]) * sqrt(norm2));
        for i in 0..%d {
            if i < k {
                v[i] = 0.0;
            } else if i == k {
                v[i] = r[k][k] - alpha;
            } else {
                v[i] = r[i][k];
            }
        }
        let vnorm2 = 0.0;
        for i in k..%d {
            vnorm2 = vnorm2 + v[i] * v[i];
        }
        let beta = 2.0 / vnorm2;
        for j in 0..%d {
            let dot = 0.0;
            for i in k..%d {
                dot = dot + v[i] * r[i][j];
            }
            let s = beta * dot;
            for i in k..%d {
                r[i][j] = r[i][j] - v[i] * s;
            }
        }
        for i in 0..%d {
            let dot = 0.0;
            for j in k..%d {
                dot = dot + q[i][j] * v[j];
            }
            let s = beta * dot;
            for j in k..%d {
                q[i][j] = q[i][j] - v[j] * s;
            }
        }
    }
}
`, n, n, n, n, n, n, n, n, n, n-1, n, n, n, n, n, n, n, n, n)
}

// QRDecomp lifts QRDecompSrc(n).
func QRDecomp(n int) *kernel.Lifted {
	return lift(fmt.Sprintf("qrdecomp_%dx%d", n, n), QRDecompSrc(n))
}

// QRDecompRef computes the same Householder QR over concrete data,
// returning Q and R (row-major n×n). It follows the lifted algorithm
// step for step, including sgn(0)=1, so results match symbolically lifted
// code to rounding error.
func QRDecompRef(n int, a []float64) (qOut, rOut []float64) {
	r := make([]float64, n*n)
	q := make([]float64, n*n)
	copy(r, a)
	for i := 0; i < n; i++ {
		q[i*n+i] = 1
	}
	v := make([]float64, n)
	for k := 0; k < n-1; k++ {
		norm2 := 0.0
		for i := k; i < n; i++ {
			norm2 += r[i*n+k] * r[i*n+k]
		}
		norm := math.Sqrt(norm2)
		sign := 1.0
		if r[k*n+k] < 0 {
			sign = -1
		}
		alpha := -sign * norm
		for i := 0; i < n; i++ {
			switch {
			case i < k:
				v[i] = 0
			case i == k:
				v[i] = r[k*n+k] - alpha
			default:
				v[i] = r[i*n+k]
			}
		}
		vnorm2 := 0.0
		for i := k; i < n; i++ {
			vnorm2 += v[i] * v[i]
		}
		beta := 2 / vnorm2
		for j := 0; j < n; j++ {
			dot := 0.0
			for i := k; i < n; i++ {
				dot += v[i] * r[i*n+j]
			}
			s := beta * dot
			for i := k; i < n; i++ {
				r[i*n+j] -= v[i] * s
			}
		}
		for i := 0; i < n; i++ {
			dot := 0.0
			for j := k; j < n; j++ {
				dot += q[i*n+j] * v[j]
			}
			s := beta * dot
			for j := k; j < n; j++ {
				q[i*n+j] -= v[j] * s
			}
		}
	}
	return q, r
}
