// Package eigenlite is a portable linear-algebra library in the role of
// Eigen in the paper's evaluation (§5.2, §5.7): idiomatic, size-templated
// scalar code with no target-specific intrinsics. Kernels are expressed in
// the frontend language (instantiated per size, the way C++ templates are)
// and compiled for FG3-lite by the baseline compiler; host float64
// reference implementations back the numerical tests and the Theia case
// study. The library's quaternion product is the naive source itself
// (kernels.QProdSrc): straight-line code leaves a template library
// nothing to add.
package eigenlite

import "fmt"

// MatMulSrc instantiates the library's m×n · n×p matrix product.
// Accumulation happens in a register temporary (Eigen's expression
// templates produce this form), unlike the naive reference which
// accumulates through memory.
func MatMulSrc(m, n, p int) string {
	return fmt.Sprintf(`
kernel eigen_matmul(a[%d][%d], b[%d][%d]) -> (c[%d][%d]) {
    for i in 0..%d {
        for j in 0..%d {
            let acc = 0.0;
            for k in 0..%d {
                acc = acc + a[i][k] * b[k][j];
            }
            c[i][j] = acc;
        }
    }
}
`, m, n, n, p, m, p, m, p, n)
}

// Conv2DSrc instantiates the library's padded 2-D convolution (same
// semantics as the paper's §2 kernel).
func Conv2DSrc(ir, ic, fr, fc int) string {
	or, oc := ir+fr-1, ic+fc-1
	return fmt.Sprintf(`
kernel eigen_conv2d(i[%d][%d], f[%d][%d]) -> (o[%d][%d]) {
    for oRow in 0..%d {
        for oCol in 0..%d {
            let acc = 0.0;
            for fRow in 0..%d {
                for fCol in 0..%d {
                    let fRT = %d - 1 - fRow;
                    let fCT = %d - 1 - fCol;
                    let iRow = oRow - fRT;
                    let iCol = oCol - fCT;
                    if iRow >= 0 && iRow < %d && iCol >= 0 && iCol < %d {
                        acc = acc + i[iRow][iCol] * f[fRT][fCT];
                    }
                }
            }
            o[oRow][oCol] = acc;
        }
    }
}
`, ir, ic, fr, fc, or, oc, or, oc, fr, fc, fr, fc, ir, ic)
}

// QRSrc instantiates the library's n×n Householder QR decomposition
// (A = Q·R), the same algorithm as the lifted Diospyros kernel (§5.7).
// Faithful to Eigen's HouseholderQR numerics, each pivot column norm is a
// *stable* norm: a scan for the largest magnitude, a scaled
// sum-of-squares, and a rescale — robustness the template library pays for
// on every call and a specialized kernel does not need (a large part of
// why the paper finds Eigen's 3×3 QR dominating the camera-model profile).
func QRSrc(n int) string {
	return fmt.Sprintf(`
kernel eigen_qr(a[%d][%d]) -> (q[%d][%d], r[%d][%d]) {
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
        let scale = 0.000000000000000000001;
        for i in k..%d {
            let m = abs(r[i][k]);
            if m > scale {
                scale = m;
            }
        }
        let norm2 = 0.0;
        for i in k..%d {
            let x = r[i][k] / scale;
            norm2 = norm2 + x * x;
        }
        let alpha = 0.0 - sgn(r[k][k]) * scale * sqrt(norm2);
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
`, n, n, n, n, n, n, n, n, n, n-1, n, n, n, n, n, n, n, n, n, n)
}
