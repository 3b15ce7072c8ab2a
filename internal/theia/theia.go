// Package theia reproduces the paper's application case study (§5.7): the
// camera-model initialization of the Theia structure-from-motion library.
// DecomposeProjectionMatrix takes a 3×4 projection matrix P and recovers
// the calibration matrix K, the rotation R, and the camera center c:
//
//   - K and R come from an RQ decomposition of the left 3×3 block M, whose
//     core is a 3×3 Householder QR;
//   - the rotation estimate is projected onto SO(3) with a Jacobi SVD
//     (cheap here, since the input is already near-orthogonal);
//   - the center solves M·c = −p₄, again via a 3×3 QR plus back
//     substitution.
//
// The 3×3 QR is thus the hot small fixed-size kernel of the computation —
// the one the paper swaps for a Diospyros-compiled version to obtain its
// end-to-end speedup. The whole pipeline runs on the FG3-lite simulator;
// VariantEigen uses the portable scalar library QR (with Eigen's
// stable-norm numerics), VariantDiospyros the equality-saturation-compiled
// kernel.
package theia

import (
	"fmt"
	"math"
	"sync"

	diospyros "diospyros"
	"diospyros/internal/eigenlite"
	"diospyros/internal/kcc"
	"diospyros/internal/kernels"
	"diospyros/internal/sim"
)

// Variant selects the implementation of the 3×3 QR kernel.
type Variant int

const (
	// VariantEigen uses the portable scalar library QR.
	VariantEigen Variant = iota
	// VariantDiospyros uses the equality-saturation-compiled QR.
	VariantDiospyros
)

func (v Variant) String() string {
	if v == VariantDiospyros {
		return "diospyros"
	}
	return "eigen"
}

// Result is a decomposition with its simulated cost breakdown.
type Result struct {
	K      []float64 // 3×3 calibration, upper triangular, K[2][2] = 1
	R      []float64 // 3×3 rotation
	Center []float64 // camera center (3)

	TotalCycles int64
	QRCycles    int64 // cycles spent in the two 3×3 QR calls
	StepCycles  map[string]int64
}

const extract3Src = `
kernel extract3(p[3][4]) -> (m[3][3]) {
    for i in 0..3 {
        for j in 0..3 {
            m[i][j] = p[i][j];
        }
    }
}
`

const rqpreSrc = `
kernel rqpre(p[3][4]) -> (mt[3][3]) {
    for i in 0..3 {
        for j in 0..3 {
            mt[i][j] = p[2-j][i];
        }
    }
}
`

const rqpostSrc = `
kernel rqpost(q[3][3], r[3][3]) -> (kk[3][3], rot[3][3]) {
    for i in 0..3 {
        for j in 0..3 {
            kk[i][j] = r[2-j][2-i];
            rot[i][j] = q[j][2-i];
        }
    }
    for d in 0..3 {
        if kk[d][d] < 0.0 {
            for i in 0..3 {
                kk[i][d] = 0.0 - kk[i][d];
                rot[d][i] = 0.0 - rot[d][i];
            }
        }
    }
    let s = kk[2][2];
    for i in 0..3 {
        for j in 0..3 {
            kk[i][j] = kk[i][j] / s;
        }
    }
}
`

// gramSrc computes A = R₀ᵀ·R₀ for the rotation projection.
const gramSrc = `
kernel gram(r0[3][3]) -> (a[3][3]) {
    for i in 0..3 {
        for j in 0..3 {
            let acc = 0.0;
            for k in 0..3 {
                acc = acc + r0[k][i] * r0[k][j];
            }
            a[i][j] = acc;
        }
    }
}
`

// rotprojSrc projects R₀ onto SO(3): R = R₀·V·diag(1/√λ)·Vᵀ where
// (λ, V) eigendecompose R₀ᵀR₀ (equivalently R = U·Vᵀ from the SVD of R₀).
const rotprojSrc = `
kernel rotproj(r0[3][3], vals[3], vecs[3][3]) -> (rot[3][3]) {
    var w[3][3];
    for i in 0..3 {
        for j in 0..3 {
            let acc = 0.0;
            for k in 0..3 {
                acc = acc + vecs[i][k] * vecs[j][k] / sqrt(vals[k]);
            }
            w[i][j] = acc;
        }
    }
    for i in 0..3 {
        for j in 0..3 {
            let acc = 0.0;
            for k in 0..3 {
                acc = acc + r0[i][k] * w[k][j];
            }
            rot[i][j] = acc;
        }
    }
}
`

// backsubSrc solves M·c = −p₄ given M = Q·R: y = −Qᵀ·p₄, then back
// substitution through upper-triangular R.
const backsubSrc = `
kernel backsub(q[3][3], r[3][3], p[3][4]) -> (c[3]) {
    var y[3];
    for i in 0..3 {
        let acc = 0.0;
        for k in 0..3 {
            acc = acc - q[k][i] * p[k][3];
        }
        y[i] = acc;
    }
    c[2] = y[2] / r[2][2];
    c[1] = (y[1] - r[1][2]*c[2]) / r[1][1];
    c[0] = (y[0] - r[0][1]*c[1] - r[0][2]*c[2]) / r[0][0];
}
`

// pipeline holds the compiled routines, built once.
type pipeline struct {
	extract3, rqpre, rqpost        *kcc.Routine
	gram, jacobi, rotproj, backsub *kcc.Routine
	eigenQR                        *kcc.Routine
	diosQR                         *diospyros.Result
}

var (
	pipeOnce sync.Once
	pipe     *pipeline
	pipeErr  error
)

func getPipeline() (*pipeline, error) {
	pipeOnce.Do(func() {
		p := &pipeline{}
		steps := []struct {
			dst **kcc.Routine
			src string
		}{
			{&p.extract3, extract3Src},
			{&p.rqpre, rqpreSrc},
			{&p.rqpost, rqpostSrc},
			{&p.gram, gramSrc},
			{&p.jacobi, eigenlite.JacobiSrc(3)},
			{&p.rotproj, rotprojSrc},
			{&p.backsub, backsubSrc},
			{&p.eigenQR, eigenlite.QRSrc(3)},
		}
		for _, s := range steps {
			rt, err := kcc.Build(s.src, kcc.Parametric)
			if err != nil {
				pipeErr = err
				return
			}
			*s.dst = rt
		}
		res, err := diospyros.Compile(kernels.QRDecomp(3), diospyros.Options{})
		if err != nil {
			pipeErr = err
			return
		}
		p.diosQR = res
		pipe = p
	})
	return pipe, pipeErr
}

// Decompose runs DecomposeProjectionMatrix on the simulator.
func Decompose(p []float64, variant Variant) (*Result, error) {
	if len(p) != 12 {
		return nil, fmt.Errorf("theia: projection matrix must be 3×4 (12 elements), got %d", len(p))
	}
	pl, err := getPipeline()
	if err != nil {
		return nil, err
	}
	res := &Result{StepCycles: map[string]int64{}}
	add := func(name string, s *sim.Result) {
		res.StepCycles[name] += s.Cycles
		res.TotalCycles += s.Cycles
	}
	qr := func(a []float64) (q, r []float64, err error) {
		if variant == VariantDiospyros {
			outs, sres, err := pl.diosQR.Run(map[string][]float64{"a": a}, nil)
			if err != nil {
				return nil, nil, err
			}
			add("qr3x3", sres)
			res.QRCycles += sres.Cycles
			return outs["q"], outs["r"], nil
		}
		outs, sres, err := pl.eigenQR.Run(map[string][]float64{"a": a})
		if err != nil {
			return nil, nil, err
		}
		add("qr3x3", sres)
		res.QRCycles += sres.Cycles
		return outs["q"], outs["r"], nil
	}

	// 1. RQ decomposition of the left 3×3 block.
	pre, s, err := pl.rqpre.Run(map[string][]float64{"p": p})
	if err != nil {
		return nil, err
	}
	add("rq-permute", s)
	q1, r1, err := qr(pre["mt"])
	if err != nil {
		return nil, err
	}
	post, s, err := pl.rqpost.Run(map[string][]float64{"q": q1, "r": r1})
	if err != nil {
		return nil, err
	}
	add("rq-post", s)
	res.K = post["kk"]

	// 2. Project the rotation estimate onto SO(3) (Jacobi SVD step).
	g, s, err := pl.gram.Run(map[string][]float64{"r0": post["rot"]})
	if err != nil {
		return nil, err
	}
	add("gram", s)
	eig, s, err := pl.jacobi.Run(map[string][]float64{"a": g["a"]})
	if err != nil {
		return nil, err
	}
	add("jacobi-svd", s)
	rp, s, err := pl.rotproj.Run(map[string][]float64{
		"r0": post["rot"], "vals": eig["vals"], "vecs": eig["vecs"]})
	if err != nil {
		return nil, err
	}
	add("rot-project", s)
	res.R = rp["rot"]

	// 3. Camera center: solve M·c = −p₄ via a second QR.
	m3, s, err := pl.extract3.Run(map[string][]float64{"p": p})
	if err != nil {
		return nil, err
	}
	add("extract", s)
	q2, r2, err := qr(m3["m"])
	if err != nil {
		return nil, err
	}
	bs, s, err := pl.backsub.Run(map[string][]float64{"q": q2, "r": r2, "p": p})
	if err != nil {
		return nil, err
	}
	add("back-substitute", s)
	res.Center = bs["c"]
	return res, nil
}

// DecomposeRef is the host float64 reference of the same computation.
func DecomposeRef(p []float64) (k, r, center []float64) {
	// RQ of the left 3×3 block.
	mm := make([]float64, 9)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			mm[i*3+j] = p[i*4+j]
		}
	}
	k, r0 := eigenlite.RQ3x3Ref(mm, func(a []float64) ([]float64, []float64) {
		return kernels.QRDecompRef(3, a)
	})
	for d := 0; d < 3; d++ {
		if k[d*3+d] < 0 {
			for i := 0; i < 3; i++ {
				k[i*3+d] = -k[i*3+d]
				r0[d*3+i] = -r0[d*3+i]
			}
		}
	}
	s := k[8]
	for i := range k {
		k[i] /= s
	}

	// Rotation projection R = R0 · V · diag(1/√λ) · Vᵀ, (λ,V) from R0ᵀR0.
	gram := make([]float64, 9)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for kk := 0; kk < 3; kk++ {
				gram[i*3+j] += r0[kk*3+i] * r0[kk*3+j]
			}
		}
	}
	vals, vecs := eigenlite.JacobiEigenRef(3, gram)
	w := make([]float64, 9)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for kk := 0; kk < 3; kk++ {
				w[i*3+j] += vecs[i*3+kk] * vecs[j*3+kk] / math.Sqrt(vals[kk])
			}
		}
	}
	r = make([]float64, 9)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for kk := 0; kk < 3; kk++ {
				r[i*3+j] += r0[i*3+kk] * w[kk*3+j]
			}
		}
	}

	// Center: M·c = −p₄ by QR + back substitution.
	q2, r2 := kernels.QRDecompRef(3, mm)
	y := make([]float64, 3)
	for i := 0; i < 3; i++ {
		for kk := 0; kk < 3; kk++ {
			y[i] -= q2[kk*3+i] * p[kk*4+3]
		}
	}
	center = make([]float64, 3)
	center[2] = y[2] / r2[8]
	center[1] = (y[1] - r2[5]*center[2]) / r2[4]
	center[0] = (y[0] - r2[1]*center[1] - r2[2]*center[2]) / r2[0]
	return k, r, center
}
