package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	diospyros "diospyros"
	"diospyros/internal/expert"
	"diospyros/internal/kernels"
	"diospyros/internal/theia"
)

// ExpertResult compares Diospyros against the hand-tuned 2×3·3×3 MatMul
// kernel (§5.4): cycles, compile time, and the vector-operation mix.
type ExpertResult struct {
	DiospyrosCycles int64
	ExpertCycles    int64
	CompileTime     time.Duration
	// Dynamic vector arithmetic operation counts (VMul+VMac etc.).
	DiospyrosVecOps int64
	ExpertVecOps    int64
	GapPercent      float64 // (diospyros-expert)/expert × 100
}

// Expert runs the §5.4 expert comparison.
func Expert(opts diospyros.Options) (*ExpertResult, error) {
	return ExpertContext(context.Background(), opts)
}

// ExpertContext is Expert under a caller context.
func ExpertContext(ctx context.Context, opts diospyros.Options) (*ExpertResult, error) {
	l := kernels.MatMul(2, 3, 3)
	res, err := diospyros.CompileContext(ctx, l, opts)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(21))
	a := randSlice(r, 6)
	b := randSlice(r, 9)
	dout, dres, err := res.Run(map[string][]float64{"a": a, "b": b}, nil)
	if err != nil {
		return nil, err
	}
	eout, eres, err := expert.Run(a, b)
	if err != nil {
		return nil, err
	}
	want := kernels.MatMulRef(2, 3, 3, a, b)
	for i := range want {
		if math.Abs(dout["c"][i]-want[i]) > 1e-9 || math.Abs(eout[i]-want[i]) > 1e-9 {
			return nil, fmt.Errorf("expert comparison: output %d mismatch", i)
		}
	}
	return &ExpertResult{
		DiospyrosCycles: dres.Cycles,
		ExpertCycles:    eres.Cycles,
		CompileTime:     res.Trace.Duration,
		DiospyrosVecOps: dres.VectorOps(),
		ExpertVecOps:    eres.VectorOps(),
		GapPercent:      100 * (float64(dres.Cycles) - float64(eres.Cycles)) / float64(eres.Cycles),
	}, nil
}

// FormatExpert renders the §5.4 comparison.
func FormatExpert(e *ExpertResult) string {
	var b strings.Builder
	b.WriteString("§5.4 expert comparison (2×3 · 3×3 MatMul)\n")
	fmt.Fprintf(&b, "  diospyros: %d cycles (compiled in %v, %d vector ops)\n",
		e.DiospyrosCycles, e.CompileTime.Round(time.Millisecond), e.DiospyrosVecOps)
	fmt.Fprintf(&b, "  expert:    %d cycles (%d vector ops)\n", e.ExpertCycles, e.ExpertVecOps)
	fmt.Fprintf(&b, "  gap: %+.1f%%   (paper: +8%%, 39 vs 36 cycles, same 2 VMUL + 4 VMAC mix)\n", e.GapPercent)
	return b.String()
}

// TheiaResult is the §5.7 application case study summary.
type TheiaResult struct {
	EigenTotal     int64
	EigenQR        int64
	DiospyrosTotal int64
	DiospyrosQR    int64
	Speedup        float64
	QRShare        float64 // fraction of Eigen-variant time in QR
}

// Theia runs the §5.7 case study on a synthetic projection matrix.
func Theia() (*TheiaResult, error) {
	r := rand.New(rand.NewSource(31))
	p := syntheticProjection(r)
	eig, err := theia.Decompose(p, theia.VariantEigen)
	if err != nil {
		return nil, err
	}
	dio, err := theia.Decompose(p, theia.VariantDiospyros)
	if err != nil {
		return nil, err
	}
	return &TheiaResult{
		EigenTotal:     eig.TotalCycles,
		EigenQR:        eig.QRCycles,
		DiospyrosTotal: dio.TotalCycles,
		DiospyrosQR:    dio.QRCycles,
		Speedup:        float64(eig.TotalCycles) / float64(dio.TotalCycles),
		QRShare:        float64(eig.QRCycles) / float64(eig.TotalCycles),
	}, nil
}

// FormatTheia renders the case study.
func FormatTheia(t *TheiaResult) string {
	var b strings.Builder
	b.WriteString("§5.7 application case study: Theia DecomposeProjectionMatrix\n")
	fmt.Fprintf(&b, "  library (Eigen-like) QR: %d cycles total, %d in 3×3 QR (%.0f%%)\n",
		t.EigenTotal, t.EigenQR, 100*t.QRShare)
	fmt.Fprintf(&b, "  Diospyros QR:           %d cycles total, %d in 3×3 QR\n",
		t.DiospyrosTotal, t.DiospyrosQR)
	fmt.Fprintf(&b, "  end-to-end speedup: %.2fx   (paper: 2.1x, 30552 vs 64025 cycles; 61%% in QR)\n", t.Speedup)
	return b.String()
}

// syntheticProjection builds a realistic P = K·[R | −R·c].
func syntheticProjection(r *rand.Rand) []float64 {
	k := []float64{
		800 + r.Float64()*200, r.Float64() * 2, 320,
		0, 800 + r.Float64()*200, 240,
		0, 0, 1,
	}
	q := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
	n := math.Sqrt(q[0]*q[0] + q[1]*q[1] + q[2]*q[2] + q[3]*q[3])
	for i := range q {
		q[i] /= n
	}
	w, x, y, z := q[0], q[1], q[2], q[3]
	rot := []float64{
		1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y),
		2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x),
		2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y),
	}
	c := []float64{r.Float64()*4 - 2, r.Float64()*4 - 2, r.Float64()*4 - 2}
	t := make([]float64, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			t[i] -= rot[i*3+j] * c[j]
		}
	}
	p := make([]float64, 12)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			var rtv float64
			for kk := 0; kk < 3; kk++ {
				col := t[kk]
				if j < 3 {
					col = rot[kk*3+j]
				}
				rtv += k[i*3+kk] * col
			}
			p[i*4+j] = rtv
		}
	}
	return p
}
