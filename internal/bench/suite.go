// Package bench defines the paper's benchmark suite (Table 1) and the
// runners that regenerate each table and figure of the evaluation:
// Table 1 (compile time/memory), Figure 5 (kernel speedups vs. baselines),
// Figure 6 (saturation-budget ablation), the §5.4 expert comparison, the
// §5.6 vectorization ablation, and the §5.7 Theia case study.
package bench

import (
	"fmt"
	"math/rand"

	"diospyros/internal/eigenlite"
	"diospyros/internal/kernel"
	"diospyros/internal/kernels"
	"diospyros/internal/nature"
)

// Kernel describes one benchmark kernel of Table 1.
type Kernel struct {
	ID     string // e.g. "2DConv 3x5 3x3"
	Family string // 2DConv | MatMul | QProd | QRDecomp
	Size   string // human-readable size, e.g. "3×5, 3×3"
	RefLOC int    // reference-implementation length (Table 1 column)

	Lift     func() *kernel.Lifted // Diospyros input: the lift of NaiveSrc
	NaiveSrc string                // naive source (package kernels), for kcc
	Inputs   func(r *rand.Rand) map[string][]float64

	HasNature bool // vendor library provides this kernel
	// NatureRun invokes the vendor-library routine, returning outputs and
	// simulated cycles. Nil when HasNature is false.
	NatureRun func(inputs map[string][]float64) (map[string][]float64, int64, error)
	EigenSrc  string
}

// Suite returns the 21 kernels of the paper's Table 1, in table order.
func Suite() []Kernel {
	var out []Kernel

	convSizes := [][4]int{
		{3, 3, 2, 2}, {3, 3, 3, 3}, {3, 5, 3, 3}, {4, 4, 3, 3},
		{8, 8, 3, 3}, {10, 10, 2, 2}, {10, 10, 3, 3}, {10, 10, 4, 4},
		{16, 16, 2, 2}, {16, 16, 3, 3}, {16, 16, 4, 4},
	}
	for _, sz := range convSizes {
		ir, ic, fr, fc := sz[0], sz[1], sz[2], sz[3]
		src := kernels.Conv2DSrc(ir, ic, fr, fc)
		out = append(out, Kernel{
			ID:       fmt.Sprintf("2DConv %dx%d %dx%d", ir, ic, fr, fc),
			Family:   "2DConv",
			Size:     fmt.Sprintf("%d×%d, %d×%d", ir, ic, fr, fc),
			RefLOC:   srcLOC(src),
			Lift:     func() *kernel.Lifted { return kernels.Conv2D(ir, ic, fr, fc) },
			NaiveSrc: src,
			Inputs: func(r *rand.Rand) map[string][]float64 {
				return map[string][]float64{
					"i": randSlice(r, ir*ic),
					"f": randSlice(r, fr*fc),
				}
			},
			HasNature: true,
			NatureRun: func(inputs map[string][]float64) (map[string][]float64, int64, error) {
				prog := nature.Conv2D(ir, ic, fr, fc)
				out, res, err := nature.Run(prog, inputs, []int{ir, ic, fr, fc})
				if err != nil {
					return nil, 0, err
				}
				return out, res.Cycles, nil
			},
			EigenSrc: eigenlite.Conv2DSrc(ir, ic, fr, fc),
		})
	}

	mmSizes := [][3]int{
		{2, 2, 2}, {2, 3, 3}, {3, 3, 3}, {4, 4, 4},
		{8, 8, 8}, {10, 10, 10}, {16, 16, 16},
	}
	for _, sz := range mmSizes {
		m, n, p := sz[0], sz[1], sz[2]
		src := kernels.MatMulSrc(m, n, p)
		out = append(out, Kernel{
			ID:       fmt.Sprintf("MatMul %dx%d %dx%d", m, n, n, p),
			Family:   "MatMul",
			Size:     fmt.Sprintf("%d×%d, %d×%d", m, n, n, p),
			RefLOC:   srcLOC(src),
			Lift:     func() *kernel.Lifted { return kernels.MatMul(m, n, p) },
			NaiveSrc: src,
			Inputs: func(r *rand.Rand) map[string][]float64 {
				return map[string][]float64{
					"a": randSlice(r, m*n),
					"b": randSlice(r, n*p),
				}
			},
			HasNature: true,
			NatureRun: func(inputs map[string][]float64) (map[string][]float64, int64, error) {
				prog := nature.MatMul(m, n, p)
				out, res, err := nature.Run(prog, inputs, []int{m, n, p})
				if err != nil {
					return nil, 0, err
				}
				return out, res.Cycles, nil
			},
			EigenSrc: eigenlite.MatMulSrc(m, n, p),
		})
	}

	out = append(out, Kernel{
		ID:       "QProd 4,3,4,3",
		Family:   "QProd",
		Size:     "4, 3, 4, 3",
		RefLOC:   srcLOC(kernels.QProdSrc),
		Lift:     kernels.QProd,
		NaiveSrc: kernels.QProdSrc,
		Inputs: func(r *rand.Rand) map[string][]float64 {
			return map[string][]float64{
				"aq": randSlice(r, 4), "at": randSlice(r, 3),
				"bq": randSlice(r, 4), "bt": randSlice(r, 3),
			}
		},
		EigenSrc: kernels.QProdSrc,
	})

	for _, n := range []int{3, 4} {
		src := kernels.QRDecompSrc(n)
		out = append(out, Kernel{
			ID:       fmt.Sprintf("QRDecomp %dx%d", n, n),
			Family:   "QRDecomp",
			Size:     fmt.Sprintf("%d×%d", n, n),
			RefLOC:   srcLOC(src),
			Lift:     func() *kernel.Lifted { return kernels.QRDecomp(n) },
			NaiveSrc: src,
			Inputs: func(r *rand.Rand) map[string][]float64 {
				return map[string][]float64{"a": randSlice(r, n*n)}
			},
			EigenSrc: eigenlite.QRSrc(n),
		})
	}

	return out
}

func randSlice(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.Float64()*4 - 2
	}
	return s
}

func srcLOC(src string) int {
	n := 0
	start := 0
	for i := 0; i <= len(src); i++ {
		if i == len(src) || src[i] == '\n' {
			line := src[start:i]
			start = i + 1
			hasContent := false
			for _, c := range line {
				if c != ' ' && c != '\t' {
					hasContent = true
					break
				}
			}
			if hasContent {
				n++
			}
		}
	}
	return n
}
