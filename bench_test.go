package diospyros_test

// Benchmark harness: one testing.B benchmark per table/figure in the
// paper's evaluation (§5). Simulated-cycle results are attached as custom
// metrics (`cycles`, `speedup`), since the quantity the paper reports is
// deterministic simulated cycles, not host wall-clock.
//
//	go test -bench=. -benchmem
//
// The cmd/diosbench binary prints the same data as formatted tables.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	diospyros "diospyros"
	"diospyros/internal/bench"
	"diospyros/internal/kernels"
	"diospyros/internal/theia"
)

func benchOpts() diospyros.Options {
	return diospyros.Options{Timeout: 60 * time.Second, NodeLimit: 1_000_000}
}

// BenchmarkTable1Compile measures end-to-end compilation (symbolic
// evaluation, equality saturation, extraction, lowering, code generation)
// for representative Table 1 kernels.
func BenchmarkTable1Compile(b *testing.B) {
	for _, c := range []struct {
		name string
		mk   func() *diospyros.Result
	}{
		{"2DConv3x5_3x3", func() *diospyros.Result { r, _ := diospyros.Compile(kernels.Conv2D(3, 5, 3, 3), benchOpts()); return r }},
		{"MatMul3x3", func() *diospyros.Result { r, _ := diospyros.Compile(kernels.MatMul(3, 3, 3), benchOpts()); return r }},
		{"MatMul10x10", func() *diospyros.Result { r, _ := diospyros.Compile(kernels.MatMul(10, 10, 10), benchOpts()); return r }},
		{"QProd", func() *diospyros.Result { r, _ := diospyros.Compile(kernels.QProd(), benchOpts()); return r }},
		{"QRDecomp3x3", func() *diospyros.Result { r, _ := diospyros.Compile(kernels.QRDecomp(3), benchOpts()); return r }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				res := c.mk()
				if res == nil {
					b.Fatal("compile failed")
				}
				nodes = res.Saturation.Nodes
			}
			b.ReportMetric(float64(nodes), "e-nodes")
		})
	}
}

// BenchmarkFigure5Kernels reports simulated cycles for each system on
// representative kernels (the full 21-kernel figure comes from diosbench).
func BenchmarkFigure5Kernels(b *testing.B) {
	for _, only := range []string{"2DConv 3x5 3x3", "MatMul 4x4 4x4", "QProd"} {
		b.Run(only, func(b *testing.B) {
			var rows []bench.Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = bench.Figure5(bench.Options{Opts: benchOpts(), Only: only})
				if err != nil {
					b.Fatal(err)
				}
			}
			if len(rows) == 1 {
				r := rows[0]
				b.ReportMetric(float64(r.Cycles.Diospyros), "dios-cycles")
				b.ReportMetric(float64(r.Cycles.NaiveFixed), "fixed-cycles")
				b.ReportMetric(r.Speedup(r.Cycles.Diospyros), "speedup")
			}
		})
	}
}

// BenchmarkFigure5Geomean reproduces the headline number over the whole
// suite (expensive; dominated by the 16×16 kernels).
func BenchmarkFigure5Geomean(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure5(bench.Options{Opts: benchOpts()})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bench.GeomeanVsBestBaseline(rows), "geomean-speedup")
	}
}

// BenchmarkFigure6Timeout sweeps the equality-saturation budget for the
// 10×10·10×10 MatMul and reports resulting kernel cycles per budget.
func BenchmarkFigure6Timeout(b *testing.B) {
	for _, iters := range []int{1, 2, 4, 8, 30} {
		b.Run(fmt.Sprintf("budget-%d-iters", iters), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				rows, err := bench.Figure6Iterations([]int{iters})
				if err != nil {
					b.Fatal(err)
				}
				cycles = rows[0].Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkExpertComparison reports the §5.4 gap against the hand-tuned
// 2×3·3×3 kernel.
func BenchmarkExpertComparison(b *testing.B) {
	var res *bench.ExpertResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.Expert(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DiospyrosCycles), "dios-cycles")
	b.ReportMetric(float64(res.ExpertCycles), "expert-cycles")
	b.ReportMetric(res.GapPercent, "gap-%")
}

// BenchmarkAblationNoVector reports the §5.6 scalar-rules-only ablation on
// a representative kernel.
func BenchmarkAblationNoVector(b *testing.B) {
	l := kernels.MatMul(4, 4, 4)
	r := rand.New(rand.NewSource(5))
	in := map[string][]float64{"a": make([]float64, 16), "b": make([]float64, 16)}
	for _, s := range in {
		for i := range s {
			s[i] = r.Float64()
		}
	}
	run := func(disable bool) int64 {
		opts := benchOpts()
		opts.DisableVectorRules = disable
		res, err := diospyros.Compile(l, opts)
		if err != nil {
			b.Fatal(err)
		}
		_, sres, err := res.Run(in, nil)
		if err != nil {
			b.Fatal(err)
		}
		return sres.Cycles
	}
	var vec, scalar int64
	for i := 0; i < b.N; i++ {
		vec = run(false)
		scalar = run(true)
	}
	b.ReportMetric(float64(vec), "vector-cycles")
	b.ReportMetric(float64(scalar), "scalar-cycles")
}

// BenchmarkTheiaCaseStudy reports the §5.7 end-to-end application numbers.
func BenchmarkTheiaCaseStudy(b *testing.B) {
	var res *bench.TheiaResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = bench.Theia()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.EigenTotal), "eigen-cycles")
	b.ReportMetric(float64(res.DiospyrosTotal), "dios-cycles")
	b.ReportMetric(res.Speedup, "speedup")
}

// BenchmarkTranslationValidation measures the §3.4 validator on the kernel
// whose output it checks exactly.
func BenchmarkTranslationValidation(b *testing.B) {
	opts := benchOpts()
	opts.Validate = true
	for i := 0; i < b.N; i++ {
		if _, err := diospyros.Compile(kernels.MatMul(3, 3, 3), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures raw simulator throughput (instructions/s) on
// a vectorized kernel, for context on harness overheads.
func BenchmarkSimulator(b *testing.B) {
	res, err := diospyros.Compile(kernels.MatMul(8, 8, 8), benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	in := map[string][]float64{"a": make([]float64, 64), "b": make([]float64, 64)}
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		_, sres, err := res.Run(in, nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs = sres.Instrs
	}
	b.ReportMetric(float64(instrs), "sim-instrs")
}

// BenchmarkTheiaDecomposeRef is the host-reference decomposition, for
// calibrating the simulator-vs-host gap.
func BenchmarkTheiaDecomposeRef(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	p := make([]float64, 12)
	for i := range p {
		p[i] = r.Float64()*4 - 2
	}
	for i := 0; i < b.N; i++ {
		theia.DecomposeRef(p)
	}
}
