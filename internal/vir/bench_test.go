package vir_test

import (
	"testing"

	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/extract"
	"diospyros/internal/isa"
	"diospyros/internal/kernels"
	"diospyros/internal/lower"
	"diospyros/internal/rules"
	"diospyros/internal/vir"
)

// BenchmarkOptimize times the backend cleanup a compile runs on each
// target's lowered program: Optimize (LVN, shuffle fusion, LVN, DCE), then
// BoundPressure at the compile's register budget, on the raw vector IR of
// MatMul 8x8 extracted for fg3lite-4.
func BenchmarkOptimize(b *testing.B) {
	target, err := isa.LookupTarget("fg3lite-4")
	if err != nil {
		b.Fatal(err)
	}
	k := kernels.MatMul(8, 8, 8)
	g := egraph.New()
	root := g.AddExpr(k.Spec)
	egraph.Run(g, rules.Default(target.Width).Rules(), egraph.Limits{})
	optimized, err := extract.New(g, cost.ForTarget(target)).Expr(root)
	if err != nil {
		b.Fatal(err)
	}
	raw, err := lower.Lower(k.Name, optimized, target.Width, k)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := vir.BoundPressure(vir.Optimize(raw), 56); len(p.Instrs) == 0 {
			b.Fatal("empty program")
		}
	}
}
