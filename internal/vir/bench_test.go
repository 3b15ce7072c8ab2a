package vir_test

import (
	"testing"

	"diospyros/internal/codegen"
	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/extract"
	"diospyros/internal/isa"
	"diospyros/internal/kernels"
	"diospyros/internal/lower"
	"diospyros/internal/rules"
	"diospyros/internal/vir"
)

// BenchmarkBackHalf times the back half of a compile for one target, as
// the lower and codegen stages run it: Lower, Optimize (LVN, shuffle
// fusion, LVN, DCE), BoundPressure at the compile's register budget, then
// ToC and ToISA, on MatMul 8x8 extracted for fg3lite-4. The passes consume
// their input, so every iteration lowers afresh.
func BenchmarkBackHalf(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := lower.Lower(k.Name, optimized, target.Width, k)
		if err != nil {
			b.Fatal(err)
		}
		p := vir.BoundPressure(vir.Optimize(raw), 56)
		if c := codegen.ToC(p); c == "" {
			b.Fatal("empty C")
		}
		if _, err := codegen.ToISA(p, target); err != nil {
			b.Fatal(err)
		}
	}
}
