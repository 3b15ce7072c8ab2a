package diospyros

import (
	"math/rand"

	"diospyros/internal/codegen"
	"diospyros/internal/expr"
	"diospyros/internal/isa"
	"diospyros/internal/kernel"
	"diospyros/internal/sim"
	"diospyros/internal/validate"
	"diospyros/internal/vir"
)

// Thin indirections keeping the pipeline stages free of backend imports.

// newValidator returns a translation validator for l's specification that
// normalizes the spec once across every program it checks.
func newValidator(l *kernel.Lifted) func(optimized *expr.Expr) error {
	return validate.NewChecker(l).Check
}

func codegenC(ir *vir.Program) string { return codegen.ToC(ir) }

func codegenISA(ir *vir.Program, t *isa.Target) (*isa.Program, error) {
	return codegen.ToISA(ir, t)
}

// deterministicInputs fills every kernel input with reproducible random
// tenths in [-10, 10) — the same distribution the CLI's -run harness uses —
// so per-target cycle counts from stageSimulate are comparable across runs.
func deterministicInputs(l *kernel.Lifted, seed int64) map[string][]float64 {
	r := rand.New(rand.NewSource(seed))
	inputs := map[string][]float64{}
	for _, d := range l.Inputs {
		s := make([]float64, d.Len())
		for i := range s {
			s[i] = float64(int(r.Float64()*200-100)) / 10
		}
		inputs[d.Name] = s
	}
	return inputs
}

func codegenExecute(p *isa.Program, inputs map[string][]float64,
	in, out []kernel.ArrayDecl,
	funcs map[string]func([]float64) float64) (map[string][]float64, *sim.Result, error) {
	return codegen.Execute(p, inputs, in, out, funcs)
}
