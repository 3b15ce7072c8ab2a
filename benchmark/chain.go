package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"diospyros/internal/codegen"
	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
	"diospyros/internal/extract"
	"diospyros/internal/frontend"
	"diospyros/internal/isa"
	"diospyros/internal/kernel"
	"diospyros/internal/lower"
	"diospyros/internal/rules"
	"diospyros/internal/validate"
	"diospyros/internal/vir"
)

// The layer chain: one compile driven layer by layer through each
// package's public functions, in the order and with the settings that
// stages.go and diospyros.Options' defaults use. The traced pass opens a
// span around every call; the parity test holds the chain's artifacts to
// diospyros.Compile's, so the per-layer numbers describe the same program.

// Settings diospyros.Options.withDefaults applies and stageLower uses.
const (
	chainTimeout   = 180 * time.Second
	chainNodeLimit = 10_000_000
	chainRegBudget = 56
)

// chainOp is one compile: kernel source text, or an already-lifted
// builder-API kernel, for one or more machine targets.
type chainOp struct {
	name     string
	src      string         // source kernels; "" when lifted is set
	lifted   *kernel.Lifted // builder-API kernels
	targets  []*isa.Target
	validate bool
}

// chainTarget is one target's artifacts from runChain.
type chainTarget struct {
	C      string
	Prog   *isa.Program // nil for targets without an assembly backend
	Cycles int64        // simulated on deterministic inputs; 0 for one target
}

// runChain compiles op. tr may be nil, which runs the same calls untraced.
func runChain(ctx context.Context, tr *tracer, op chainOp) ([]chainTarget, error) {
	root := tr.beginOp(op.name)
	out, err := chain(ctx, tr, op)
	tr.end(root, err)
	return out, err
}

func chain(ctx context.Context, tr *tracer, op chainOp) ([]chainTarget, error) {
	lifted := op.lifted
	if lifted == nil {
		sp := tr.begin("frontend")
		k, err := frontend.Parse(op.src)
		if err == nil {
			lifted, err = frontend.Lift(k)
		}
		tr.end(sp, err)
		if err != nil {
			return nil, fmt.Errorf("frontend: %w", err)
		}
		tr.count("frontend.spec_nodes", float64(lifted.Spec.Size()))
	}

	sp := tr.begin("rules")
	var widths []int
	seen := map[int]bool{}
	for _, t := range op.targets {
		if t.Width > 1 && !seen[t.Width] {
			seen[t.Width] = true
			widths = append(widths, t.Width)
		}
	}
	ruleSet := rules.Config{Width: isa.Width, Widths: widths, DisableVector: len(widths) == 0}.Rules()
	tr.end(sp, nil)
	tr.count("rules.count", float64(len(ruleSet)))

	sp = tr.begin("egraph")
	g := egraph.New()
	rootClass := g.AddExpr(lifted.Spec)
	rep := egraph.RunContext(ctx, g, ruleSet, egraph.Limits{MaxNodes: chainNodeLimit, Timeout: chainTimeout})
	var err error
	if rep.Reason == egraph.StopCancelled {
		err = context.Cause(ctx)
	}
	tr.end(sp, err)
	if err != nil {
		return nil, fmt.Errorf("egraph: %w", err)
	}
	if tr != nil {
		matches := 0
		for _, it := range rep.Iters {
			matches += it.Matches
		}
		tr.count("egraph.iterations", float64(rep.Iterations))
		tr.count("egraph.nodes", float64(rep.Nodes))
		tr.count("egraph.classes", float64(rep.Classes))
		tr.count("egraph.applied", float64(rep.Applied))
		tr.count("egraph.matches", float64(matches))
		tr.count("egraph.peak_bytes", float64(rep.PeakFootprint.Total))
	}

	optimized := make([]*expr.Expr, len(op.targets))
	for i, t := range op.targets {
		sp := tr.begin("extract")
		ex := extract.New(g, cost.ForTarget(t))
		var err error
		optimized[i], err = ex.Expr(rootClass)
		_ = ex.Cost(rootClass) // stageExtract records the cost too
		tr.end(sp, err)
		if err != nil {
			return nil, fmt.Errorf("extract %s: %w", t, err)
		}
		tr.count("extract.calls", 1)
	}

	irs := make([]*vir.Program, len(op.targets))
	for i, t := range op.targets {
		sp := tr.begin("lower")
		raw, err := lower.Lower(lifted.Name, optimized[i], t.Width, lifted)
		tr.end(sp, err)
		if err != nil {
			return nil, fmt.Errorf("lower %s: %w", t, err)
		}
		sp = tr.begin("vir")
		irs[i] = vir.BoundPressure(vir.Optimize(raw), chainRegBudget)
		tr.end(sp, nil)
		tr.count("lower.raw_instrs", float64(len(raw.Instrs)))
		tr.count("vir.instrs", float64(len(irs[i].Instrs)))
	}

	out := make([]chainTarget, len(op.targets))
	for i, t := range op.targets {
		sp := tr.begin("codegen")
		out[i].C = codegen.ToC(irs[i])
		var err error
		if t.HasAssembly {
			out[i].Prog, err = codegen.ToISA(irs[i], t)
		}
		tr.end(sp, err)
		if err != nil {
			return nil, fmt.Errorf("codegen %s: %w", t, err)
		}
		if out[i].Prog != nil {
			tr.count("codegen.asm_instrs", float64(len(out[i].Prog.Instrs)))
		}
	}

	// stageSimulate: multi-target compiles only, and a simulation failure
	// leaves the cycle count at 0 rather than failing the compile.
	if len(op.targets) > 1 {
		inputs := deterministicInputs(lifted)
		for i := range out {
			if out[i].Prog == nil {
				continue
			}
			sp := tr.begin("sim")
			_, res, err := codegen.Execute(out[i].Prog, inputs, lifted.Inputs, lifted.Outputs, nil)
			tr.end(sp, err)
			if err == nil {
				out[i].Cycles = res.Cycles
				tr.count("sim.cycles", float64(res.Cycles))
			}
		}
	}

	if op.validate {
		for i, t := range op.targets {
			sp := tr.begin("validate")
			err := validate.Check(lifted, optimized[i])
			tr.end(sp, err)
			if err != nil {
				return nil, fmt.Errorf("validate %s: %w", t, err)
			}
		}
	}
	return out, nil
}

// deterministicInputs fills every kernel input the way the compiler's
// simulate stage does (diospyros/glue.go, seed 1): reproducible tenths in
// [-10, 10). Cycle counts then match diospyros.Compile's exactly.
func deterministicInputs(l *kernel.Lifted) map[string][]float64 {
	r := rand.New(rand.NewSource(1))
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
