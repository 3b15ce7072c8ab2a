package main

import (
	"context"
	"testing"

	diospyros "diospyros"
	"diospyros/internal/bench"
	"diospyros/internal/codegen"
	"diospyros/internal/isa"
	"diospyros/internal/kernel"
)

// TestChainMatchesCompile holds the traced layer chain to diospyros.Compile
// on every suite kernel: identical C text, assembly and cycles, at
// fg3lite-4 and for the multi-target workload's three targets. If the
// pipeline in stages.go changes and the chain does not follow, the per-layer
// numbers would describe another program; this test fails instead.
func TestChainMatchesCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the 21-kernel suite four times")
	}
	for _, name := range []string{"suite", "multi-target"} {
		w := compileWorkloads[name]
		targets, err := w.targets()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range bench.Suite() {
			l := k.Lift()
			want, err := diospyros.Compile(l, w.opts)
			if err != nil {
				t.Fatalf("%s: Compile: %v", k.ID, err)
			}
			got, err := runChain(context.Background(), newTracer(),
				chainOp{name: k.ID, lifted: l, targets: targets, validate: w.opts.Validate})
			if err != nil {
				t.Fatalf("%s: chain: %v", k.ID, err)
			}
			if len(got) != len(want.Targets) {
				t.Fatalf("%s: chain made %d programs, Compile %d", k.ID, len(got), len(want.Targets))
			}
			for i, wt := range want.Targets {
				g := got[i]
				if g.C != wt.C {
					t.Errorf("%s on %s: C text differs", k.ID, wt.Target)
				}
				if g.Prog.Disassemble() != wt.Program.Disassemble() {
					t.Errorf("%s on %s: assembly differs", k.ID, wt.Target)
				}
				gc, wc := g.Cycles, wt.Cycles
				if len(targets) == 1 { // the pipeline simulates multi-target compiles only
					gc, wc = simCycles(t, g.Prog, l), simCycles(t, wt.Program, l)
				}
				if gc != wc || gc == 0 {
					t.Errorf("%s on %s: chain %d cycles, Compile %d", k.ID, wt.Target, gc, wc)
				}
			}
		}
	}
}

func simCycles(t *testing.T, p *isa.Program, l *kernel.Lifted) int64 {
	t.Helper()
	_, res, err := codegen.Execute(p, deterministicInputs(l), l.Inputs, l.Outputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles
}
