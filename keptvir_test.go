package diospyros_test

import (
	"fmt"
	"testing"

	diospyros "diospyros"
	"diospyros/internal/bench"
	"diospyros/internal/vir"
)

// TestKeptVIRIsCompact compiles the 21 suite kernels for fg3lite-4,
// fg3lite-8 and scalar and checks the VIR each target keeps, which
// diosserve caches with the Result. The back-half passes rewrite the raw
// program in place and copy it out once, so the kept program must be
// that copy: its instruction slice exactly full, its values numbered 0, 1,
// 2, ... in order, and every argument defined before its use.
func TestKeptVIRIsCompact(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the 21 suite kernels for three targets")
	}
	for _, k := range bench.Suite() {
		res, err := diospyros.Compile(k.Lift(),
			diospyros.Options{Targets: []string{"fg3lite-4", "fg3lite-8", "scalar"}})
		if err != nil {
			t.Fatalf("%s: %v", k.ID, err)
		}
		for _, tr := range res.Targets {
			if err := checkCompact(tr.VIR); err != nil {
				t.Errorf("%s at %s: %s", k.ID, tr.Target, err)
			}
		}
	}
}

// checkCompact returns what is wrong with p's layout, or nil.
func checkCompact(p *vir.Program) error {
	if len(p.Instrs) != cap(p.Instrs) {
		return fmt.Errorf("%d instructions in capacity %d", len(p.Instrs), cap(p.Instrs))
	}
	next := vir.ID(0)
	for i, in := range p.Instrs {
		for _, a := range in.Args {
			if a < 0 || a >= next {
				return fmt.Errorf("instruction %d uses %%%d before it is defined", i, a)
			}
		}
		if in.ID == vir.None {
			continue
		}
		if in.ID != next {
			return fmt.Errorf("instruction %d defines %%%d, want %%%d", i, in.ID, next)
		}
		next++
	}
	if p.NumValues() != int(next) {
		return fmt.Errorf("program counts %d values, defines %d", p.NumValues(), next)
	}
	return nil
}
