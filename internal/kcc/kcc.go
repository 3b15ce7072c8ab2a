// Package kcc is the baseline kernel compiler: it compiles imperative
// frontend kernels to FG3-lite scalar code, standing in for the vendor's
// xt-xcc C compiler in the paper's evaluation (§5.2).
//
// Two modes reproduce the paper's two loop-nest baselines:
//
//   - Parametric ("Naive"): structured code with runtime loop bounds and
//     runtime index arithmetic, exactly what a compiler emits for
//     size-generic code. Every iteration pays loop-counter updates,
//     address computation, and branch overhead.
//   - FixedSize ("Naive (fixed size)"): bounds are compile-time constants,
//     so loops are fully unrolled and all indices constant-folded; literals
//     share registers and array elements are promoted to registers through
//     a bounded LRU cache, stored back on eviction and at the end — the
//     effect of `-O3` on kernels with #define'd sizes. Repeated arithmetic
//     is *not* value numbered; that additional CSE is what Diospyros's
//     symbolic evaluation provides on top (§5.6). This mode is the
//     frontend's kernel walker (frontend.Run) over float registers, under
//     the walker's work budget and a cap of frontend.MaxSpecNodes emitted
//     instructions.
//
// FixedSize requires input-independent control flow (like lifting);
// kernels with data-dependent branches (e.g. iterative library routines)
// compile in Parametric mode only, and FixedSize rejects them at the
// first float condition with its position.
//
// Parametric compiles a float condition as a branch on its negation (the
// jump around the then-arm), so when an operand is NaN it takes the other
// arm than Interp: `if sqrt(a[0]) < 1.0` on a = [-1] runs the then-arm
// here and the else-arm in Interp. Non-finite values are outside the
// validated semantics (DESIGN.md §5), which is why FuzzKCC compares finite
// runs only; a NaN-correct branch would add a jump to every float
// condition and move the baselines' cycles.
//
// Build and Routine.Run are the one harness that simulates a kcc program:
// the evaluation's baselines, the Eigen-like library routines and the
// examples all run through it.
package kcc

import (
	"fmt"

	"diospyros/internal/frontend"
	"diospyros/internal/isa"
	"diospyros/internal/sim"
)

// Mode selects the compilation strategy.
type Mode int

const (
	// Parametric keeps loops and computes indices at run time.
	Parametric Mode = iota
	// FixedSize fully unrolls and constant-folds control flow.
	FixedSize
)

// String names the mode as the paper's baselines do.
func (m Mode) String() string {
	if m == FixedSize {
		return "fixed-size"
	}
	return "parametric"
}

// Compile compiles a typed kernel to FG3-lite for the default target.
func Compile(k *frontend.Kernel, mode Mode) (*isa.Program, error) {
	return CompileTarget(k, mode, nil)
}

// CompileTarget compiles a typed kernel for the given target machine (nil
// means the default fg3lite-4). kcc emits scalar code only, so the target
// affects just the memory layout's width padding and the latency table the
// simulator applies to the emitted program.
func CompileTarget(k *frontend.Kernel, mode Mode, t *isa.Target) (*isa.Program, error) {
	if err := frontend.CheckShapes(k); err != nil {
		return nil, err
	}
	if t == nil {
		t = isa.Default()
	}
	w := t.Width
	if w < 1 {
		w = 1
	}
	lay := isa.NewLayout()
	pad := func(n int) int { return (n + w - 1) / w * w }
	for _, p := range k.Params {
		lay.Add(p.Name, pad(p.Len()))
	}
	for _, p := range k.Outs {
		lay.Add(p.Name, pad(p.Len()))
	}
	name := fmt.Sprintf("%s_%s", k.Name, mode)
	b := isa.NewBuilder(name, lay)
	b.SetTarget(t)
	if mode == FixedSize {
		if err := unroll(k, b); err != nil {
			return nil, err
		}
	} else {
		c := newStructured(k, b)
		if err := c.run(); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// Routine is a compiled kernel ready to simulate.
type Routine struct {
	Kernel  *frontend.Kernel
	Program *isa.Program
}

// Build parses src and compiles it in the given mode for the default
// target.
func Build(src string, mode Mode) (*Routine, error) {
	k, err := frontend.Parse(src)
	if err != nil {
		return nil, err
	}
	p, err := Compile(k, mode)
	if err != nil {
		return nil, err
	}
	return &Routine{Kernel: k, Program: p}, nil
}

// Run simulates the routine with inputs laid out in its memory, one slice
// per parameter of exactly the parameter's length, and returns a copy of
// each output alongside the simulator's result.
func (r *Routine) Run(inputs map[string][]float64) (map[string][]float64, *sim.Result, error) {
	mem := make([]float64, r.Program.Layout.Size())
	for _, prm := range r.Kernel.Params {
		data, ok := inputs[prm.Name]
		if !ok {
			return nil, nil, fmt.Errorf("kcc: missing input %q", prm.Name)
		}
		if len(data) != prm.Len() {
			return nil, nil, fmt.Errorf("kcc: input %q has %d elements, want %d", prm.Name, len(data), prm.Len())
		}
		copy(mem[r.Program.Layout.Base(prm.Name):], data)
	}
	res, err := sim.Run(r.Program, mem, sim.Defaults())
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string][]float64, len(r.Kernel.Outs))
	for _, prm := range r.Kernel.Outs {
		b := r.Program.Layout.Base(prm.Name)
		out[prm.Name] = append([]float64(nil), res.Mem[b:b+prm.Len()]...)
	}
	return out, res, nil
}
