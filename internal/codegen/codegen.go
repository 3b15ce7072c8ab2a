// Package codegen translates the optimized low-level vector IR into
// (a) FG3-lite assembly for cycle-accurate simulation and (b) C++ with
// Fusion-G3-style vector intrinsics — the artifact Diospyros ships to the
// vendor toolchain (paper §4–5.1).
package codegen

import (
	"fmt"

	"diospyros/internal/isa"
	"diospyros/internal/kernel"
	"diospyros/internal/sim"
	"diospyros/internal/vir"
)

// BuildLayout packs a kernel's inputs then outputs into simulated memory.
// Every region is width-padded, with one extra vector of slack, so that
// aligned-window loads and unaligned loads with in-bounds live lanes never
// fault (standard over-allocation for DSP vector buffers).
func BuildLayout(width int, inputs, outputs []kernel.ArrayDecl) *isa.Layout {
	pad := func(n int) int { return (n+width-1)/width*width + width }
	lay := isa.NewLayout()
	for _, d := range inputs {
		lay.Add(d.Name, pad(d.Len()))
	}
	for _, d := range outputs {
		lay.Add(d.Name, pad(d.Len()))
	}
	return lay
}

// ToISA compiles a straight-line IR program to FG3-lite assembly for the
// given target machine. A nil target means the default (fg3lite-4). The IR's
// width must match the target's: the emitted program carries the target so
// the simulator sizes vector registers and latencies from it.
func ToISA(p *vir.Program, t *isa.Target) (*isa.Program, error) {
	if t == nil {
		t = isa.Default()
	}
	if p.Width != t.Width {
		return nil, fmt.Errorf("codegen: IR width %d does not match target %s width %d", p.Width, t, t.Width)
	}
	lay := BuildLayout(p.Width, p.Inputs, p.Outputs)
	b := isa.NewBuilder(p.Name, lay)
	b.SetTarget(t)
	// Each array's base address, each IR instruction and the final Halt
	// emit at least one instruction; only the VMov copies grow past this.
	regions := lay.Regions()
	b.Grow(len(regions) + len(p.Instrs) + 1)
	// The emitted VConst values and shuffle indices are copied out of the
	// IR into two shared backing slices, one copy per program.
	nvals, nidx := 0, 0
	for i := range p.Instrs {
		nvals += len(p.Instrs[i].Fs)
		nidx += len(p.Instrs[i].Idx)
	}
	vals := make([]float64, 0, nvals)
	idxs := make([]int, 0, nidx)

	// One address register per array.
	bases := make(map[string]int, len(regions))
	for _, r := range regions {
		reg := b.IReg()
		bases[r.Name] = reg
		b.Emit(isa.Instr{Op: isa.IConst, Dst: reg, IImm: r.Base})
	}
	base := func(arr string) (int, error) {
		reg, ok := bases[arr]
		if !ok {
			return 0, fmt.Errorf("codegen: unknown array %q", arr)
		}
		return reg, nil
	}

	// Register management: SSA values are assigned physical registers from
	// free lists; a register is recycled as soon as its value's last use
	// has been consumed (FG3-lite, like the real G3, reads all operands
	// before writing the destination, so a source dying at an instruction
	// may serve as that instruction's destination). The resulting register
	// pressure is what a linear-scan allocator would achieve on
	// straight-line code; Build records the high-water marks.
	// fregs and vregs map each value to its register, -1 until defined.
	fregs := make([]int, p.NumValues())
	vregs := make([]int, p.NumValues())
	for i := range fregs {
		fregs[i], vregs[i] = -1, -1
	}
	remaining := p.UseCounts()
	var freeF, freeV []int
	allocF := func() int {
		if n := len(freeF); n > 0 {
			r := freeF[n-1]
			freeF = freeF[:n-1]
			return r
		}
		return b.FReg()
	}
	allocV := func() int {
		if n := len(freeV); n > 0 {
			r := freeV[n-1]
			freeV = freeV[:n-1]
			return r
		}
		return b.VReg()
	}
	freg := func(id vir.ID) (int, error) {
		if id < 0 || int(id) >= len(fregs) || fregs[id] < 0 {
			return 0, fmt.Errorf("codegen: %%%d is not a scalar value", id)
		}
		return fregs[id], nil
	}
	vreg := func(id vir.ID) (int, error) {
		if id < 0 || int(id) >= len(vregs) || vregs[id] < 0 {
			return 0, fmt.Errorf("codegen: %%%d is not a vector value", id)
		}
		return vregs[id], nil
	}
	// takeV consumes one use of a vector operand; at the last use the
	// register is recycled (and reported reusable so in-place ops like
	// VMac can claim it as their destination).
	takeV := func(id vir.ID) (reg int, reusable bool, err error) {
		r, err := vreg(id)
		if err != nil {
			return 0, false, err
		}
		remaining[id]--
		if remaining[id] == 0 {
			freeV = append(freeV, r)
			return r, true, nil
		}
		return r, false, nil
	}
	takeF := func(id vir.ID) (int, error) {
		r, err := freg(id)
		if err != nil {
			return 0, err
		}
		remaining[id]--
		if remaining[id] == 0 {
			freeF = append(freeF, r)
		}
		return r, nil
	}
	// claimV removes a just-recycled register from the free list when an
	// in-place operation keeps it live as its destination.
	claimV := func(r int) {
		for i := len(freeV) - 1; i >= 0; i-- {
			if freeV[i] == r {
				freeV = append(freeV[:i], freeV[i+1:]...)
				return
			}
		}
	}

	for _, in := range p.Instrs {
		switch in.Op {
		case vir.ConstS:
			d := allocF()
			fregs[in.ID] = d
			b.Emit(isa.Instr{Op: isa.SConst, Dst: d, Imm: in.F})
		case vir.LoadS:
			ar, err := base(in.Array)
			if err != nil {
				return nil, err
			}
			d := allocF()
			fregs[in.ID] = d
			b.Emit(isa.Instr{Op: isa.SLoad, Dst: d, A: ar, IImm: in.Off})
		case vir.AddS, vir.SubS, vir.MulS, vir.DivS:
			a, err := takeF(in.Args[0])
			if err != nil {
				return nil, err
			}
			c, err := takeF(in.Args[1])
			if err != nil {
				return nil, err
			}
			d := allocF()
			fregs[in.ID] = d
			b.Emit(isa.Instr{Op: binopS[in.Op], Dst: d, A: a, B: c})
		case vir.NegS, vir.SqrtS, vir.SgnS:
			a, err := takeF(in.Args[0])
			if err != nil {
				return nil, err
			}
			d := allocF()
			fregs[in.ID] = d
			b.Emit(isa.Instr{Op: unopS[in.Op], Dst: d, A: a})
		case vir.CallS:
			args := make([]int, len(in.Args))
			for i, id := range in.Args {
				r, err := takeF(id)
				if err != nil {
					return nil, err
				}
				args[i] = r
			}
			d := allocF()
			fregs[in.ID] = d
			b.Emit(isa.Instr{Op: isa.CallFn, Dst: d, Sym: in.Sym, Args: args})
		case vir.ExtractLane:
			a, _, err := takeV(in.Args[0])
			if err != nil {
				return nil, err
			}
			d := allocF()
			fregs[in.ID] = d
			b.Emit(isa.Instr{Op: isa.VExtract, Dst: d, A: a, IImm: in.Lane})

		case vir.ConstV:
			d := allocV()
			vregs[in.ID] = d
			b.Emit(isa.Instr{Op: isa.VConst, Dst: d, Vals: carve(&vals, in.Fs)})
		case vir.LoadV:
			ar, err := base(in.Array)
			if err != nil {
				return nil, err
			}
			d := allocV()
			vregs[in.ID] = d
			b.Emit(isa.Instr{Op: isa.VLoad, Dst: d, A: ar, IImm: in.Off})
		case vir.Splat:
			a, err := takeF(in.Args[0])
			if err != nil {
				return nil, err
			}
			d := allocV()
			vregs[in.ID] = d
			b.Emit(isa.Instr{Op: isa.VBcast, Dst: d, A: a})
		case vir.Insert:
			src, reuse, err := takeV(in.Args[0])
			if err != nil {
				return nil, err
			}
			s, err := takeF(in.Args[1])
			if err != nil {
				return nil, err
			}
			d := src
			if reuse {
				claimV(src) // stays live as the in-place destination
			} else {
				d = allocV()
				b.Emit(isa.Instr{Op: isa.VMov, Dst: d, A: src})
			}
			vregs[in.ID] = d
			b.Emit(isa.Instr{Op: isa.VInsert, Dst: d, A: s, IImm: in.Lane})
		case vir.Shuffle:
			a, _, err := takeV(in.Args[0])
			if err != nil {
				return nil, err
			}
			d := allocV()
			vregs[in.ID] = d
			b.Emit(isa.Instr{Op: isa.VShfl, Dst: d, A: a, Idx: carve(&idxs, in.Idx)})
		case vir.Select:
			a, _, err := takeV(in.Args[0])
			if err != nil {
				return nil, err
			}
			c, _, err := takeV(in.Args[1])
			if err != nil {
				return nil, err
			}
			d := allocV()
			vregs[in.ID] = d
			b.Emit(isa.Instr{Op: isa.VSel, Dst: d, A: a, B: c, Idx: carve(&idxs, in.Idx)})
		case vir.AddV, vir.SubV, vir.MulV, vir.DivV:
			a, _, err := takeV(in.Args[0])
			if err != nil {
				return nil, err
			}
			c, _, err := takeV(in.Args[1])
			if err != nil {
				return nil, err
			}
			d := allocV()
			vregs[in.ID] = d
			b.Emit(isa.Instr{Op: binopV[in.Op], Dst: d, A: a, B: c})
		case vir.MacV:
			// FG3-lite's VMac accumulates in place; reuse the accumulator
			// register when this is its last use, else copy first. Because
			// copy+MAC is a two-instruction sequence, dying source
			// registers are released only *after* both emit — the VMov's
			// destination must not alias a source the VMac still reads.
			takeDeferred := func(id vir.ID) (int, bool, error) {
				r, err := vreg(id)
				if err != nil {
					return 0, false, err
				}
				remaining[id]--
				return r, remaining[id] == 0, nil
			}
			acc, accDies, err := takeDeferred(in.Args[0])
			if err != nil {
				return nil, err
			}
			a, aDies, err := takeDeferred(in.Args[1])
			if err != nil {
				return nil, err
			}
			c, cDies, err := takeDeferred(in.Args[2])
			if err != nil {
				return nil, err
			}
			d := acc
			if !accDies {
				d = allocV()
				b.Emit(isa.Instr{Op: isa.VMov, Dst: d, A: acc})
			}
			vregs[in.ID] = d
			b.Emit(isa.Instr{Op: isa.VMac, Dst: d, A: a, B: c})
			for _, s := range []struct {
				reg  int
				dies bool
			}{{acc, accDies}, {a, aDies}, {c, cDies}} {
				if s.dies && s.reg != d {
					freeV = append(freeV, s.reg)
				}
			}
		case vir.NegV, vir.SqrtV, vir.SgnV:
			a, _, err := takeV(in.Args[0])
			if err != nil {
				return nil, err
			}
			d := allocV()
			vregs[in.ID] = d
			b.Emit(isa.Instr{Op: unopV[in.Op], Dst: d, A: a})
		case vir.CallV:
			args := make([]int, len(in.Args))
			for i, id := range in.Args {
				r, _, err := takeV(id)
				if err != nil {
					return nil, err
				}
				args[i] = r
			}
			d := allocV()
			vregs[in.ID] = d
			b.Emit(isa.Instr{Op: isa.VCallFn, Dst: d, Sym: in.Sym, Args: args})

		case vir.StoreS:
			ar, err := base(in.Array)
			if err != nil {
				return nil, err
			}
			s, err := takeF(in.Args[0])
			if err != nil {
				return nil, err
			}
			b.Emit(isa.Instr{Op: isa.SStore, A: ar, IImm: in.Off, B: s})
		case vir.StoreV:
			ar, err := base(in.Array)
			if err != nil {
				return nil, err
			}
			s, _, err := takeV(in.Args[0])
			if err != nil {
				return nil, err
			}
			b.Emit(isa.Instr{Op: isa.VStore, A: ar, IImm: in.Off, B: s})
		case vir.StoreVN:
			ar, err := base(in.Array)
			if err != nil {
				return nil, err
			}
			s, _, err := takeV(in.Args[0])
			if err != nil {
				return nil, err
			}
			b.Emit(isa.Instr{Op: isa.VStoreN, A: ar, IImm: in.Off, B: s, IImm2: in.N})
		default:
			return nil, fmt.Errorf("codegen: unimplemented IR op %s", in.Op)
		}
	}
	return b.Build()
}

// carve appends src to *buf and returns the appended copy, its capacity
// clipped so an append to it cannot overwrite the next copy.
func carve[T any](buf *[]T, src []T) []T {
	lo := len(*buf)
	*buf = append(*buf, src...)
	return (*buf)[lo:len(*buf):len(*buf)]
}

// The IR ops that map one-to-one onto an FG3-lite arithmetic opcode.
var (
	binopS = [vir.NumOps]isa.Opcode{
		vir.AddS: isa.SAdd, vir.SubS: isa.SSub, vir.MulS: isa.SMul, vir.DivS: isa.SDiv,
	}
	unopS = [vir.NumOps]isa.Opcode{
		vir.NegS: isa.SNeg, vir.SqrtS: isa.SSqrt, vir.SgnS: isa.SSgn,
	}
	binopV = [vir.NumOps]isa.Opcode{
		vir.AddV: isa.VAdd, vir.SubV: isa.VSub, vir.MulV: isa.VMul, vir.DivV: isa.VDiv,
	}
	unopV = [vir.NumOps]isa.Opcode{
		vir.NegV: isa.VNeg, vir.SqrtV: isa.VSqrt, vir.SgnV: isa.VSgn,
	}
)

// Execute runs a compiled program on the simulator with the given inputs
// bound to their regions, returning outputs and the simulation result.
func Execute(p *isa.Program, inputs map[string][]float64,
	inDecls, outDecls []kernel.ArrayDecl,
	funcs map[string]func([]float64) float64) (map[string][]float64, *sim.Result, error) {

	mem := make([]float64, p.Layout.Size())
	for _, d := range inDecls {
		data, ok := inputs[d.Name]
		if !ok {
			return nil, nil, fmt.Errorf("codegen: missing input %q", d.Name)
		}
		if len(data) != d.Len() {
			return nil, nil, fmt.Errorf("codegen: input %q has %d elements, want %d", d.Name, len(data), d.Len())
		}
		copy(mem[p.Layout.Base(d.Name):], data)
	}
	cfg := sim.Defaults()
	cfg.Funcs = funcs
	res, err := sim.Run(p, mem, cfg)
	if err != nil {
		return nil, nil, err
	}
	outputs := map[string][]float64{}
	for _, d := range outDecls {
		b := p.Layout.Base(d.Name)
		outputs[d.Name] = append([]float64(nil), res.Mem[b:b+d.Len()]...)
	}
	return outputs, res, nil
}
