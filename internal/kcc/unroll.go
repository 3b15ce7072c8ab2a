package kcc

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"diospyros/internal/frontend"
	"diospyros/internal/isa"
)

// unroller is the FixedSize-mode compiler: the frontend's kernel walker
// over FG3-lite float registers. The walker runs all integer control flow
// at compile time, so this domain emits straight-line scalar float code
// with constant addressing — the effect of `-O3` on loop nests with
// #define'd sizes.
//
// Array elements are promoted to registers through a *bounded* LRU cache
// with dirty writeback, modelling what register allocation achieves on a
// real DSP register file: a hot accumulator (e.g. c[i][j] across the inner
// k loop) stays in a register, but a 16×16 matrix cannot live in registers
// wholesale. Scalar let-variables and shared literals stay in registers.
// Float arithmetic is *not* value numbered; recovering that CSE via
// symbolic evaluation is Diospyros's §5.6 advantage.
type unroller struct {
	b      capped
	consts map[float64]int // literal -> f-register
	cache  promoCache
	locals int // counter for var-array region names
}

// promoteCap is the number of array elements the modelled register
// allocator can keep live at once.
const promoteCap = 12

// region is an array backed by a memory region, addressed by constant
// offsets through the promotion cache.
type region struct {
	cache   *promoCache
	dims    []int
	name    string
	baseReg int
}

func (r *region) Dims() []int       { return r.dims }
func (r *region) Load(off int) int  { return r.cache.read(r, off) }
func (r *region) Store(off, fr int) { r.cache.write(r, off, fr) }

// unroll compiles k in FixedSize mode into b.
func unroll(k *frontend.Kernel, b *isa.Builder) error {
	ctx, stop := context.WithCancelCause(context.Background())
	defer stop(nil)
	cb := capped{b, stop}
	u := &unroller{b: cb, consts: map[float64]int{}, cache: promoCache{b: cb, entries: map[promoKey]*promoEnt{}}}
	var arrays []frontend.Array[int]
	for _, p := range slices.Concat(k.Params, k.Outs) {
		arrays = append(arrays, u.region(p.Name, b.Layout().Base(p.Name), p.Dims))
	}
	if err := frontend.Run[int](ctx, k, u, arrays); err != nil {
		return err
	}
	u.cache.flush()
	return context.Cause(ctx)
}

// errTooLong is the error of a program past the instruction budget.
var errTooLong = fmt.Errorf("kcc: fixed-size program exceeded the budget of %d instructions", frontend.MaxSpecNodes)

// capped is the builder FixedSize emits every instruction through: the
// program holds at most frontend.MaxSpecNodes instructions, the cap Lift
// puts on the nodes it builds. A float loop, a var array's zero fill or
// the promotion cache's loads and stores that stay inside the walker's
// work budget still cannot emit more. Emit past the cap drops the
// instruction and stops the walk with errTooLong, which the walker
// returns at its next context poll.
type capped struct {
	*isa.Builder
	stop context.CancelCauseFunc
}

func (b capped) Emit(in isa.Instr) {
	if b.Len() >= frontend.MaxSpecNodes {
		b.stop(errTooLong)
		return
	}
	b.Builder.Emit(in)
}

// region binds a register to the base address of the named region.
func (u *unroller) region(name string, base int, dims []int) *region {
	reg := u.b.IReg()
	u.b.Emit(isa.Instr{Op: isa.IConst, Dst: reg, IImm: base})
	return &region{cache: &u.cache, dims: dims, name: name, baseReg: reg}
}

// Num returns the register holding literal v, emitting it on first use.
func (u *unroller) Num(v float64) int {
	if r, ok := u.consts[v]; ok {
		return r
	}
	r := u.b.FReg()
	u.b.Emit(isa.Instr{Op: isa.SConst, Dst: r, Imm: v})
	u.consts[v] = r
	return r
}

// Arith emits l op r into a fresh register.
func (u *unroller) Arith(op string, l, r int, pos frontend.Pos) (int, error) {
	return u.emit(isa.Instr{Op: arithOps[op], A: l, B: r}, pos)
}

// arithOps maps the walker's float operators to their instructions.
var arithOps = map[string]isa.Opcode{"+": isa.SAdd, "-": isa.SSub, "*": isa.SMul, "/": isa.SDiv}

// Neg emits -x into a fresh register.
func (u *unroller) Neg(x int, pos frontend.Pos) (int, error) {
	return u.emit(isa.Instr{Op: isa.SNeg, A: x}, pos)
}

// Call emits a builtin's instruction, or a call of a user function.
func (u *unroller) Call(name string, args []int, pos frontend.Pos) (int, error) {
	switch name {
	case "sqrt":
		return u.emit(isa.Instr{Op: isa.SSqrt, A: args[0]}, pos)
	case "abs":
		return u.emit(isa.Instr{Op: isa.SAbs, A: args[0]}, pos)
	case "sgn":
		return u.emit(isa.Instr{Op: isa.SSgn, A: args[0]}, pos)
	}
	return u.emit(isa.Instr{Op: isa.CallFn, Sym: name, Args: args}, pos)
}

// Compare rejects every float comparison: its outcome is known only at
// run time, and fixed-size code has no branches.
func (*unroller) Compare(_ string, _, _ int, pos frontend.Pos) (bool, error) {
	return false, &frontend.Error{Pos: pos, Msg: "kcc: data-dependent condition cannot be compiled in fixed-size mode (use Parametric)"}
}

// Local allocates a fresh region for a var array and zero-fills it at the
// declaration point (the zeros flow through the promotion cache).
func (u *unroller) Local(name string, dims []int) frontend.Array[int] {
	n := 1
	for _, d := range dims {
		n *= d
	}
	u.locals++
	name = fmt.Sprintf("%s$%d", name, u.locals)
	w := u.b.VecWidth()
	r := u.region(name, u.b.Layout().Add(name, (n+w-1)/w*w), dims)
	z := u.Num(0)
	for i := range n {
		r.Store(i, z)
	}
	return r
}

// emit emits in, for the expression at pos, with a fresh destination
// register and returns it. A program at the instruction budget is an
// error at pos.
func (u *unroller) emit(in isa.Instr, pos frontend.Pos) (int, error) {
	if u.b.Len() >= frontend.MaxSpecNodes {
		return 0, &frontend.Error{Pos: pos, Msg: errTooLong.Error()}
	}
	in.Dst = u.b.FReg()
	u.b.Emit(in)
	return in.Dst, nil
}

// promoCache is the bounded element-promotion cache.
type promoCache struct {
	b       capped
	entries map[promoKey]*promoEnt
	clock   int
}

type promoKey struct {
	arr *region
	off int
}

type promoEnt struct {
	reg   int
	dirty bool
	used  int // LRU clock; every touch takes a fresh value
}

func (c *promoCache) touch(e *promoEnt) {
	c.clock++
	e.used = c.clock
}

// evictIfFull writes back and drops the least-recently-used entry.
func (c *promoCache) evictIfFull() {
	if len(c.entries) < promoteCap {
		return
	}
	var victimKey promoKey
	var victim *promoEnt
	for k, e := range c.entries {
		if victim == nil || e.used < victim.used {
			victim, victimKey = e, k
		}
	}
	if victim.dirty {
		c.store(victimKey, victim.reg)
	}
	delete(c.entries, victimKey)
}

// store emits the write of register reg back to its element.
func (c *promoCache) store(k promoKey, reg int) {
	c.b.Emit(isa.Instr{Op: isa.SStore, A: k.arr.baseReg, IImm: k.off, B: reg})
}

// read returns a register holding arr[off].
func (c *promoCache) read(arr *region, off int) int {
	key := promoKey{arr: arr, off: off}
	if e, ok := c.entries[key]; ok {
		c.touch(e)
		return e.reg
	}
	c.evictIfFull()
	r := c.b.FReg()
	c.b.Emit(isa.Instr{Op: isa.SLoad, Dst: r, A: arr.baseReg, IImm: off})
	e := &promoEnt{reg: r}
	c.entries[key] = e
	c.touch(e)
	return r
}

// write binds arr[off] to the value register, deferring the store.
func (c *promoCache) write(arr *region, off int, reg int) {
	key := promoKey{arr: arr, off: off}
	if e, ok := c.entries[key]; ok {
		e.reg = reg
		e.dirty = true
		c.touch(e)
		return
	}
	c.evictIfFull()
	e := &promoEnt{reg: reg, dirty: true}
	c.entries[key] = e
	c.touch(e)
}

// flush writes back every dirty entry (end of kernel), in (region name,
// offset) order.
func (c *promoCache) flush() {
	var dirty []promoKey
	for k, e := range c.entries {
		if e.dirty {
			dirty = append(dirty, k)
		}
	}
	slices.SortFunc(dirty, func(a, b promoKey) int {
		return cmp.Or(cmp.Compare(a.arr.name, b.arr.name), cmp.Compare(a.off, b.off))
	})
	for _, k := range dirty {
		c.store(k, c.entries[k].reg)
	}
}
