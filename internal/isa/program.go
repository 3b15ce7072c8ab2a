package isa

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Program is an FG3-lite program: an instruction list with symbolic labels
// and a memory layout mapping array names to base addresses.
type Program struct {
	Name   string
	Instrs []Instr
	Labels map[string]int // label -> instruction index
	Layout *Layout
	// Target is the machine the program was compiled for; the simulator
	// takes the vector-register width and opcode latencies from it. Nil
	// means the default fg3lite-4 machine (hand-written library kernels).
	Target *Target
}

// VecWidth returns the vector-register width the program executes with.
func (p *Program) VecWidth() int {
	if p.Target != nil {
		return p.Target.Width
	}
	return Width
}

// Layout assigns flat memory regions to named arrays.
type Layout struct {
	regions []Region
	byName  map[string]int
}

// Region is one named array in simulated memory.
type Region struct {
	Name string
	Base int
	Len  int
}

// NewLayout builds a layout by packing the given (name, len) pairs
// consecutively from address 0.
func NewLayout() *Layout {
	return &Layout{byName: map[string]int{}}
}

// Add appends an array region, returning its base address.
func (l *Layout) Add(name string, n int) int {
	if _, dup := l.byName[name]; dup {
		panic("isa: duplicate region " + name)
	}
	base := l.Size()
	l.byName[name] = len(l.regions)
	l.regions = append(l.regions, Region{Name: name, Base: base, Len: n})
	return base
}

// Base returns the base address of a named region.
func (l *Layout) Base(name string) int {
	i, ok := l.byName[name]
	if !ok {
		panic("isa: unknown region " + name)
	}
	return l.regions[i].Base
}

// Has reports whether the region exists.
func (l *Layout) Has(name string) bool {
	_, ok := l.byName[name]
	return ok
}

// Region returns the named region.
func (l *Layout) Region(name string) Region {
	i, ok := l.byName[name]
	if !ok {
		panic("isa: unknown region " + name)
	}
	return l.regions[i]
}

// Regions returns all regions in address order.
func (l *Layout) Regions() []Region {
	out := append([]Region(nil), l.regions...)
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// Size is the total number of elements in the layout.
func (l *Layout) Size() int {
	n := 0
	for _, r := range l.regions {
		n += r.Len
	}
	return n
}

// Builder assembles a Program, managing label resolution and virtual
// register allocation.
type Builder struct {
	prog      Program
	nextF     int
	nextI     int
	nextV     int
	labelSeq  int
	finalized bool
}

// NewBuilder starts a program with the given name and layout. The builder
// takes ownership of the layout; library code may extend it (e.g. local
// scratch regions) via Layout before Build.
func NewBuilder(name string, layout *Layout) *Builder {
	if layout == nil {
		layout = NewLayout()
	}
	return &Builder{prog: Program{
		Name:   name,
		Labels: map[string]int{},
		Layout: layout,
	}}
}

// Layout returns the program's memory layout for extension and queries.
func (b *Builder) Layout() *Layout { return b.prog.Layout }

// SetTarget stamps the machine descriptor onto the program being built.
// Unset means the default fg3lite-4 machine.
func (b *Builder) SetTarget(t *Target) { b.prog.Target = t }

// VecWidth returns the vector width of the program being built.
func (b *Builder) VecWidth() int { return b.prog.VecWidth() }

// Emit appends an instruction.
func (b *Builder) Emit(in Instr) {
	b.prog.Instrs = append(b.prog.Instrs, in)
}

// Grow makes room for n more instructions, so a caller that knows its
// program's size appends without regrowing the instruction slice.
func (b *Builder) Grow(n int) {
	b.prog.Instrs = slices.Grow(b.prog.Instrs, n)
}

// Label binds a label to the next instruction index.
func (b *Builder) Label(name string) {
	if _, dup := b.prog.Labels[name]; dup {
		panic("isa: duplicate label " + name)
	}
	b.prog.Labels[name] = len(b.prog.Instrs)
}

// FreshLabel returns a unique label name with the given prefix.
func (b *Builder) FreshLabel(prefix string) string {
	b.labelSeq++
	return fmt.Sprintf(".%s%d", prefix, b.labelSeq)
}

// FReg, IReg and VReg allocate fresh register names. The simulator sizes
// its files to the program (sim.Config); the compilers in this repository
// keep the names they use realistic — the Diospyros code generator recycles
// dead registers and bounds pressure by rematerialization (vir.BoundPressure),
// and the fixed-size baseline models allocation with a bounded promotion
// cache (kcc).
func (b *Builder) FReg() int { b.nextF++; return b.nextF - 1 }
func (b *Builder) IReg() int { b.nextI++; return b.nextI - 1 }
func (b *Builder) VReg() int { b.nextV++; return b.nextV - 1 }

// RegCounts returns the number of virtual registers allocated so far.
func (b *Builder) RegCounts() (f, i, v int) { return b.nextF, b.nextI, b.nextV }

// Build finalizes the program: verifies branch targets and appends a Halt
// if the program does not already end with one.
func (b *Builder) Build() (*Program, error) {
	if b.finalized {
		return nil, fmt.Errorf("isa: Build called twice")
	}
	b.finalized = true
	n := len(b.prog.Instrs)
	if n == 0 || b.prog.Instrs[n-1].Op != Halt {
		b.prog.Instrs = append(b.prog.Instrs, Instr{Op: Halt})
	}
	for pc, in := range b.prog.Instrs {
		if in.Op.IsBranch() {
			if _, ok := b.prog.Labels[in.Target]; !ok {
				return nil, fmt.Errorf("isa: %s at %d: undefined label %q", in.Op, pc, in.Target)
			}
		}
	}
	return &b.prog, nil
}

// MustBuild is Build, panicking on error (for hand-written library kernels).
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// Disassemble renders the whole program with labels interleaved.
func (p *Program) Disassemble() string {
	labelsAt := map[int][]string{}
	for name, idx := range p.Labels {
		labelsAt[idx] = append(labelsAt[idx], name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s (%d instrs)\n", p.Name, len(p.Instrs))
	for _, r := range p.Layout.Regions() {
		fmt.Fprintf(&b, "; region %-8s base=%-5d len=%d\n", r.Name, r.Base, r.Len)
	}
	for pc, in := range p.Instrs {
		names := labelsAt[pc]
		sort.Strings(names)
		for _, l := range names {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "  %3d  %s\n", pc, in)
	}
	return b.String()
}

// OpHistogram counts instructions by opcode (static, not dynamic).
func (p *Program) OpHistogram() map[Opcode]int {
	h := map[Opcode]int{}
	for _, in := range p.Instrs {
		h[in.Op]++
	}
	return h
}
