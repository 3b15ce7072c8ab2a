package vir

import "slices"

// Rematerialize bounds register live ranges in straight-line code: when a
// value produced by a cheap, pure data-movement cone (loads, constants,
// splats, shuffles, selects) is next used more than `window` emitted
// instructions after its previous touch, the cone is cloned at the use
// instead of keeping the register alive across the gap. This is the
// live-range splitting a real compiler's register allocator performs via
// rematerialization, and it is what lets LVN-deduplicated loads be shared
// *locally* without inflating register pressure globally.
//
// The pass runs after Optimize (a later LVN would undo it). Cloned cones
// are bounded to maxConeSize instructions so rematerialization never
// re-introduces meaningful compute.
func Rematerialize(p *Program, window int) *Program {
	if window <= 0 {
		window = 32
	}
	const maxConeSize = 4

	defs := make([]*Instr, p.NumValues())
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.ID != None {
			defs[in.ID] = in
		}
	}
	rematable := func(id ID) bool {
		d := defs[id]
		if d == nil {
			return false
		}
		switch d.Op {
		case LoadV, LoadS, ConstV, ConstS, Splat, Shuffle, Select:
			return true
		}
		return false
	}
	// coneSize counts the instructions a clone of id would need,
	// following remat-able args only.
	var coneSize func(id ID, budget int) int
	coneSize = func(id ID, budget int) int {
		if budget <= 0 {
			return 1 << 20
		}
		n := 1
		for _, a := range defs[id].Args {
			if rematable(a) {
				n += coneSize(a, budget-n)
			}
		}
		return n
	}

	// The pass runs twice: a dry run that only counts what it would emit,
	// then the real one into a program sized to fit. Both runs make the
	// same choices, which depend only on positions, not on the output.
	remap := make([]ID, p.NumValues())
	lastTouch := make([]int, p.NumValues())
	var out rematOut
	run := func() {
		for i := range remap {
			remap[i] = None
			lastTouch[i] = -1
		}
		out.pos, out.next = 0, 0

		// clone re-emits the movement cone for id, returning the fresh value.
		var clone func(id ID) ID
		clone = func(id ID) ID {
			d := defs[id]
			n := *d
			n.Args = out.args(len(d.Args))
			for i, a := range d.Args {
				if rematable(a) && coneSize(a, maxConeSize) <= maxConeSize {
					n.Args[i] = clone(a)
				} else {
					// Keep referencing the live (or revived) original.
					n.Args[i] = remap[a]
					lastTouch[a] = out.pos
				}
			}
			return out.emit(n)
		}

		for i := range p.Instrs {
			in := &p.Instrs[i]
			n := *in
			n.Args = out.args(len(in.Args))
			for j, a := range in.Args {
				stale := lastTouch[a] >= 0 && out.pos-lastTouch[a] > window
				if stale && rematable(a) && coneSize(a, maxConeSize) <= maxConeSize {
					fresh := clone(a)
					remap[a] = fresh
					lastTouch[a] = out.pos - 1
				}
				n.Args[j] = remap[a]
				lastTouch[a] = out.pos
			}
			id := out.emit(n)
			if in.ID != None {
				remap[in.ID] = id
				lastTouch[in.ID] = out.pos - 1
			}
		}
	}
	run()
	out.prog = p.derive(out.pos)
	out.arena = newArgArena(out.nargs)
	run()
	return out.prog
}

// rematOut is where Rematerialize emits: a dry run with prog nil only
// counts instructions and arguments, and the real run appends to prog.
type rematOut struct {
	prog    *Program
	arena   argArena
	scratch []ID // a dry run's Args, shared and never read back
	pos     int  // instructions emitted so far
	next    ID   // the next value a dry run numbers
	nargs   int  // the Args a dry run emitted
}

// args returns room for an emitted instruction's n arguments.
func (o *rematOut) args(n int) []ID {
	if o.prog != nil {
		return o.arena.take(n)
	}
	o.nargs += n
	o.scratch = slices.Grow(o.scratch[:0], n)[:n]
	return o.scratch
}

// emit emits in and returns its value, numbering values as Program.Emit
// does.
func (o *rematOut) emit(in Instr) ID {
	o.pos++
	if o.prog != nil {
		return o.prog.Emit(in)
	}
	if in.Op.IsStore() {
		return None
	}
	o.next++
	return o.next - 1
}

// MaxLive computes the peak number of simultaneously live vector and
// scalar values in the straight-line program — the register pressure a
// linear-scan allocator faces.
func MaxLive(p *Program) (vectors, scalars int) {
	lastUse := make([]int, p.NumValues())
	for i := range lastUse {
		lastUse[i] = -1
	}
	isVec := make([]bool, p.NumValues())
	for i := range p.Instrs {
		in := &p.Instrs[i]
		for _, a := range in.Args {
			lastUse[a] = i
		}
		if in.ID != None {
			isVec[in.ID] = in.Op.IsVectorValue()
		}
	}
	// endsV[i] and endsS[i] count the vector and scalar values whose last
	// use is instruction i.
	endsV := make([]int32, len(p.Instrs))
	endsS := make([]int32, len(p.Instrs))
	for id, end := range lastUse {
		if end < 0 {
			continue
		}
		if isVec[id] {
			endsV[end]++
		} else {
			endsS[end]++
		}
	}
	liveV, liveS := 0, 0
	for i := range p.Instrs {
		if id := p.Instrs[i].ID; id != None && lastUse[id] >= 0 {
			if isVec[id] {
				liveV++
				vectors = max(vectors, liveV)
			} else {
				liveS++
				scalars = max(scalars, liveS)
			}
		}
		liveV -= int(endsV[i])
		liveS -= int(endsS[i])
	}
	return vectors, scalars
}

// BoundPressure applies Rematerialize with progressively smaller windows
// until the program's register pressure fits the budget (or the window
// floor is reached). Programs already within budget are returned unchanged,
// so small kernels pay nothing.
func BoundPressure(p *Program, budget int) *Program {
	for window := 128; window >= 8; window /= 2 {
		v, s := MaxLive(p)
		if v <= budget && s <= budget {
			return p
		}
		p = Rematerialize(p, window)
	}
	return p
}
