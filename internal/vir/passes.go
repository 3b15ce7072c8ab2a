package vir

// LVN performs local value numbering over the straight-line program:
// pure instructions computing a value already computed are removed and
// their uses redirected. Because the IR is SSA and stores never write
// memory that loads read (kernels read inputs and write outputs, and
// outputs are distinct arrays), loads participate in numbering too.
//
// This is the pass the paper credits (§4) with shrinking the quaternion
// product kernel from over 100k lines of C++ to under 500.
func LVN(p *Program) *Program {
	keep := make([]bool, len(p.Instrs))
	remap := make([]ID, p.NumValues()) // old value -> its number in the output
	values := newValueTable(len(p.Instrs))
	var key []byte
	var args []ID // the current instruction's remapped Args, reused
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op.IsStore() {
			keep[i] = true
			continue
		}
		args = args[:0]
		for _, a := range in.Args {
			args = append(args, remap[a])
		}
		n := *in
		n.Args = args
		key = n.appendKey(key[:0])
		id, found := values.number(key)
		remap[in.ID] = id
		keep[i] = !found
	}
	return p.rebuild(keep, remap)
}

// DCE removes pure instructions whose values are never used (directly or
// transitively) by a store.
func DCE(p *Program) *Program {
	def := make([]int, p.NumValues()) // value -> index of its defining instr
	for i := range p.Instrs {
		if id := p.Instrs[i].ID; id != None {
			def[id] = i
		}
	}
	live := make([]bool, p.NumValues())
	var work []ID
	for i := range p.Instrs {
		if p.Instrs[i].Op.IsStore() {
			work = append(work, p.Instrs[i].Args...)
		}
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		if id == None || live[id] {
			continue
		}
		live[id] = true
		work = append(work, p.Instrs[def[id]].Args...)
	}

	keep := make([]bool, len(p.Instrs))
	remap := make([]ID, p.NumValues())
	next := ID(0)
	for i := range p.Instrs {
		switch id := p.Instrs[i].ID; {
		case id == None:
			keep[i] = true
		case live[id]:
			keep[i] = true
			remap[id] = next
			next++
		}
	}
	return p.rebuild(keep, remap)
}

// rebuild returns the instructions keep marks, in order, with their Args
// renumbered through remap, in a program sized to fit. remap must number
// the kept values 0, 1, 2, ... in order, as Emit numbers them.
func (p *Program) rebuild(keep []bool, remap []ID) *Program {
	kept, nargs := 0, 0
	for i, k := range keep {
		if k {
			kept++
			nargs += len(p.Instrs[i].Args)
		}
	}
	out := p.derive(kept)
	arena := newArgArena(nargs)
	for i := range p.Instrs {
		if !keep[i] {
			continue
		}
		n := p.Instrs[i]
		n.Args = arena.take(len(n.Args))
		for j, a := range p.Instrs[i].Args {
			n.Args[j] = remap[a]
		}
		out.Emit(n)
	}
	return out
}

// Optimize runs the standard backend cleanup pipeline: value numbering,
// shuffle/select fusion (which exposes more value numbering), and dead-code
// elimination.
func Optimize(p *Program) *Program { return DCE(LVN(FuseShuffles(LVN(p)))) }

// UseCounts returns, for each value, how many times it is used as an
// argument. The code generator uses this for last-use register reuse.
func (p *Program) UseCounts() []int {
	counts := make([]int, p.NumValues())
	for _, in := range p.Instrs {
		for _, a := range in.Args {
			if a != None {
				counts[a]++
			}
		}
	}
	return counts
}
