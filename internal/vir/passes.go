package vir

// rewrite is one program under in-place rewriting, which is how the
// passes consume their input. No pass moves an instruction: a value a pass
// removes is forwarded to the value that replaces it (LVN, an identity
// shuffle) or to None (DCE), and a pass rewrites an instruction's Args
// through fwd when it visits it. The input keeps its length, which callers
// may still read. Only compact copies the live instructions out, once.
type rewrite struct {
	p *Program
	// fwd maps each value to itself while it is live, to the earlier value
	// that replaces it, or to None once it is dead.
	fwd []ID
}

func newRewrite(p *Program) *rewrite {
	fwd := make([]ID, p.NumValues())
	for i := range fwd {
		fwd[i] = ID(i)
	}
	return &rewrite{p: p, fwd: fwd}
}

// live reports whether in is still part of the program: a store always
// is, a value until a pass forwards it.
func (r *rewrite) live(in *Instr) bool { return in.ID == None || r.fwd[in.ID] == in.ID }

// resolve rewrites in's Args through the forwarding table.
func (r *rewrite) resolve(in *Instr) {
	for j, a := range in.Args {
		in.Args[j] = r.fwd[a]
	}
}

// compact returns the live instructions, in order and numbered 0, 1, 2, ...
// as Emit numbers them, in a new program whose instruction and argument
// slices are both exactly full (each Args capacity-clipped). It spends the
// rewrite: fwd then holds the new numbers.
func (r *rewrite) compact() *Program {
	kept, nargs := 0, 0
	for i := range r.p.Instrs {
		if in := &r.p.Instrs[i]; r.live(in) {
			kept++
			nargs += len(in.Args)
		}
	}
	out := NewProgram(r.p.Name, r.p.Width, r.p.Inputs, r.p.Outputs)
	out.Instrs = make([]Instr, 0, kept)
	args := make([]ID, nargs)
	for i := range r.p.Instrs {
		in := &r.p.Instrs[i]
		if !r.live(in) {
			continue
		}
		n := *in
		n.Args, args = args[:len(in.Args):len(in.Args)], args[len(in.Args):]
		for j, a := range in.Args {
			n.Args[j] = r.fwd[a]
		}
		if in.ID != None {
			r.fwd[in.ID] = out.next
		}
		out.Emit(n)
	}
	return out
}

// lvn performs local value numbering: a pure instruction computing a
// value an earlier live one computes is forwarded to it. Because the IR is
// SSA and stores never write memory that loads read (kernels read inputs
// and write outputs, and outputs are distinct arrays), loads participate
// in numbering too.
func (r *rewrite) lvn(t *valueTable) {
	t.reset()
	for i := range r.p.Instrs {
		in := &r.p.Instrs[i]
		if !r.live(in) {
			continue
		}
		r.resolve(in)
		if in.ID == None {
			continue
		}
		if first := t.first(r.p.Instrs, i); first != i {
			r.fwd[in.ID] = r.p.Instrs[first].ID
		}
	}
}

// dce forwards to None every pure value no store uses, directly or
// transitively. In straight-line SSA code every use follows its
// definition, so one backward sweep sees all of a value's uses before the
// value itself.
func (r *rewrite) dce() {
	used := make([]bool, len(r.fwd))
	for i := len(r.p.Instrs) - 1; i >= 0; i-- {
		in := &r.p.Instrs[i]
		if !r.live(in) {
			continue
		}
		if in.ID != None && !used[in.ID] {
			r.fwd[in.ID] = None
			continue
		}
		for _, a := range in.Args {
			used[a] = true
		}
	}
}

// LVN performs local value numbering over the straight-line program:
// pure instructions computing a value already computed are removed and
// their uses redirected. It consumes p.
//
// This is the pass the paper credits (§4) with shrinking the quaternion
// product kernel from over 100k lines of C++ to under 500.
func LVN(p *Program) *Program {
	r := newRewrite(p)
	r.lvn(newValueTable(len(p.Instrs)))
	return r.compact()
}

// DCE removes pure instructions whose values are never used (directly or
// transitively) by a store. It consumes p.
func DCE(p *Program) *Program {
	r := newRewrite(p)
	r.dce()
	return r.compact()
}

// Optimize runs the standard backend cleanup pipeline: value numbering,
// shuffle/select fusion (which exposes more value numbering), and dead-code
// elimination. It consumes p: the four passes rewrite p in place, the two
// value numberings share one table, and the result is the one copy made.
func Optimize(p *Program) *Program {
	r := newRewrite(p)
	t := newValueTable(len(p.Instrs))
	r.lvn(t)
	r.fuse()
	r.lvn(t)
	r.dce()
	return r.compact()
}

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
