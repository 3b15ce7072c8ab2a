package vir

// FuseShuffles composes adjacent data-movement operations:
//
//   - shuffle(shuffle(a, s1), s2)      → shuffle(a, s1∘s2)
//   - select(shuffle(a, s), b, idx)    → select(a, b, idx′)
//   - select(a, shuffle(b, s), idx)    → select(a, b, idx′)
//   - shuffle(select(a, b, idx), s)    → select(a, b, idx∘s)
//   - select with all lanes from one side → shuffle
//   - identity shuffle                 → pass-through
//
// Each rewrite removes one data-movement instruction from every dependent
// chain; a following DCE pass collects the orphaned producers. The pass
// iterates to a fixpoint and consumes p.
func FuseShuffles(p *Program) *Program {
	r := newRewrite(p)
	r.fuse()
	return r.compact()
}

// fuse runs FuseShuffles' rewrites over the live instructions to a
// fixpoint. A rewrite edits the instruction's Args and Idx in place, so no
// two instructions may share them. Lowering never shares them;
// Rematerialize's clones share Idx, but they run after the last fusion.
func (r *rewrite) fuse() {
	p := r.p
	w := p.Width
	// Rewrites change instructions in place and never their IDs, so each
	// value keeps its defining instruction across iterations.
	defs := make([]*Instr, p.NumValues())
	for i := range p.Instrs {
		if in := &p.Instrs[i]; in.ID != None {
			defs[in.ID] = in
		}
	}
	for {
		changed := false
		for i := range p.Instrs {
			in := &p.Instrs[i]
			if !r.live(in) {
				continue
			}
			r.resolve(in)
			switch in.Op {
			case Shuffle:
				src := defs[in.Args[0]]
				switch {
				case src != nil && (src.Op == Shuffle || src.Op == Select):
					// shuffle(shuffle(a, s1), s2) and shuffle(select(a, b,
					// s1), s2) take src's op and operands: lane k reads
					// s1[s2[k]].
					for k := 0; k < w; k++ {
						in.Idx[k] = src.Idx[in.Idx[k]]
					}
					in.Op = src.Op
					in.Args = append(in.Args[:0], src.Args...)
					changed = true
				case isIdentityIdx(in.Idx):
					// Identity shuffle: forward it to its operand, which
					// later instructions then read instead.
					r.fwd[in.ID] = in.Args[0]
					changed = true
				}
			case Select:
				a := defs[in.Args[0]]
				b := defs[in.Args[1]]
				if a != nil && a.Op == Shuffle {
					for k := 0; k < w; k++ {
						if in.Idx[k] < w {
							in.Idx[k] = a.Idx[in.Idx[k]]
						}
					}
					in.Args[0] = a.Args[0]
					changed = true
					break
				}
				if b != nil && b.Op == Shuffle {
					for k := 0; k < w; k++ {
						if in.Idx[k] >= w {
							in.Idx[k] = w + b.Idx[in.Idx[k]-w]
						}
					}
					in.Args[1] = b.Args[0]
					changed = true
					break
				}
				// One-sided select → shuffle.
				allA, allB := true, true
				for k := 0; k < w; k++ {
					if in.Idx[k] < w {
						allB = false
					} else {
						allA = false
					}
				}
				if allB {
					for k := 0; k < w; k++ {
						in.Idx[k] -= w
					}
					in.Args[0] = in.Args[1]
				}
				if allA || allB {
					in.Op, in.Args, changed = Shuffle, in.Args[:1], true
				}
			}
		}
		if !changed {
			return
		}
	}
}

func isIdentityIdx(idx []int) bool {
	for k, v := range idx {
		if v != k {
			return false
		}
	}
	return true
}
