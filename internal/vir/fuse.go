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
// iterates to a fixpoint.
func FuseShuffles(p *Program) *Program {
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
			switch in.Op {
			case Shuffle:
				src := defs[in.Args[0]]
				switch {
				case src != nil && src.Op == Shuffle:
					// shuffle(shuffle(a, s1), s2): lane k reads s1[s2[k]].
					idx := make([]int, w)
					for k := 0; k < w; k++ {
						idx[k] = src.Idx[in.Idx[k]]
					}
					in.Args = []ID{src.Args[0]}
					in.Idx = idx
					changed = true
				case src != nil && src.Op == Select:
					// shuffle(select(a, b, idx), s): lane k reads idx[s[k]].
					idx := make([]int, w)
					for k := 0; k < w; k++ {
						idx[k] = src.Idx[in.Idx[k]]
					}
					in.Op = Select
					in.Args = []ID{src.Args[0], src.Args[1]}
					in.Idx = idx
					changed = true
				case isIdentityIdx(in.Idx):
					// Identity shuffle: forward the operand to all later
					// uses; DCE removes the orphaned shuffle afterwards.
					if replaceUses(p, in.ID, in.Args[0], i+1) > 0 {
						changed = true
					}
				}
			case Select:
				a := defs[in.Args[0]]
				b := defs[in.Args[1]]
				if a != nil && a.Op == Shuffle {
					idx := make([]int, w)
					for k := 0; k < w; k++ {
						if in.Idx[k] < w {
							idx[k] = a.Idx[in.Idx[k]]
						} else {
							idx[k] = in.Idx[k]
						}
					}
					in.Args = []ID{a.Args[0], in.Args[1]}
					in.Idx = idx
					changed = true
					break
				}
				if b != nil && b.Op == Shuffle {
					idx := make([]int, w)
					for k := 0; k < w; k++ {
						if in.Idx[k] >= w {
							idx[k] = w + b.Idx[in.Idx[k]-w]
						} else {
							idx[k] = in.Idx[k]
						}
					}
					in.Args = []ID{in.Args[0], b.Args[0]}
					in.Idx = idx
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
				if allA {
					in.Op = Shuffle
					in.Args = []ID{in.Args[0]}
					changed = true
				} else if allB {
					idx := make([]int, w)
					for k := 0; k < w; k++ {
						idx[k] = in.Idx[k] - w
					}
					in.Op = Shuffle
					in.Args = []ID{in.Args[1]}
					in.Idx = idx
					changed = true
				}
			}
		}
		if !changed {
			return p
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

// replaceUses rewrites argument references to `from` with `to` in
// instructions from index `start` onward (SSA: uses follow the
// definition), returning how many references changed.
func replaceUses(p *Program, from, to ID, start int) int {
	n := 0
	for i := start; i < len(p.Instrs); i++ {
		for j, a := range p.Instrs[i].Args {
			if a == from {
				p.Instrs[i].Args[j] = to
				n++
			}
		}
	}
	return n
}
