package rules

import (
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// operand is one argument of a per-lane decomposition: either an existing
// e-class or a literal to be created at apply time (searchers never mutate
// the graph).
type operand struct {
	class egraph.ClassID
	lit   float64
	isLit bool
}

func litOperand(v float64) operand { return operand{lit: v, isLit: true} }

func (o operand) resolve(g *egraph.EGraph) egraph.ClassID {
	if o.isLit {
		return g.AddLit(o.lit)
	}
	return o.class
}

// vecMatch is the applier payload for lane-wise vectorization: the vector
// operator to introduce and, for each lane, the operand tuple it
// decomposes into.
type vecMatch struct {
	op    expr.Op      // vector operator (VecAdd, VecMul, ..., VecFunc)
	sym   egraph.SymID // interned function name for VecFunc
	lanes [][]operand
}

// classHasLit reports whether the class contains the literal v.
func classHasLit(g *egraph.EGraph, id egraph.ClassID, v float64) bool {
	cls := g.Class(id)
	if cls == nil {
		return false
	}
	for _, n := range cls.Nodes {
		if n.Op == expr.OpLit && n.Lit == v {
			return true
		}
	}
	return false
}

// vectorizeRule is the custom searcher/applier for lane-wise vectorization
// of scalar operators, tolerant of zero lanes (§3.3 "custom matching for
// vectorization"). For each Vec node it tries every scalar operator family:
// if each lane either applies that operator or is a constant zero that the
// operator can produce, it emits the vectorized equivalent, e.g.
//
//	(Vec (+ a b) 0 (+ c d) 0) ⇝ (VecAdd (Vec a 0 c 0) (Vec b 0 d 0))
type vectorizeRule struct {
	ws widthSet
}

func newVectorizeRule(cfg Config) egraph.Rewrite {
	return vectorizeRule{ws: newWidthSet(cfg)}
}

// widthSet is the set of configured machine widths, precomputed once so the
// per-node match filter allocates nothing.
type widthSet map[int]bool

func newWidthSet(cfg Config) widthSet {
	ws := widthSet{}
	for _, w := range cfg.widths() {
		ws[w] = true
	}
	return ws
}

func (vectorizeRule) Name() string { return "vec-lanewise" }

// RootOps: lane-wise vectorization only matches at classes containing a
// Vec node.
func (vectorizeRule) RootOps() []expr.Op { return []expr.Op{expr.OpVec} }

// ReadDepth: lane-wise matching reads the lane classes one hop below the
// Vec (their operator nodes, and classHasLit for zero lanes).
func (vectorizeRule) ReadDepth() int { return 1 }

// laneOps are the scalar operator families handled by vectorizeRule.
// zeroOps gives the operand tuple that makes the operator yield 0 for
// padding lanes, or nil when the operator cannot produce 0.
var laneOps = []struct {
	scalar, vector expr.Op
	arity          int
	zero           []operand
}{
	{expr.OpAdd, expr.OpVecAdd, 2, []operand{litOperand(0), litOperand(0)}},
	{expr.OpSub, expr.OpVecMinus, 2, []operand{litOperand(0), litOperand(0)}},
	{expr.OpMul, expr.OpVecMul, 2, []operand{litOperand(0), litOperand(0)}},
	{expr.OpDiv, expr.OpVecDiv, 2, []operand{litOperand(0), litOperand(1)}},
	{expr.OpNeg, expr.OpVecNeg, 1, []operand{litOperand(0)}},
	{expr.OpSqrt, expr.OpVecSqrt, 1, []operand{litOperand(0)}},
	// sgn never yields 0 (sgn(0)=1), so no zero-lane padding for it.
	{expr.OpSgn, expr.OpVecSgn, 1, nil},
}

func (r vectorizeRule) SearchClasses(g *egraph.EGraph, classes []*egraph.EClass) []egraph.Match {
	var out []egraph.Match
	for _, cls := range classes {
		for _, vecNode := range cls.Nodes {
			if vecNode.Op != expr.OpVec || !r.ws[len(vecNode.Args)] {
				continue
			}
			for _, fam := range laneOps {
				alts, anyReal := laneDecompositions(g, vecNode.Args, fam.scalar, fam.zero)
				if alts == nil || !anyReal {
					continue
				}
				for _, combo := range enumerate(alts) {
					out = append(out, egraph.Match{
						Class: cls.ID,
						Data:  vecMatch{op: fam.vector, lanes: combo},
					})
				}
			}
			out = append(out, r.searchFunc(g, cls.ID, vecNode)...)
		}
	}
	return out
}

// searchFunc vectorizes lanes that all call the same uninterpreted function
// with the same arity: (Vec (func f a) (func f b) ...) ⇝ (VecFunc f (Vec a b ...)).
// This is the extension hook §6 describes (e.g. a target recip instruction).
func (vectorizeRule) searchFunc(g *egraph.EGraph, class egraph.ClassID, vecNode egraph.ENode) []egraph.Match {
	// Collect candidate (name, arity) pairs from the first lane.
	first := g.Class(vecNode.Args[0])
	if first == nil {
		return nil
	}
	var out []egraph.Match
	tried := map[egraph.SymID]bool{}
	for _, n := range first.Nodes {
		if n.Op != expr.OpFunc || tried[n.Sym] {
			continue
		}
		tried[n.Sym] = true
		arity := len(n.Args)
		alts := make([][][]operand, 0, len(vecNode.Args))
		ok := true
		for _, lane := range vecNode.Args {
			var laneAlts [][]operand
			for _, ln := range g.Class(lane).Nodes {
				if ln.Op == expr.OpFunc && ln.Sym == n.Sym && len(ln.Args) == arity {
					ops := make([]operand, arity)
					for i, a := range ln.Args {
						ops[i] = operand{class: a}
					}
					laneAlts = append(laneAlts, ops)
					if len(laneAlts) >= maxLaneAlts {
						break
					}
				}
			}
			if len(laneAlts) == 0 {
				ok = false
				break
			}
			alts = append(alts, laneAlts)
		}
		if !ok {
			continue
		}
		for _, combo := range enumerate(alts) {
			out = append(out, egraph.Match{
				Class: class,
				Data:  vecMatch{op: expr.OpVecFunc, sym: n.Sym, lanes: combo},
			})
		}
	}
	return out
}

// laneDecompositions finds, for every lane class, up to maxLaneAlts operand
// tuples under the scalar operator op (or the zero tuple for literal-zero
// lanes). It returns nil if some lane has no decomposition. anyReal reports
// whether at least one lane decomposed through an actual operator node.
func laneDecompositions(g *egraph.EGraph, lanes []egraph.ClassID, op expr.Op, zero []operand) (alts [][][]operand, anyReal bool) {
	alts = make([][][]operand, 0, len(lanes))
	for _, lane := range lanes {
		var laneAlts [][]operand
		cls := g.Class(lane)
		if cls == nil {
			return nil, false
		}
		for _, n := range cls.Nodes {
			if n.Op != op {
				continue
			}
			ops := make([]operand, len(n.Args))
			for i, a := range n.Args {
				ops[i] = operand{class: a}
			}
			laneAlts = append(laneAlts, ops)
			anyReal = true
			if len(laneAlts) >= maxLaneAlts {
				break
			}
		}
		if len(laneAlts) == 0 && zero != nil && classHasLit(g, lane, 0) {
			laneAlts = append(laneAlts, zero)
		}
		if len(laneAlts) == 0 {
			return nil, false
		}
		alts = append(alts, laneAlts)
	}
	return alts, anyReal
}

// enumerate takes per-lane alternative lists and yields up to maxCombos
// full combinations (odometer order, so the first combination uses each
// lane's first alternative).
func enumerate(alts [][][]operand) [][][]operand {
	idx := make([]int, len(alts))
	var out [][][]operand
	for {
		combo := make([][]operand, len(alts))
		for i, k := range idx {
			combo[i] = alts[i][k]
		}
		out = append(out, combo)
		if len(out) >= maxCombos {
			return out
		}
		// Advance odometer.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(alts[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

func (r vectorizeRule) Apply(g *egraph.EGraph, m egraph.Match) bool {
	vm := m.Data.(vecMatch)
	arity := len(vm.lanes[0])
	argVecs := make([]egraph.ClassID, arity)
	for j := 0; j < arity; j++ {
		laneIDs := make([]egraph.ClassID, len(vm.lanes))
		for i := range vm.lanes {
			laneIDs[i] = vm.lanes[i][j].resolve(g)
		}
		argVecs[j] = g.Add(egraph.ENode{Op: expr.OpVec, Args: laneIDs})
	}
	node := egraph.ENode{Op: vm.op, Sym: vm.sym, Args: argVecs}
	id := g.Add(node)
	_, changed := g.Union(m.Class, id)
	return changed
}

// macRule is the custom VecMAC searcher (§3.3 "associativity &
// commutativity"): each lane independently matches one of
//
//	(+ a (* b c))   (+ (* b c) a)   (* b c)   0
//
// and the applier collects the per-lane (a, b, c) triples into
// (VecMAC (Vec a...) (Vec b...) (Vec c...)), mapping missing values to 0.
// These equivalences are recomputed every iteration rather than persisted
// in the e-graph, trading compute for memory exactly as the paper does.
type macRule struct {
	ws widthSet
}

func newMACRule(cfg Config) egraph.Rewrite {
	return macRule{ws: newWidthSet(cfg)}
}

func (macRule) Name() string { return "vec-mac" }

// RootOps: MAC fusion only matches at classes containing a Vec node.
func (macRule) RootOps() []expr.Op { return []expr.Op{expr.OpVec} }

// ReadDepth: MAC matching reads the lanes and, under a lane's + node, the
// product's class two hops below the Vec.
func (macRule) ReadDepth() int { return 2 }

func (r macRule) SearchClasses(g *egraph.EGraph, classes []*egraph.EClass) []egraph.Match {
	var out []egraph.Match
	for _, cls := range classes {
		for _, vecNode := range cls.Nodes {
			if vecNode.Op != expr.OpVec || !r.ws[len(vecNode.Args)] {
				continue
			}
			alts, anySum := macLanes(g, vecNode.Args)
			if alts == nil || !anySum {
				continue
			}
			for _, combo := range enumerate(alts) {
				out = append(out, egraph.Match{
					Class: cls.ID,
					Data:  vecMatch{op: expr.OpVecMAC, lanes: combo},
				})
			}
		}
	}
	return out
}

// macLanes computes per-lane (acc, b, c) triples. anySum reports whether at
// least one lane matched a genuine (+ _ (* _ _)) form — if none did, the
// plain VecMul rule is the right tool and MAC would only add noise.
func macLanes(g *egraph.EGraph, lanes []egraph.ClassID) (alts [][][]operand, anySum bool) {
	zero := litOperand(0)
	alts = make([][][]operand, 0, len(lanes))
	for _, lane := range lanes {
		var laneAlts [][]operand
		cls := g.Class(lane)
		if cls == nil {
			return nil, false
		}
		addAlt := func(a []operand) bool {
			laneAlts = append(laneAlts, a)
			return len(laneAlts) >= maxLaneAlts
		}
	scan:
		for _, n := range cls.Nodes {
			switch n.Op {
			case expr.OpAdd:
				// (+ acc (* b c)) and (+ (* b c) acc).
				for side := 0; side < 2; side++ {
					prod, acc := n.Args[1-side], n.Args[side]
					for _, pn := range g.Class(prod).Nodes {
						if pn.Op == expr.OpMul {
							anySum = true
							if addAlt([]operand{{class: acc}, {class: pn.Args[0]}, {class: pn.Args[1]}}) {
								break scan
							}
						}
					}
				}
			case expr.OpMul:
				// Bare product: acc = 0.
				if addAlt([]operand{zero, {class: n.Args[0]}, {class: n.Args[1]}}) {
					break scan
				}
			}
		}
		if len(laneAlts) == 0 && classHasLit(g, lane, 0) {
			laneAlts = append(laneAlts, []operand{zero, zero, zero})
		}
		if len(laneAlts) == 0 {
			return nil, false
		}
		alts = append(alts, laneAlts)
	}
	return alts, anySum
}

func (r macRule) Apply(g *egraph.EGraph, m egraph.Match) bool {
	return vectorizeRule{}.Apply(g, m)
}
