package rules

import (
	"slices"

	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// operand is one argument of a per-lane decomposition: either an existing
// e-class or a literal to be created at apply time (searchers never mutate
// the graph).
type operand struct {
	lit   float64
	class egraph.ClassID
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
// operator to introduce and, lane by lane, the operand tuple each lane
// decomposes into. ops holds the lanes' tuples back to back, and is the
// match's own: searcher scratch is never shared with it.
type vecMatch struct {
	op    expr.Op      // vector operator (VecAdd, VecMul, ..., VecFunc)
	sym   egraph.SymID // interned function name for VecFunc
	lanes int
	ops   []operand
}

// classHasLit reports whether the class contains the literal v.
func classHasLit(g *egraph.EGraph, id egraph.ClassID, v float64) bool {
	cls := g.Class(id)
	if cls == nil {
		return false
	}
	for _, ni := range cls.Nodes {
		if n := g.Node(ni); n.Op == expr.OpLit && n.Lit == v {
			return true
		}
	}
	return false
}

// laneSearch is the state of one SearchClasses call of a vector rule. Its
// scratch is reused across the Vec nodes and operator families the call
// visits: the n operand tuples the lanes of the current Vec node decompose
// into, back to back and lane-major (ends[i] is the tuple count through
// lane i), the odometer enumerate walks them with, the operands of the
// node's lane combinations, and the function names searchFunc has tried.
// A call owns its scratch, so concurrent searches of one rule share
// nothing, and enumerate copies every fresh match's operands out of it: a
// match's Data must stay valid after the next search reuses the buffers.
//
// cached is the rule's cached list (nil on a full search) and at its
// matches at the class being searched. A combination equal to one of them
// is returned as that match, its position in out set in reused.
type laneSearch struct {
	g      *egraph.EGraph
	ops    []operand
	n      int
	ends   []int
	odo    []int
	combo  []operand
	tried  []egraph.SymID
	cached []egraph.Match
	at     []egraph.Match
	out    []egraph.Match
	reused egraph.Bitset
}

// newLaneSearch starts a search of classes. With a cached list it sizes
// the result for the matches cached at those classes, which a search of a
// class whose matches did not change finds again.
func newLaneSearch(g *egraph.EGraph, classes []*egraph.EClass, cached []egraph.Match) laneSearch {
	ls := laneSearch{g: g, cached: cached}
	if cached != nil {
		n := 0
		for _, cls := range classes {
			n += len(egraph.MatchesAt(cached, cls.ID))
		}
		ls.out = make([]egraph.Match, 0, n)
	}
	return ls
}

// reset starts the decomposition of a new Vec node.
func (ls *laneSearch) reset() { ls.ops, ls.n, ls.ends = ls.ops[:0], 0, ls.ends[:0] }

// endLane closes the current lane, which added k tuples, and reports
// whether it has any.
func (ls *laneSearch) endLane(k int) bool {
	if k == 0 {
		return false
	}
	ls.ends = append(ls.ends, ls.n)
	return true
}

// add appends one decomposition of the current lane.
func (ls *laneSearch) add(ops ...operand) {
	ls.ops = append(ls.ops, ops...)
	ls.n++
}

// addNode appends the node's children as one decomposition of the
// current lane, or nothing when its arity differs.
func (ls *laneSearch) addNode(n egraph.ENode, arity int) bool {
	if len(n.Args) != arity {
		return false
	}
	for _, a := range n.Args {
		ls.ops = append(ls.ops, operand{class: a})
	}
	ls.n++
	return true
}

// enumerate appends one match per lane combination of the decomposed Vec
// node, up to maxCombos, in odometer order (the first combination takes
// each lane's first tuple). A combination equal to a cached match at the
// class is that match, reused; the node's other matches share one fresh
// operand array, each its own disjoint part of it.
func (ls *laneSearch) enumerate(class egraph.ClassID, op expr.Op, sym egraph.SymID, arity int) {
	lanes := len(ls.ends)
	combos := 1
	for i := 0; i < lanes && combos < maxCombos; i++ {
		combos *= ls.ends[i] - ls.start(i)
	}
	combos = min(combos, maxCombos)
	width := lanes * arity
	combo := slices.Grow(ls.combo[:0], combos*width)[:combos*width]
	ls.combo = combo
	odo := ls.odo[:0]
	for range lanes {
		odo = append(odo, 0)
	}
	ls.odo = odo
	var hits [maxCombos]*vecMatch
	fresh := 0
	for c := range combos {
		dst := combo[c*width : (c+1)*width]
		for i, k := range odo {
			from := (ls.start(i) + k) * arity
			copy(dst[i*arity:], ls.ops[from:from+arity])
		}
		if hits[c] = ls.cachedMatch(op, sym, lanes, dst); hits[c] == nil {
			fresh++
		}
		// Advance the odometer, last lane fastest.
		for i := lanes - 1; i >= 0; i-- {
			if odo[i]++; odo[i] < ls.ends[i]-ls.start(i) {
				break
			}
			odo[i] = 0
		}
	}
	var ops []operand
	var ms []vecMatch
	if fresh > 0 {
		ops, ms = make([]operand, fresh*width), make([]vecMatch, fresh)
	}
	for c, vm := range hits[:combos] {
		if vm != nil {
			ls.reused.Set(len(ls.out))
		} else {
			dst := ops[:width:width]
			copy(dst, combo[c*width:])
			ms[0] = vecMatch{op: op, sym: sym, lanes: lanes, ops: dst}
			vm, ops, ms = &ms[0], ops[width:], ms[1:]
		}
		ls.out = append(ls.out, egraph.Match{Class: class, Data: vm})
	}
}

// cachedMatch returns the cached match at the current class whose payload
// equals the combination ops of the vector operator op (and symbol sym)
// over the given lanes, or nil.
func (ls *laneSearch) cachedMatch(op expr.Op, sym egraph.SymID, lanes int, ops []operand) *vecMatch {
	for _, mt := range ls.at {
		if vm := mt.Data.(*vecMatch); vm.op == op && vm.sym == sym && vm.lanes == lanes && slices.Equal(vm.ops, ops) {
			return vm
		}
	}
	return nil
}

// start is the index of lane i's first tuple.
func (ls *laneSearch) start(i int) int {
	if i == 0 {
		return 0
	}
	return ls.ends[i-1]
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

// SearchClasses reuses every cached match it finds again (laneSearch).
func (r vectorizeRule) SearchClasses(g *egraph.EGraph, classes []*egraph.EClass, cached []egraph.Match) ([]egraph.Match, egraph.Bitset) {
	ls := newLaneSearch(g, classes, cached)
	for _, cls := range classes {
		ls.at = egraph.MatchesAt(ls.cached, cls.ID)
		for _, ni := range cls.Nodes {
			vecNode := g.Node(ni)
			if vecNode.Op != expr.OpVec || !r.ws[len(vecNode.Args)] {
				continue
			}
			for _, fam := range laneOps {
				if ls.laneDecompositions(vecNode.Args, fam.scalar, fam.arity, fam.zero) {
					ls.enumerate(cls.ID, fam.vector, egraph.NoSym, fam.arity)
				}
			}
			ls.searchFunc(cls.ID, vecNode)
		}
	}
	return ls.out, ls.reused
}

// searchFunc vectorizes lanes that all call the same uninterpreted function
// with the same arity: (Vec (func f a) (func f b) ...) ⇝ (VecFunc f (Vec a b ...)).
// This is the extension hook §6 describes (e.g. a target recip instruction).
func (ls *laneSearch) searchFunc(class egraph.ClassID, vecNode egraph.ENode) {
	g := ls.g
	// Collect candidate (name, arity) pairs from the first lane.
	first := g.Class(vecNode.Args[0])
	if first == nil {
		return
	}
	ls.tried = ls.tried[:0]
	for _, fi := range first.Nodes {
		fn := g.Node(fi)
		if fn.Op != expr.OpFunc || slices.Contains(ls.tried, fn.Sym) {
			continue
		}
		ls.tried = append(ls.tried, fn.Sym)
		arity := len(fn.Args)
		ls.reset()
		ok := true
		for _, lane := range vecNode.Args {
			k := 0
			for _, li := range g.Class(lane).Nodes {
				ln := g.Node(li)
				if ln.Op == expr.OpFunc && ln.Sym == fn.Sym && ls.addNode(ln, arity) {
					if k++; k >= maxLaneAlts {
						break
					}
				}
			}
			if !ls.endLane(k) {
				ok = false
				break
			}
		}
		if ok {
			ls.enumerate(class, expr.OpVecFunc, fn.Sym, arity)
		}
	}
}

// laneDecompositions finds, for every lane class, up to maxLaneAlts operand
// tuples under the scalar operator op (or the zero tuple for literal-zero
// lanes), leaving them in the scratch. It reports false, having allocated
// nothing once the scratch has grown, if some lane has no decomposition
// or if no lane decomposed through an actual operator node.
func (ls *laneSearch) laneDecompositions(lanes []egraph.ClassID, op expr.Op, arity int, zero []operand) bool {
	g := ls.g
	ls.reset()
	anyReal := false
	for _, lane := range lanes {
		cls := g.Class(lane)
		if cls == nil {
			return false
		}
		k := 0
		for _, ni := range cls.Nodes {
			if n := g.Node(ni); n.Op == op && ls.addNode(n, arity) {
				anyReal = true
				if k++; k >= maxLaneAlts {
					break
				}
			}
		}
		if k == 0 && zero != nil && classHasLit(g, lane, 0) {
			ls.add(zero...)
			k = 1
		}
		if !ls.endLane(k) {
			return false
		}
	}
	return anyReal
}

func (r vectorizeRule) Apply(g *egraph.EGraph, m egraph.Match) bool {
	vm := m.Data.(*vecMatch)
	arity := len(vm.ops) / vm.lanes
	// Add copies a node's children, so both buffers are reused.
	var argBuf [3]egraph.ClassID
	var laneBuf [8]egraph.ClassID
	argVecs := argBuf[:0]
	for j := 0; j < arity; j++ {
		laneIDs := laneBuf[:0]
		for i := 0; i < vm.lanes; i++ {
			laneIDs = append(laneIDs, vm.ops[i*arity+j].resolve(g))
		}
		argVecs = append(argVecs, g.Add(egraph.ENode{Op: expr.OpVec, Args: laneIDs}))
	}
	id := g.Add(egraph.ENode{Op: vm.op, Sym: vm.sym, Args: argVecs})
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
// As in the paper, these equivalences live in the searcher rather than as
// rewrite rules in the e-graph. The runner searches a Vec class again only
// when something within two hops below it changed, and a triple set equal
// to one the last search found reuses that match and is not applied again
// (laneSearch), so the cost of the custom matching tracks what changed.
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

// SearchClasses reuses every cached match it finds again (laneSearch).
func (r macRule) SearchClasses(g *egraph.EGraph, classes []*egraph.EClass, cached []egraph.Match) ([]egraph.Match, egraph.Bitset) {
	ls := newLaneSearch(g, classes, cached)
	for _, cls := range classes {
		ls.at = egraph.MatchesAt(ls.cached, cls.ID)
		for _, ni := range cls.Nodes {
			vecNode := g.Node(ni)
			if vecNode.Op != expr.OpVec || !r.ws[len(vecNode.Args)] {
				continue
			}
			if ls.macLanes(vecNode.Args) {
				ls.enumerate(cls.ID, expr.OpVecMAC, egraph.NoSym, 3)
			}
		}
	}
	return ls.out, ls.reused
}

// macLanes computes per-lane (acc, b, c) triples into the scratch. It
// reports false, allocating nothing once the scratch has grown, if some
// lane has no triple or if no lane matched a genuine (+ _ (* _ _)) form —
// then the plain VecMul rule is the right tool and MAC would only add
// noise.
func (ls *laneSearch) macLanes(lanes []egraph.ClassID) bool {
	g := ls.g
	zero := litOperand(0)
	ls.reset()
	anySum := false
	for _, lane := range lanes {
		cls := g.Class(lane)
		if cls == nil {
			return false
		}
		k := 0
	scan:
		for _, ni := range cls.Nodes {
			switch n := g.Node(ni); n.Op {
			case expr.OpAdd:
				// (+ acc (* b c)) and (+ (* b c) acc).
				for side := 0; side < 2; side++ {
					prod, acc := n.Args[1-side], n.Args[side]
					for _, pi := range g.Class(prod).Nodes {
						if pn := g.Node(pi); pn.Op == expr.OpMul {
							anySum = true
							ls.add(operand{class: acc}, operand{class: pn.Args[0]}, operand{class: pn.Args[1]})
							if k++; k >= maxLaneAlts {
								break scan
							}
						}
					}
				}
			case expr.OpMul:
				// Bare product: acc = 0.
				ls.add(zero, operand{class: n.Args[0]}, operand{class: n.Args[1]})
				if k++; k >= maxLaneAlts {
					break scan
				}
			}
		}
		if k == 0 && classHasLit(g, lane, 0) {
			ls.add(zero, zero, zero)
			k = 1
		}
		if !ls.endLane(k) {
			return false
		}
	}
	return anySum
}

func (r macRule) Apply(g *egraph.EGraph, m egraph.Match) bool {
	return vectorizeRule{}.Apply(g, m)
}
