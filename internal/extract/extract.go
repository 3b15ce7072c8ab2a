// Package extract selects the cheapest program represented by an e-graph
// under a cost model (paper §3.4). Extraction runs a Bellman-style
// relaxation to a fixpoint, which terminates because the cost model is
// strictly monotonic. The first sweep prices every e-node. After it, a
// class whose choice improves marks its parent classes, each later sweep
// visits only the marked classes in ascending class ID, and a visit
// prices only the e-nodes whose children got cheaper (DESIGN.md §14.4).
// Each class's choice is a cost and a node-table ID.
package extract

import (
	"fmt"
	"math"
	"math/bits"

	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// Choice records the selected implementation of one e-class.
type Choice struct {
	Cost float64
	Node egraph.ENode
}

// noNode is the node of a class ID without a finite-cost implementation.
const noNode = ^egraph.NodeID(0)

// Extractor computes best choices for every class of a graph.
type Extractor struct {
	g     *egraph.EGraph
	model cost.Model
	// cost and node hold each canonical class's choice, indexed by
	// ClassID: the chosen node's total cost and its node-table ID. node is
	// noNode for a class without a finite-cost implementation and for
	// every non-canonical ID.
	cost []float64
	node []egraph.NodeID
	// children is childInfo's scratch buffer, reused across every call.
	children []cost.ChildInfo
	// pricings counts the nodes run priced, visits the classes it visited.
	pricings, visits int
}

// New prepares an extractor and runs the fixpoint computation. Models that
// price by symbol payload (cost.NeedsSyms, e.g. per-function overrides)
// are bound to this graph's intern table before any node is priced.
func New(g *egraph.EGraph, model cost.Model) *Extractor {
	if ns, ok := model.(cost.NeedsSyms); ok {
		model = ns.WithSyms(g.SymName)
	}
	ex := &Extractor{g: g, model: model}
	ex.run()
	return ex
}

func (ex *Extractor) run() {
	// Relax until no class's best cost improves. Costs only decrease, and
	// each node's own cost is strictly positive, so cyclic choices can
	// never undercut acyclic ones and the loop terminates. Extraction never
	// adds or merges classes, and each sweep visits classes in ascending
	// canonical ID, which fixes tie-breaks.
	classes := ex.g.CanonicalClasses()
	if len(classes) == 0 {
		return
	}
	ids := int(classes[len(classes)-1].ID) + 1
	ex.cost = make([]float64, ids)
	ex.node = make([]egraph.NodeID, ids)
	for i := range ex.node {
		ex.node[i] = noNode
	}
	// The relaxation is semi-naive (DESIGN.md §14.4). The clock ticks once
	// per improvement, improved[c] is the tick of class c's last one, and
	// priced[c] is the clock when a visit last began pricing c. After the
	// first sweep, a node none of whose children improved since its class
	// was last priced would price as it did then, when it already lost to
	// or set the class's choice, which has only got cheaper since; it is
	// skipped. A class's own improvement counts, so a node reading its own
	// class is priced again.
	//
	// dirty has one bit per class ID; the first sweep marks every
	// canonical class. A class that improves marks its parent classes. A
	// sweep visits the marks ahead of its cursor in ascending ID, clearing
	// each as it visits it; a mark at or behind the cursor (the class's
	// own ID included) waits for the next sweep. A class is therefore
	// visited exactly when the full sweep would find a child improved
	// since its last visit, and every improvement happens in the full
	// sweep's order.
	improved := make([]uint32, ids)
	priced := make([]uint32, ids)
	dirty := make([]uint64, (ids+63)/64)
	for _, cls := range classes {
		dirty[cls.ID/64] |= 1 << (cls.ID % 64)
	}
	pending := len(classes)
	var parents []egraph.ClassID
	var clock uint32
	for first := true; pending > 0; first = false {
		for w := range dirty {
			ahead := ^uint64(0) // the bits of word w ahead of the cursor
			for dirty[w]&ahead != 0 {
				b := bits.TrailingZeros64(dirty[w] & ahead)
				dirty[w] &^= 1 << b
				pending--
				ahead = ^uint64(0) << b << 1
				id := egraph.ClassID(w*64 + b)
				ex.visits++
				since := priced[id]
				priced[id] = clock
				changed := false
				for _, ni := range ex.g.Class(id).Nodes {
					n := ex.g.Node(ni)
					if !first && !ex.improvedSince(n, improved, since) {
						continue
					}
					ex.pricings++
					c, _, ok := ex.price(n)
					if ok && (ex.node[id] == noNode || c < ex.cost[id]) {
						ex.cost[id], ex.node[id] = c, ni
						clock++
						improved[id] = clock
						changed = true
					}
				}
				if !changed {
					continue
				}
				parents = ex.g.AppendParentClasses(parents[:0], id)
				for _, p := range parents {
					if dirty[p/64]&(1<<(p%64)) == 0 {
						dirty[p/64] |= 1 << (p % 64)
						pending++
					}
				}
			}
		}
	}
}

// improvedSince reports whether a child class of n improved after tick
// since.
func (ex *Extractor) improvedSince(n egraph.ENode, improved []uint32, since uint32) bool {
	for _, a := range n.Args {
		if improved[ex.g.Find(a)] > since {
			return true
		}
	}
	return false
}

// childInfo fills ex.children with the current choices of n's children
// and returns the sum of their costs, or false when a child has no
// finite-cost implementation.
func (ex *Extractor) childInfo(n egraph.ENode) (float64, bool) {
	children := ex.children[:0]
	sum := 0.0
	for _, a := range n.Args {
		b, ok := ex.Best(a)
		if !ok {
			return 0, false
		}
		children = append(children, cost.ChildInfo{Cost: b.Cost, Node: b.Node})
		sum += b.Cost
	}
	ex.children = children
	return sum, true
}

// price is extraction's one pricing rule: node n's total (subtree) cost
// and its own share under the current choices of its children. ok is
// false when a child has no finite-cost implementation or the total is
// infinite or NaN; any finite total is a candidate.
func (ex *Extractor) price(n egraph.ENode) (total, own float64, ok bool) {
	sum, ok := ex.childInfo(n)
	if !ok {
		return 0, 0, false
	}
	own = ex.model.NodeCost(n, ex.children)
	total = sum + own
	if math.IsInf(total, 0) || math.IsNaN(total) {
		return 0, 0, false
	}
	return total, own, true
}

// Best returns the chosen implementation of a class, or false when the
// class has no finite-cost implementation (or was not in the graph when it
// was extracted).
func (ex *Extractor) Best(id egraph.ClassID) (Choice, bool) {
	c := ex.g.Find(id)
	if int(c) >= len(ex.node) || ex.node[c] == noNode {
		return Choice{}, false
	}
	return Choice{Cost: ex.cost[c], Node: ex.g.Node(ex.node[c])}, true
}

// Expr materializes the extracted term for a class as an expression tree.
// Shared subterms are shared pointers in the result (a DAG), which the
// later LVN pass exploits.
func (ex *Extractor) Expr(id egraph.ClassID) (*expr.Expr, error) {
	memo := make([]*expr.Expr, len(ex.node))
	building := make([]bool, len(ex.node))
	var build func(egraph.ClassID) (*expr.Expr, error)
	build = func(c egraph.ClassID) (*expr.Expr, error) {
		c = ex.g.Find(c)
		if int(c) >= len(ex.node) || ex.node[c] == noNode {
			return nil, fmt.Errorf("extract: no finite-cost implementation for class %d", c)
		}
		if e := memo[c]; e != nil {
			return e, nil
		}
		if building[c] {
			return nil, fmt.Errorf("extract: cyclic best choice at class %d (cost model not strictly monotonic?)", c)
		}
		building[c] = true
		n := ex.g.Node(ex.node[c])
		e := &expr.Expr{Op: n.Op, Lit: n.Lit, Sym: ex.g.SymName(n.Sym), Idx: n.Idx}
		if len(n.Args) > 0 {
			e.Args = make([]*expr.Expr, len(n.Args))
		}
		for i, a := range n.Args {
			child, err := build(a)
			if err != nil {
				return nil, err
			}
			e.Args[i] = child
		}
		building[c] = false
		memo[c] = e
		return e, nil
	}
	return build(id)
}

// Cost returns the total extracted cost of a class, or +Inf when the class
// has no implementation under the model.
func (ex *Extractor) Cost(id egraph.ClassID) float64 {
	b, ok := ex.Best(id)
	if !ok {
		return math.Inf(1)
	}
	return b.Cost
}
