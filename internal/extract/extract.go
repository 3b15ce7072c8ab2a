// Package extract selects the cheapest program represented by an e-graph
// under a cost model (paper §3.4). Extraction runs a Bellman-style
// relaxation to a fixpoint, which is linear in the number of e-nodes per
// pass and terminates because the cost model is strictly monotonic.
package extract

import (
	"fmt"
	"math"

	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// Choice records the selected implementation of one e-class.
type Choice struct {
	Cost float64
	Node egraph.ENode
	ok   bool
}

// Extractor computes best choices for every class of a graph.
type Extractor struct {
	g     *egraph.EGraph
	model cost.Model
	best  map[egraph.ClassID]*Choice
	// children is nodeCost's scratch buffer, reused across every call.
	children []cost.ChildInfo
}

// New prepares an extractor and runs the fixpoint computation. Models that
// price by symbol payload (cost.NeedsSyms, e.g. per-function overrides)
// are bound to this graph's intern table before any node is priced.
func New(g *egraph.EGraph, model cost.Model) *Extractor {
	if ns, ok := model.(cost.NeedsSyms); ok {
		model = ns.WithSyms(g.SymName)
	}
	ex := &Extractor{g: g, model: model, best: map[egraph.ClassID]*Choice{}}
	ex.run()
	return ex
}

func (ex *Extractor) run() {
	// Relax until no class's best cost improves. Costs only decrease, and
	// each node's own cost is strictly positive, so cyclic choices can
	// never undercut acyclic ones and the loop terminates. Extraction never
	// adds or merges classes, so one snapshot serves every pass and each
	// pass visits classes in ascending canonical ID, which fixes tie-breaks.
	classes := ex.g.CanonicalClasses()
	for {
		changed := false
		for _, cls := range classes {
			cur := ex.best[cls.ID]
			for _, n := range cls.Nodes {
				c, ok := ex.nodeCost(n)
				if !ok {
					continue
				}
				if cur == nil || !cur.ok || c < cur.Cost {
					cur = &Choice{Cost: c, Node: n, ok: true}
					ex.best[cls.ID] = cur
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// nodeCost prices node n using the current best choices of its children.
func (ex *Extractor) nodeCost(n egraph.ENode) (float64, bool) {
	children := ex.children[:0]
	sum := 0.0
	for _, a := range n.Args {
		b := ex.best[ex.g.Find(a)]
		if b == nil || !b.ok {
			return 0, false
		}
		children = append(children, cost.ChildInfo{Cost: b.Cost, Node: b.Node})
		sum += b.Cost
	}
	ex.children = children
	own := ex.model.NodeCost(n, children)
	total := sum + own
	if math.IsInf(total, 0) || math.IsNaN(total) {
		return 0, false
	}
	return total, true
}

// Best returns the chosen implementation of a class.
func (ex *Extractor) Best(id egraph.ClassID) (Choice, bool) {
	b := ex.best[ex.g.Find(id)]
	if b == nil || !b.ok {
		return Choice{}, false
	}
	return *b, true
}

// Expr materializes the extracted term for a class as an expression tree.
// Shared subterms are shared pointers in the result (a DAG), which the
// later LVN pass exploits.
func (ex *Extractor) Expr(id egraph.ClassID) (*expr.Expr, error) {
	memo := map[egraph.ClassID]*expr.Expr{}
	var build func(egraph.ClassID) (*expr.Expr, error)
	building := map[egraph.ClassID]bool{}
	build = func(c egraph.ClassID) (*expr.Expr, error) {
		c = ex.g.Find(c)
		if e, ok := memo[c]; ok {
			return e, nil
		}
		if building[c] {
			return nil, fmt.Errorf("extract: cyclic best choice at class %d (cost model not strictly monotonic?)", c)
		}
		b := ex.best[c]
		if b == nil || !b.ok {
			return nil, fmt.Errorf("extract: no finite-cost implementation for class %d", c)
		}
		building[c] = true
		defer delete(building, c)
		e := &expr.Expr{Op: b.Node.Op, Lit: b.Node.Lit, Sym: ex.g.SymName(b.Node.Sym), Idx: b.Node.Idx}
		for _, a := range b.Node.Args {
			child, err := build(a)
			if err != nil {
				return nil, err
			}
			e.Args = append(e.Args, child)
		}
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
