package rules

import (
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// chunkRule rewrites a List of n scalar elements into a right-nested Concat
// of ⌈n/W⌉ width-W Vecs, padding the final chunk with zeros (§3.2). The
// padded program computes the original outputs in its first n elements;
// the compiler records n and stores only that prefix.
type chunkRule struct {
	width int
}

func (chunkRule) Name() string { return "list-chunk" }

// RootOps: chunking only matches at classes containing a List node.
func (chunkRule) RootOps() []expr.Op { return []expr.Op{expr.OpList} }

// ReadDepth: chunking reads only the List node's own argument IDs.
func (chunkRule) ReadDepth() int { return 0 }

type chunkMatch struct {
	elems []egraph.ClassID
}

func (r chunkRule) SearchClasses(g *egraph.EGraph, classes []*egraph.EClass, _ []egraph.Match) ([]egraph.Match, egraph.Bitset) {
	var out []egraph.Match
	for _, cls := range classes {
		for _, ni := range cls.Nodes {
			if n := g.Node(ni); n.Op == expr.OpList {
				out = append(out, egraph.Match{
					Class: cls.ID,
					Data:  chunkMatch{elems: append([]egraph.ClassID(nil), n.Args...)},
				})
			}
		}
	}
	return out, nil
}

func (r chunkRule) Apply(g *egraph.EGraph, m egraph.Match) bool {
	cm := m.Data.(chunkMatch)
	zero := g.AddLit(0)

	var chunks []egraph.ClassID
	for start := 0; start < len(cm.elems); start += r.width {
		lanes := make([]egraph.ClassID, r.width)
		for i := 0; i < r.width; i++ {
			if start+i < len(cm.elems) {
				lanes[i] = cm.elems[start+i]
			} else {
				lanes[i] = zero
			}
		}
		chunks = append(chunks, g.Add(egraph.ENode{Op: expr.OpVec, Args: lanes}))
	}
	// Right-nest: Concat(c0, Concat(c1, ... cK)).
	root := chunks[len(chunks)-1]
	for i := len(chunks) - 2; i >= 0; i-- {
		root = g.Add(egraph.ENode{Op: expr.OpConcat, Args: []egraph.ClassID{chunks[i], root}})
	}
	_, changed := g.Union(m.Class, root)
	return changed
}
