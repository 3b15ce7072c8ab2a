package egraph

import (
	"fmt"
	"strings"

	"diospyros/internal/expr"
)

// ToDot renders the e-graph in Graphviz dot syntax, with one cluster per
// equivalence class (the visual convention of the paper's Figure 4 and the
// egg tooling). Intended for debugging rewrite rules:
//
//	go run ./cmd/diospyros -dump-egraph kernel.dios | dot -Tsvg > egraph.svg
func (g *EGraph) ToDot() string {
	var b strings.Builder
	b.WriteString("digraph egraph {\n")
	b.WriteString("  compound=true;\n  node [shape=record, fontsize=10];\n")

	// An edge targets the first node of the child's class: every class
	// holds at least one node.
	var edges []string
	for _, cls := range g.CanonicalClasses() {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n", cls.ID)
		fmt.Fprintf(&b, "    label=\"class %d\"; style=dashed;\n", cls.ID)
		for i, ni := range cls.Nodes {
			n := g.Node(ni)
			name := fmt.Sprintf("n%d_%d", cls.ID, i)
			fmt.Fprintf(&b, "    %s [label=\"%s\"];\n", name, g.dotLabel(n))
			for ai, a := range n.Args {
				c := g.Find(a)
				edges = append(edges, fmt.Sprintf(
					"  %s -> n%d_0 [lhead=cluster_%d, label=\"%d\", fontsize=8];",
					name, c, c, ai))
			}
		}
		b.WriteString("  }\n")
	}
	for _, e := range edges {
		b.WriteString(e)
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.String()
}

func (g *EGraph) dotLabel(n ENode) string {
	var s string
	switch n.Op {
	case expr.OpLit:
		s = fmt.Sprintf("%g", n.Lit)
	case expr.OpSym:
		s = g.syms.Name(n.Sym)
	case expr.OpGet:
		s = fmt.Sprintf("Get %s %d", g.syms.Name(n.Sym), n.Idx)
	case expr.OpFunc, expr.OpVecFunc:
		s = n.Op.String() + " " + g.syms.Name(n.Sym)
	default:
		s = n.Op.String()
	}
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "\"", "\\\"")
	return s
}
