package egraph

// Rewrite provenance: when enabled, the e-graph records, for every e-node
// created while a rule context is active, which rule created it, in which
// saturation iteration, and from which source e-class the rule matched.
// The extraction explanation (-explain) walks the chosen term's provenance
// to produce the ordered rule chain that justifies the vectorized output —
// the non-destructive-rewrite introspection an e-graph makes possible.
//
// Recording is off by default and costs a single nil check per Add/Union
// when disabled (guarded by BenchmarkSaturationThroughput). When enabled,
// memory cost is one map entry (NodeID + Justification) per rule-created
// e-node plus one UnionStep per rule-caused union — small next to the
// e-graph itself (see DESIGN.md §7). A node keeps its NodeID for the
// graph's lifetime, so a justification never moves; NodeProvenance finds
// the node through the hashcons.

// Justification records why an e-node exists: the rewrite that created it,
// the 1-based iteration it was applied in, and the e-class the rule's match
// rooted at. The zero value ("" rule) marks nodes of the input program.
type Justification struct {
	Rule      string
	Iteration int
	Source    ClassID
}

// UnionStep records one rule-caused class merge (A absorbed B, as canonical
// IDs at merge time).
type UnionStep struct {
	Just Justification
	A, B ClassID
}

// provenance is the recording state, allocated by EnableProvenance.
type provenance struct {
	// nodes maps a rule-created e-node to its justification. When repair
	// finds two parents congruent, the node it keeps takes the earlier of
	// the two justifications (merge).
	nodes  map[NodeID]Justification
	unions []UnionStep
	ctx    Justification // active rule context ("" rule = inactive)
}

// EnableProvenance turns on provenance recording for nodes and unions
// created from now on. Typically called right after the input program is
// added, so input nodes stay unattributed and every rule-created node is
// justified.
func (g *EGraph) EnableProvenance() {
	if g.prov == nil {
		g.prov = &provenance{nodes: map[NodeID]Justification{}}
	}
}

// ProvenanceEnabled reports whether provenance is being recorded.
func (g *EGraph) ProvenanceEnabled() bool { return g.prov != nil }

// SetRuleContext opens a rule context: until ClearRuleContext, nodes added
// and unions performed are justified by (rule, iteration, source). The
// saturation runner brackets each match application with this.
func (g *EGraph) SetRuleContext(rule string, iteration int, source ClassID) {
	if g.prov != nil {
		g.prov.ctx = Justification{Rule: rule, Iteration: iteration, Source: source}
	}
}

// ClearRuleContext closes the rule context; later congruence-repair unions
// and lookups are no longer attributed to the last rule.
func (g *EGraph) ClearRuleContext() {
	if g.prov != nil {
		g.prov.ctx = Justification{}
	}
}

// NodeProvenance returns the justification recorded for the node, if any:
// that of the node the hashcons holds for n's contents. Nodes of the input
// program (or added outside any rule context) have none.
func (g *EGraph) NodeProvenance(n ENode) (Justification, bool) {
	if g.prov == nil {
		return Justification{}, false
	}
	i, ok := g.memo.find(g, n, true)
	if !ok {
		return Justification{}, false
	}
	j, ok := g.prov.nodes[g.memo.slots[i].node]
	return j, ok
}

// Unions returns the recorded rule-caused class merges, in order.
func (g *EGraph) Unions() []UnionStep {
	if g.prov == nil {
		return nil
	}
	return g.prov.unions
}

// ProvenanceStats reports the recording's footprint: justified nodes and
// recorded unions. Both are zero when provenance is disabled.
func (g *EGraph) ProvenanceStats() (nodes, unions int) {
	if g.prov == nil {
		return 0, 0
	}
	return len(g.prov.nodes), len(g.prov.unions)
}

// recordNode attaches the active rule context to a newly created node.
// Called from Add on hashcons misses only.
func (p *provenance) recordNode(n NodeID) {
	if p.ctx.Rule != "" {
		p.nodes[n] = p.ctx
	}
}

// recordUnion logs a class merge under the active rule context.
func (p *provenance) recordUnion(a, b ClassID) {
	if p.ctx.Rule != "" {
		p.unions = append(p.unions, UnionStep{Just: p.ctx, A: a, B: b})
	}
}

// merge runs when repair finds parent into congruent with parent from,
// which it met first, and keeps into: into takes the earlier of the two
// justifications. On a tie the one already on the shared contents wins:
// into's own when into did not move, from's when into moved onto them.
func (p *provenance) merge(from, into NodeID, moved bool) {
	j, ok := p.nodes[from]
	if !ok {
		return
	}
	if prev, has := p.nodes[into]; !has || j.Iteration < prev.Iteration || moved && j.Iteration == prev.Iteration {
		p.nodes[into] = j
	}
}
