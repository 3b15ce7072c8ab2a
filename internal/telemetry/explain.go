package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// Step kinds of an Explanation, from rule-name classification. Vectorization
// and shuffle steps are the ones the paper's §3 narrative hinges on: they
// justify why the extracted program is vector code and how its lanes move.
const (
	KindVectorization = "vectorization" // vec-lanewise, vec-mac
	KindChunking      = "chunking"      // list-chunk (List → Concat of Vecs)
	KindShuffle       = "shuffle"       // data movement synthesized by lowering
	KindReassociation = "reassociation" // assoc-*/comm-* (diospyros.ACRules)
	KindSimplify      = "simplification"
)

// ClassifyRule maps a rewrite-rule (or lowering-step) name to its
// explanation kind. Unknown names — including user-supplied ExtraRules —
// classify as simplification.
func ClassifyRule(rule string) string {
	switch rule {
	case "vec-lanewise", "vec-mac":
		return KindVectorization
	case "list-chunk":
		return KindChunking
	case "lower-shuffle", "lower-select":
		return KindShuffle
	}
	if strings.HasPrefix(rule, "assoc-") || strings.HasPrefix(rule, "comm-") {
		return KindReassociation
	}
	return KindSimplify
}

// ExplanationStep is one rule in the provenance chain of an extracted
// program: a rewrite that created e-nodes the extractor chose, or a
// data-movement operation the lowering synthesized for the chosen term.
type ExplanationStep struct {
	Rule string `json:"rule"`
	Kind string `json:"kind"`
	// Iteration is the 1-based saturation iteration that first applied the
	// rule on the chosen term; 0 marks post-saturation lowering steps.
	Iteration int `json:"iteration,omitempty"`
	// Nodes counts the extracted e-nodes (or emitted IR instructions, for
	// lowering steps) this rule justifies.
	Nodes int `json:"nodes"`
	// Example renders one justified e-node (or instruction) for the report.
	Example string `json:"example,omitempty"`
}

// Explanation is the provenance report of one compilation: the ordered list
// of rules that justify the vectorized output (paper's non-destructive
// rewrite introspection). Steps are ordered by iteration, then rule name;
// lowering steps (iteration 0) come last.
type Explanation struct {
	Steps []ExplanationStep `json:"steps"`
	// InputNodes counts extracted e-nodes with no recorded provenance: they
	// come from the lifted specification itself.
	InputNodes int `json:"input_nodes"`
	// RewrittenNodes counts extracted e-nodes justified by some rewrite.
	RewrittenNodes int `json:"rewritten_nodes"`
}

// Sort orders the steps canonically: saturation steps by (iteration, rule),
// then lowering steps (iteration 0) by rule.
func (e *Explanation) Sort() {
	sort.SliceStable(e.Steps, func(i, j int) bool {
		a, b := e.Steps[i], e.Steps[j]
		ai, bi := a.Iteration, b.Iteration
		// Lowering steps (iteration 0) sort after every saturation step.
		if ai == 0 {
			ai = 1 << 30
		}
		if bi == 0 {
			bi = 1 << 30
		}
		if ai != bi {
			return ai < bi
		}
		return a.Rule < b.Rule
	})
}

// HasKind reports whether some step has the given kind.
func (e *Explanation) HasKind(kind string) bool {
	for _, s := range e.Steps {
		if s.Kind == kind {
			return true
		}
	}
	return false
}

// Rules returns the step rule names in order.
func (e *Explanation) Rules() []string {
	out := make([]string, len(e.Steps))
	for i, s := range e.Steps {
		out[i] = s.Rule
	}
	return out
}

// Format renders the human-readable provenance chain printed by -explain.
func (e *Explanation) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "provenance: %d extracted e-nodes justified by rewrites, %d from the input program\n",
		e.RewrittenNodes, e.InputNodes)
	ruleW := len("rule")
	for _, s := range e.Steps {
		if len(s.Rule) > ruleW {
			ruleW = len(s.Rule)
		}
	}
	fmt.Fprintf(&b, "%4s  %-*s %-18s %6s  %s\n", "iter", ruleW, "rule", "kind", "nodes", "example")
	for _, s := range e.Steps {
		iter := fmt.Sprintf("%d", s.Iteration)
		if s.Iteration == 0 {
			iter = "-" // post-saturation lowering
		}
		fmt.Fprintf(&b, "%4s  %-*s %-18s %6d  %s\n", iter, ruleW, s.Rule, s.Kind, s.Nodes, s.Example)
	}
	return b.String()
}
