// Package rules defines Diospyros's rewrite-rule families (paper §3.2–3.3):
//
//   - list chunking: a List output is equivalent to a Concat of
//     machine-width Vecs, padding the tail with zeros;
//   - lane-wise vectorization: a Vec whose lanes are all applications of the
//     same scalar operator (some lanes may be the constant 0) is equivalent
//     to the corresponding vector operation over Vecs of the operands;
//   - fused multiply–accumulate: a custom searcher that matches each lane
//     against (+ a (* b c)), (+ (* b c) a), (* b c), or 0 and combines the
//     per-lane results into a VecMAC — the paper's workaround for the
//     NP-complete AC-matching problem;
//   - three scalar rules that move negation: (- 0 a) is (neg a), and a neg
//     moves between a product and its left factor.
//
// Scalar identities (x+0, x·1, x-x, -(-x), literal arithmetic) are not
// rules: Lift folds them as it builds the spec (frontend's symbolic
// domain), so the e-graph never holds a term they would match. The full
// associativity/commutativity rules are not built in either: a compile
// that wants them passes diospyros.ACRules as extra rules.
package rules

import (
	"sort"
	"sync"

	"diospyros/internal/egraph"
)

// Config selects and parameterizes the rule set.
type Config struct {
	// Widths lists the machine vector widths (lanes per Vec) the vector
	// rules target; the Fusion G3 of the paper has width 4. One chunk rule
	// per width populates the e-graph with Vec decompositions of every
	// listed width simultaneously, and the lane-wise/MAC searchers match
	// Vec nodes of any listed width. Per-target extraction then picks one
	// width via the cost model (cost.Diospyros.Width). The list is
	// deduplicated and sorted, so the rule set — and therefore the e-graph
	// — is identical regardless of request order. An empty list means no
	// vector rules: only the scalar negation rules, the §5.6 ablation.
	Widths []int

	// Width is ignored.
	//
	// Deprecated: ignored; kept so benchmark/chain.go compiles. Set Widths.
	Width int
	// DisableVector is ignored.
	//
	// Deprecated: ignored; kept so benchmark/chain.go compiles. Leave
	// Widths empty for no vector rules.
	DisableVector bool
}

// The custom searchers' caps: maxLaneAlts alternative decompositions per
// lane, and maxCombos lane-combination candidates per Vec node, rule and
// iteration.
const (
	maxLaneAlts = 2
	maxCombos   = 4
)

// Default returns the configuration used throughout the evaluation.
func Default(width int) Config { return Config{Widths: []int{width}} }

// widths returns the effective, sorted, deduplicated width list.
func (c Config) widths() []int {
	seen := map[int]bool{}
	var out []int
	for _, w := range c.Widths {
		if w > 1 && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// Rules builds the rewrite list for the configuration.
func (c Config) Rules() []egraph.Rewrite {
	widths := c.widths()
	out := scalarRules()
	if len(widths) > 0 {
		for _, w := range widths {
			out = append(out, chunkRule{width: w})
		}
		out = append(out,
			newVectorizeRule(c),
			newMACRule(c),
		)
	}
	return out
}

// builtinNames is every name Rules gives a rule, under any Config.
var builtinNames = sync.OnceValue(func() map[string]bool {
	names := map[string]bool{}
	for _, r := range (Config{Widths: []int{4}}).Rules() {
		names[r.Name()] = true
	}
	return names
})

// Builtin reports whether name belongs to a built-in rule under some
// Config. A user rule may not take it: rule rows and Backoff bans are keyed
// by name.
func Builtin(name string) bool { return builtinNames()[name] }

// scalarRules are sound syntactic identities over the reals (§3.4 notes the
// rules are correct over ℝ, not IEEE floats, like other kernel compilers).
// Unlike an identity, neither side of one is always the cheaper: which form
// vectorizes depends on the neighbouring lanes, so extraction chooses.
func scalarRules() []egraph.Rewrite {
	mk := egraph.MustRewrite
	return []egraph.Rewrite{
		mk("sub-0-l", "(- 0 ?a)", "(neg ?a)"),
		mk("neg-mul", "(* (neg ?a) ?b)", "(neg (* ?a ?b))"),
		mk("mul-neg", "(neg (* ?a ?b))", "(* (neg ?a) ?b)"),
	}
}
