package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// The saturation record and the extraction flight record. Every
// IterationGauge carries one RuleStep row per rule that matched in that
// iteration, so a Trace's Iterations are the whole record of the search:
// Attribution folds them into per-rule totals and the Backoff ban
// timeline, and the best-cost trajectory is read off the gauges' BestCost.
// ExtractionTrace records why extraction chose the program it did. Both are
// plain data: the egraph and extract packages produce them, the root
// package attaches them to the Trace, and the HTML report (report.go),
// diosdiff and the SSE stream render them.

// RuleStep is one rule's activity within one saturation iteration.
type RuleStep struct {
	Rule string `json:"rule"`
	// Matches is the rule's match count this iteration. A banned step's
	// matches were discarded: they count toward the rule's totals, not
	// toward the iteration's Matches.
	Matches int `json:"matches"`
	// Applied counts successful applications; NewNodes is the e-node growth
	// attributed to them (measured before the rebuild's deduplication).
	Applied  int `json:"applied,omitempty"`
	NewNodes int `json:"new_nodes,omitempty"`
	// Duration is the rule's search+apply time this iteration.
	Duration time.Duration `json:"duration,omitempty"`
	// BannedUntil is set when the Backoff scheduler banned the rule for this
	// iteration's over-matching: the first 1-based iteration at which it
	// runs again. Bans is the rule's lifetime ban count after this ban.
	BannedUntil int `json:"banned_until,omitempty"`
	Bans        int `json:"bans,omitempty"`
}

// Banned reports whether the Backoff scheduler banned the rule this step.
func (s RuleStep) Banned() bool { return s.BannedUntil > 0 }

// RuleAttribution aggregates one rewrite rule's activity over a whole
// saturation run.
type RuleAttribution struct {
	Rule string `json:"rule"`
	// Matches/Applied total the rule's pattern matches and successful
	// applications across all iterations it ran.
	Matches int `json:"matches"`
	Applied int `json:"applied"`
	// NewNodes totals the e-node growth attributed to the rule's
	// applications (measured before each rebuild's deduplication).
	NewNodes int `json:"new_nodes"`
	// Duration totals the rule's search+apply wall time.
	Duration time.Duration `json:"duration"`
	// Bans counts how often the Backoff scheduler banned the rule.
	Bans int `json:"bans,omitempty"`
}

// Ban is one entry of the Backoff ban timeline: the banned step and the
// 1-based iteration whose over-matching triggered it. The rule sat out
// iterations [Iteration, BannedUntil).
type Ban struct {
	Iteration int `json:"iteration"`
	RuleStep
}

// Attribution folds a run's rule rows into per-rule totals, biggest node
// growth first, and the Backoff ban timeline in iteration order.
func Attribution(gs []IterationGauge) ([]RuleAttribution, []Ban) {
	var rules []RuleAttribution
	var bans []Ban
	idx := map[string]int{}
	for _, g := range gs {
		for _, s := range g.Rules {
			i, ok := idx[s.Rule]
			if !ok {
				i = len(rules)
				idx[s.Rule] = i
				rules = append(rules, RuleAttribution{Rule: s.Rule})
			}
			r := &rules[i]
			r.Matches += s.Matches
			r.Applied += s.Applied
			r.NewNodes += s.NewNodes
			r.Duration += s.Duration
			if s.Banned() {
				r.Bans++
				bans = append(bans, Ban{Iteration: g.Iteration, RuleStep: s})
			}
		}
	}
	// The rules that grew the e-graph are the ones a saturation blowup
	// post-mortem needs on top.
	sort.SliceStable(rules, func(i, k int) bool {
		if rules[i].NewNodes != rules[k].NewNodes {
			return rules[i].NewNodes > rules[k].NewNodes
		}
		return rules[i].Matches > rules[k].Matches
	})
	return rules, bans
}

// ExtractionDecision mirrors extract.Decision in trace-serializable form:
// the winning implementation of one e-class against its runner-up.
type ExtractionDecision struct {
	Class        int     `json:"class"`
	Winner       string  `json:"winner"`
	WinnerCost   float64 `json:"winner_cost"`
	WinnerOwn    float64 `json:"winner_own"`
	RunnerUp     string  `json:"runner_up,omitempty"`
	RunnerUpCost float64 `json:"runner_up_cost,omitempty"`
	Margin       float64 `json:"margin,omitempty"`
	Candidates   int     `json:"candidates"`
}

// ExtractionTrace is the extraction flight record: the decision trace for
// the most contested classes plus the data-movement census of the chosen
// program (shuffles vs. selects/gathers, the §4 cost-model distinction).
type ExtractionTrace struct {
	// TotalCost is the extracted program's cost under the model.
	TotalCost float64 `json:"total_cost"`
	// Classes counts e-classes in the chosen program; Contested counts
	// those that offered at least two finite-cost implementations.
	Classes   int `json:"classes"`
	Contested int `json:"contested"`
	// Decisions holds the decision trace, most contested (smallest margin)
	// first, capped at MaxDecisions.
	Decisions []ExtractionDecision `json:"decisions,omitempty"`
	// Data-movement census of the chosen Vec nodes.
	Literal     int `json:"literal,omitempty"`
	Contiguous  int `json:"contiguous,omitempty"`
	Shuffles    int `json:"shuffles,omitempty"`
	Selects     int `json:"selects,omitempty"`
	Gathers     int `json:"gathers,omitempty"`
	ScalarLanes int `json:"scalar_lanes,omitempty"`
}

// MaxDecisions caps the decision trace carried by a Trace; deeper cuts stay
// available programmatically via extract.Extractor.Decisions.
const MaxDecisions = 32

// Format renders the extraction flight record as text.
func (e *ExtractionTrace) Format() string {
	if e == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "extraction: cost %.2f over %d classes (%d contested)\n",
		e.TotalCost, e.Classes, e.Contested)
	fmt.Fprintf(&b, "movement: %d contiguous, %d shuffles, %d selects, %d gathers, %d scalar lanes\n",
		e.Contiguous, e.Shuffles, e.Selects, e.Gathers, e.ScalarLanes)
	for _, d := range e.Decisions {
		if d.RunnerUp == "" {
			continue
		}
		fmt.Fprintf(&b, "class %d: chose %s (%.2f) over %s (%.2f), margin %.2f\n",
			d.Class, d.Winner, d.WinnerCost, d.RunnerUp, d.RunnerUpCost, d.Margin)
	}
	return b.String()
}

// formatRules renders the per-rule table and the ban timeline of the -trace
// text; nothing when the run recorded no rule activity.
func formatRules(b *strings.Builder, gs []IterationGauge) {
	rules, bans := Attribution(gs)
	if len(rules) == 0 {
		return
	}
	nameW := len("rule")
	for _, r := range rules {
		nameW = max(nameW, len(r.Rule))
	}
	fmt.Fprintf(b, "%-*s %9s %9s %9s %12s %5s\n", nameW, "rule",
		"matches", "applied", "nodes+", "time", "bans")
	for _, r := range rules {
		fmt.Fprintf(b, "%-*s %9d %9d %9d %12v %5d\n", nameW, r.Rule,
			r.Matches, r.Applied, r.NewNodes, r.Duration.Round(time.Microsecond), r.Bans)
	}
	for _, ban := range bans {
		fmt.Fprintf(b, "ban: %s at iteration %d (%d matches), until %d\n",
			ban.Rule, ban.Iteration, ban.Matches, ban.BannedUntil)
	}
}
