package egraph

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"diospyros/internal/telemetry"
)

// Rewrite is one rewrite rule: a searcher that finds matches in the graph
// and an applier that realizes a match. This mirrors egg's Searcher/Applier
// split (paper §3.3): syntactic rules are built with NewRewrite, while the
// vectorization rules use custom Go searchers.
//
// Search must treat the graph as read-only — all mutation belongs in Apply.
// The runner relies on this to match rules concurrently (one worker per
// GOMAXPROCS); a Search that adds nodes or unions classes would race.
// Rewrites that additionally implement ShardedRewrite let the runner split
// one rule's search across workers.
type Rewrite interface {
	Name() string
	Search(g *EGraph) []Match
	Apply(g *EGraph, m Match) bool // reports whether the graph changed
}

// patternRewrite is a purely syntactic rule lhs ⇝ rhs.
type patternRewrite struct {
	name     string
	lhs, rhs *Pattern
}

// NewRewrite builds a syntactic rewrite rule from two patterns. Every
// variable in rhs must occur in lhs.
func NewRewrite(name string, lhs, rhs *Pattern) Rewrite {
	lvars := map[string]bool{}
	for _, v := range lhs.Vars() {
		lvars[v] = true
	}
	for _, v := range rhs.Vars() {
		if !lvars[v] {
			panic("egraph: rewrite " + name + ": unbound rhs variable " + v)
		}
	}
	return &patternRewrite{name: name, lhs: lhs, rhs: rhs}
}

// MustRewrite builds a syntactic rule from pattern source strings.
func MustRewrite(name, lhs, rhs string) Rewrite {
	return NewRewrite(name, MustPattern(lhs), MustPattern(rhs))
}

// ParseRewrite builds a syntactic rule from pattern source strings,
// reporting malformed patterns or unbound right-hand-side variables as
// errors. This is the entry point for user-supplied rules (paper §6).
func ParseRewrite(name, lhs, rhs string) (rw Rewrite, err error) {
	l, err := ParsePattern(lhs)
	if err != nil {
		return nil, fmt.Errorf("egraph: rule %s lhs: %w", name, err)
	}
	r, err := ParsePattern(rhs)
	if err != nil {
		return nil, fmt.Errorf("egraph: rule %s rhs: %w", name, err)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("egraph: rule %s: %v", name, p)
		}
	}()
	return NewRewrite(name, l, r), nil
}

func (r *patternRewrite) Name() string { return r.name }

func (r *patternRewrite) Search(g *EGraph) []Match { return g.SearchPattern(r.lhs) }

func (r *patternRewrite) Apply(g *EGraph, m Match) bool {
	id, err := r.rhs.instantiateOrErr(g, m.Subst)
	if err != nil {
		return false
	}
	_, changed := g.Union(m.Class, id)
	return changed
}

func (p *Pattern) instantiateOrErr(g *EGraph, s Subst) (ClassID, error) {
	return g.Instantiate(p, s)
}

// StopReason explains why a saturation run ended.
type StopReason string

const (
	StopSaturated StopReason = "saturated"  // no rule changed the graph
	StopTimeout   StopReason = "timeout"    // wall-clock limit reached
	StopNodeLimit StopReason = "node-limit" // e-graph grew past the node limit
	StopIterLimit StopReason = "iter-limit" // iteration cap reached
	StopCancelled StopReason = "cancelled"  // the run's context was cancelled
)

// ctxCheckInterval amortizes context checks in the apply phase: polling
// after every single match apply is measurable overhead on large kernels,
// so the deadline/cancellation poll happens once per this many applies.
// The cheap node-limit counter is still checked on every apply.
const ctxCheckInterval = 256

// Limits bounds a saturation run. Zero values mean "no limit" except
// MaxIterations, which defaults to 64 (a safety net).
type Limits struct {
	MaxNodes      int
	MaxIterations int
	// Timeout bounds wall-clock time. RunContext implements it as a
	// context deadline derived from the caller's context; callers with a
	// context are encouraged to express deadlines there instead.
	Timeout time.Duration
	// Backoff, when non-nil, schedules rules with egg's backoff policy:
	// rules that over-match are banned with exponentially growing bans.
	Backoff *Backoff
	// Progress, when non-nil, receives live iteration/node/class counts
	// during the run, readable from other goroutines (watchdogs that
	// cancel the context when a budget is exceeded).
	Progress *Progress
	// Journal, when non-nil, turns on the search flight recorder: the run
	// records per-iteration per-rule attribution (matches, applications,
	// node growth, wall time), Backoff ban/unban events, iteration
	// summaries, and — when the journal's cost sampler is armed — a
	// best-cost trajectory per root. Other goroutines may read the journal
	// while the run writes. Nil costs one branch per rule per iteration.
	Journal *Journal
}

// Report summarizes a saturation run (feeds the paper's Table 1).
type Report struct {
	Iterations int
	Nodes      int
	Classes    int
	Applied    int // total successful rule applications
	Reason     StopReason
	Duration   time.Duration
	// PerRule counts successful applications per rule name.
	PerRule map[string]int
	// Iters holds one gauge per iteration (e-graph size after rebuild,
	// per-rule match/apply counts); it feeds the compilation trace. An
	// iteration cut short by a limit still contributes a partial gauge.
	Iters []telemetry.IterationGauge
	// PeakFootprint is the per-component logical footprint at the iteration
	// where the e-graph's total bytes peaked (including the journal ring
	// when armed); PeakIteration is that 1-based iteration. Iterations cut
	// short by a limit still contribute, so aborted runs report their peak.
	PeakFootprint Footprint
	PeakIteration int
}

// Saturated reports whether the run reached a fixpoint (the e-graph
// represents all programs reachable with the rule set).
func (r Report) Saturated() bool { return r.Reason == StopSaturated }

// Run performs equality saturation without external cancellation; see
// RunContext. Limits.Timeout, if set, still bounds wall-clock time.
func Run(g *EGraph, rules []Rewrite, lim Limits) Report {
	return RunContext(context.Background(), g, rules, lim)
}

// RunContext performs equality saturation: it repeatedly searches all
// rules, applies every match, and rebuilds, until saturation or a limit is
// hit. Matches are searched before any are applied within an iteration, so
// rule application order within an iteration cannot hide matches (the
// phase-ordering-free property of equality saturation, paper §3.3).
//
// The context is honored in both the search phase (between match tasks)
// and the apply phase (every ctxCheckInterval applies), so cancelling it
// stops the run well within one iteration. A cancelled run reports
// StopCancelled (StopTimeout when the context's deadline expired) and
// always leaves the e-graph rebuilt, so partial results remain extractable.
func RunContext(ctx context.Context, g *EGraph, rules []Rewrite, lim Limits) Report {
	if lim.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
		defer cancel()
	}
	start := time.Now()
	maxIter := lim.MaxIterations
	if maxIter == 0 {
		maxIter = 64
	}
	rep := Report{PerRule: map[string]int{}, Reason: StopIterLimit}

	done := ctx.Done()
	ctxStop := func() (StopReason, bool) {
		select {
		case <-done:
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return StopTimeout, true
			}
			return StopCancelled, true
		default:
			return "", false
		}
	}
	nodesOver := func() bool { return lim.MaxNodes > 0 && g.NumNodes() >= lim.MaxNodes }

	jr := lim.Journal
	// liveBytes is the O(1) logical footprint published to Progress: the
	// e-graph's counters plus the journal ring when armed.
	liveBytes := func() int64 { return g.FootprintBytes() + jr.ByteSize() }
	var gauge telemetry.IterationGauge
	var iterStart time.Time
	flushGauge := func() {
		gauge.Nodes = g.NumNodes()
		gauge.Classes = g.NumClasses()
		fp := g.Footprint()
		fp.Journal = jr.Footprint()
		fp.Total += fp.Journal.Bytes
		gauge.Bytes = fp.Total
		if fp.Total > rep.PeakFootprint.Total {
			rep.PeakFootprint = fp
			rep.PeakIteration = gauge.Iteration
		}
		gauge.Duration = time.Since(iterStart)
		rep.Iters = append(rep.Iters, gauge)
		if jr != nil {
			jr.append(JournalEvent{
				Kind: JournalIteration, Iteration: gauge.Iteration,
				Matches: gauge.Matches, Applied: gauge.Applied,
				Nodes: gauge.Nodes, Classes: gauge.Classes,
				Duration: gauge.Duration,
			})
		}
	}

loop:
	for iter := 0; iter < maxIter; iter++ {
		if nodesOver() {
			rep.Reason = StopNodeLimit
			break
		}
		if reason, stop := ctxStop(); stop {
			rep.Reason = reason
			break
		}
		rep.Iterations = iter + 1
		lim.Progress.publish(iter+1, g.NumNodes(), g.NumClasses(), liveBytes())
		iterStart = time.Now()
		gauge = telemetry.IterationGauge{
			Iteration:      iter + 1,
			PerRuleMatches: map[string]int{},
			PerRuleApplied: map[string]int{},
		}

		// Match phase: search every eligible rule over a read-only view of
		// the graph before any match is applied (parallel.go). Banned rules
		// sit the iteration out.
		ruleSkipped := false
		eligible := make([]Rewrite, 0, len(rules))
		for _, r := range rules {
			if lim.Backoff != nil && lim.Backoff.banned(r.Name(), iter) {
				ruleSkipped = true
				continue
			}
			eligible = append(eligible, r)
		}
		found, cancelled := searchParallel(ctx, g, eligible, runtime.GOMAXPROCS(0))
		if cancelled {
			rep.Reason, _ = ctxStop()
			flushGauge()
			break loop
		}
		all := found[:0] // rules whose matches survive Backoff, in rule order
		for _, f := range found {
			name := f.rule.Name()
			if jr != nil && lim.Backoff != nil {
				// A rule whose ban expires exactly this iteration rejoins
				// the search; make the transition visible in the journal.
				if bans, until := lim.Backoff.Stat(name); bans > 0 && until == iter {
					jr.append(JournalEvent{Kind: JournalUnban, Iteration: iter + 1,
						Rule: name, Bans: bans})
				}
			}
			if lim.Backoff != nil && lim.Backoff.record(name, len(f.matches), iter) {
				if jr != nil {
					bans, until := lim.Backoff.Stat(name)
					jr.append(JournalEvent{Kind: JournalBan, Iteration: iter + 1,
						Rule: name, Matches: len(f.matches),
						BannedUntil: until + 1, Bans: bans, Duration: f.searchDur})
				}
				ruleSkipped = true
				continue
			}
			if len(f.matches) > 0 {
				all = append(all, f)
				gauge.Matches += len(f.matches)
				gauge.PerRuleMatches[name] += len(f.matches)
			}
		}

		changed := false
		sinceCheck := 0
		prov := g.ProvenanceEnabled()
		// flushRule emits one rule-attribution event covering the rule's
		// search and (possibly cut-short) apply phase this iteration.
		flushRule := func(f ruleMatches, applyStart time.Time, nodesBefore int) {
			jr.append(JournalEvent{
				Kind: JournalRule, Iteration: iter + 1, Rule: f.rule.Name(),
				Matches: len(f.matches), Applied: gauge.PerRuleApplied[f.rule.Name()],
				NewNodes: g.NumNodes() - nodesBefore,
				Duration: f.searchDur + time.Since(applyStart),
			})
		}
		for _, f := range all {
			var applyStart time.Time
			var nodesBefore int
			if jr != nil {
				applyStart = time.Now()
				nodesBefore = g.NumNodes()
			}
			for _, m := range f.matches {
				if prov {
					// Attribute every node/union the applier creates to
					// this rule, iteration, and matched class.
					g.SetRuleContext(f.rule.Name(), iter+1, m.Class)
				}
				if f.rule.Apply(g, m) {
					changed = true
					rep.Applied++
					rep.PerRule[f.rule.Name()]++
					gauge.Applied++
					gauge.PerRuleApplied[f.rule.Name()]++
				}
				if nodesOver() {
					g.ClearRuleContext()
					g.Rebuild()
					rep.Reason = StopNodeLimit
					if jr != nil {
						flushRule(f, applyStart, nodesBefore)
					}
					flushGauge()
					break loop
				}
				if sinceCheck++; sinceCheck >= ctxCheckInterval {
					sinceCheck = 0
					lim.Progress.publish(iter+1, g.NumNodes(), g.NumClasses(), liveBytes())
					if reason, stop := ctxStop(); stop {
						g.ClearRuleContext()
						g.Rebuild()
						rep.Reason = reason
						if jr != nil {
							flushRule(f, applyStart, nodesBefore)
						}
						flushGauge()
						break loop
					}
				}
			}
			if jr != nil {
				flushRule(f, applyStart, nodesBefore)
			}
		}
		g.ClearRuleContext()
		g.Rebuild()
		lim.Progress.publish(iter+1, g.NumNodes(), g.NumClasses(), liveBytes())
		flushGauge()
		jr.sampleCosts(g, iter+1)
		jr.sampleMemory(g, iter+1)
		if !changed && !ruleSkipped &&
			(lim.Backoff == nil || !lim.Backoff.anyBanned(iter+1)) {
			rep.Reason = StopSaturated
			break
		}
	}

	if g.NeedsRebuild() {
		g.Rebuild()
	}
	rep.Nodes = g.NumNodes()
	rep.Classes = g.NumClasses()
	lim.Progress.publish(rep.Iterations, rep.Nodes, rep.Classes, liveBytes())
	rep.Duration = time.Since(start)
	return rep
}
