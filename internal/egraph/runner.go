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
	// Journal, when non-nil, relays the run live: each iteration's gauge
	// (the same record Report.Iters collects) is appended to it as the
	// iteration completes, carrying the root's best cost when the journal's
	// cost sampler is armed. Other goroutines may read the journal while
	// the run writes.
	Journal *Journal
}

// Report summarizes a saturation run (feeds the paper's Table 1).
type Report struct {
	Iterations int
	Nodes      int
	Classes    int
	Applied    int // total successful rule applications
	Reason     StopReason
	// Iters holds one gauge per iteration (e-graph size after rebuild and
	// one row per rule that matched); it is the run's record of the search
	// and feeds the compilation trace. An iteration cut short by a limit
	// still contributes a partial gauge.
	Iters []telemetry.IterationGauge
	// PeakFootprint is the per-component logical footprint at the iteration
	// where the e-graph's total bytes peaked; PeakIteration is that 1-based
	// iteration. Iterations cut short by a limit still contribute, so
	// aborted runs report their peak.
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
	maxIter := lim.MaxIterations
	if maxIter == 0 {
		maxIter = 64
	}
	rep := Report{Reason: StopIterLimit}

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
	var gauge telemetry.IterationGauge
	var iterStart time.Time
	// flushGauge closes the iteration's gauge — sampling the best cost only
	// when the iteration ran to completion — and publishes it.
	flushGauge := func(complete bool) {
		gauge.Nodes = g.NumNodes()
		gauge.Classes = g.NumClasses()
		fp := g.Footprint()
		gauge.Bytes = fp.Total
		if fp.Total > rep.PeakFootprint.Total {
			rep.PeakFootprint = fp
			rep.PeakIteration = gauge.Iteration
		}
		gauge.Duration = time.Since(iterStart)
		if complete {
			gauge.BestCost = jr.sampleCost(g)
		}
		rep.Iters = append(rep.Iters, gauge)
		jr.append(gauge)
	}

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
		lim.Progress.publish(iter+1, g.NumNodes(), g.NumClasses(), g.FootprintBytes())
		iterStart = time.Now()
		gauge = telemetry.IterationGauge{Iteration: iter + 1}

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
		searchStart := time.Now()
		found, index, cancelled := searchParallel(ctx, g, eligible, runtime.GOMAXPROCS(0))
		gauge.Index = index
		if cancelled {
			gauge.Match = time.Since(searchStart) - index
			rep.Reason, _ = ctxStop()
			flushGauge(false)
			break
		}
		// Every rule that matched gets a row, in rule order: matched[k]
		// fills gauge.Rules[k]. A rule Backoff bans now keeps its row, its
		// matches discarded, and sits out the apply phase.
		matched := found[:0]
		for _, f := range found {
			if len(f.matches) > 0 {
				matched = append(matched, f)
			}
		}
		gauge.Rules = make([]telemetry.RuleStep, len(matched))
		for k, f := range matched {
			step := &gauge.Rules[k]
			*step = telemetry.RuleStep{Rule: f.rule.Name(), Matches: len(f.matches)}
			if lim.Backoff != nil && lim.Backoff.record(step.Rule, step.Matches, iter) {
				bans, until := lim.Backoff.Stat(step.Rule)
				step.Duration, step.BannedUntil, step.Bans = f.searchDur, until+1, bans
				ruleSkipped = true
				continue
			}
			gauge.Matches += step.Matches
		}
		applyStart := time.Now()
		gauge.Match = applyStart.Sub(searchStart) - index

		// Apply phase. A node limit or a fired context cuts it short; the
		// rule being applied still closes its row, and the graph is
		// rebuilt either way so partial results stay extractable.
		var stop StopReason
		changed := false
		sinceCheck := 0
		prov := g.ProvenanceEnabled()
		for k, f := range matched {
			step := &gauge.Rules[k]
			if step.Banned() {
				continue
			}
			ruleStart, nodesBefore := time.Now(), g.NumNodes()
			for _, m := range f.matches {
				if prov {
					// Attribute every node/union the applier creates to
					// this rule, iteration, and matched class.
					g.SetRuleContext(f.rule.Name(), iter+1, m.Class)
				}
				if f.rule.Apply(g, m) {
					changed = true
					rep.Applied++
					gauge.Applied++
					step.Applied++
				}
				if nodesOver() {
					stop = StopNodeLimit
					break
				}
				if sinceCheck++; sinceCheck >= ctxCheckInterval {
					sinceCheck = 0
					lim.Progress.publish(iter+1, g.NumNodes(), g.NumClasses(), g.FootprintBytes())
					if reason, fired := ctxStop(); fired {
						stop = reason
						break
					}
				}
			}
			step.NewNodes = g.NumNodes() - nodesBefore
			step.Duration = f.searchDur + time.Since(ruleStart)
			if stop != "" {
				break
			}
		}
		g.ClearRuleContext()
		rebuildStart := time.Now()
		gauge.Apply = rebuildStart.Sub(applyStart)
		g.Rebuild()
		gauge.Rebuild = time.Since(rebuildStart)
		if stop != "" {
			rep.Reason = stop
			flushGauge(false)
			break
		}
		lim.Progress.publish(iter+1, g.NumNodes(), g.NumClasses(), g.FootprintBytes())
		flushGauge(true)
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
	lim.Progress.publish(rep.Iterations, rep.Nodes, rep.Classes, g.FootprintBytes())
	return rep
}
