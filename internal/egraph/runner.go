package egraph

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"diospyros/internal/expr"
	"diospyros/internal/telemetry"
)

// Rewrite is one rewrite rule: a searcher that finds matches in the graph
// and an applier that realizes a match. This mirrors egg's Searcher/Applier
// split (paper §3.3): syntactic rules are built with NewRewrite, while the
// vectorization rules use custom Go searchers.
//
// Every rule searches class by class. The runner uses that three ways: it
// hands SearchClasses only classes holding one of the rule's RootOps, it
// splits one rule's candidates across workers (parallel.go), and it
// searches again only the classes whose read neighbourhood changed since
// the last iteration, reusing the rule's earlier matches everywhere else
// (semi-naive dispatch, index.go). ReadDepth states the contract that makes
// the reuse exact.
//
// SearchClasses must treat the graph as read-only — all mutation belongs in
// Apply — and be safe for concurrent use with other searchers; a search
// that adds nodes or unions classes would race. The apply half is
// semi-naive too: the runner applies a match once, in the iteration that
// first finds it, and keeps it in the rule's cache without applying it
// again until its class is searched again (DESIGN.md §14.4).
type Rewrite interface {
	Name() string
	// RootOps returns the operator heads the rule's matches can root at:
	// its search returns no match for a class holding no node with one of
	// them. Nil means any class is a candidate.
	RootOps() []expr.Op
	// ReadDepth bounds what SearchClasses reads: searching class c reads
	// only the node lists of c and of classes at most ReadDepth child hops
	// below c. A class whose matches could change without one of those
	// lists changing breaks the contract, because the runner keeps c's
	// matches from the last iteration until one of them does.
	ReadDepth() int
	// SearchClasses returns the rule's matches within the given canonical
	// classes, derived from those classes only and in the order given.
	// Every match it finds while searching class c has Match.Class c.
	SearchClasses(g *EGraph, classes []*EClass) []Match
	// Apply realizes m and reports whether the graph changed. Its effect
	// may depend only on m and on the node lists ReadDepth lets the search
	// of m.Class read, and it must not mutate m.Data. Then applying m a
	// second time, while none of those lists has changed, is a no-op,
	// which is why the runner does not.
	Apply(g *EGraph, m Match) bool
}

// patternRewrite is a purely syntactic rule lhs ⇝ rhs. Its patterns are
// slotted copies (withSlots), and its matches carry their Subst in
// Match.Data.
type patternRewrite struct {
	name     string
	lhs, rhs *Pattern
	vars     int // distinct variables of lhs: the length of every Subst
}

// NewRewrite builds a syntactic rewrite rule from two patterns. Every
// variable in rhs must occur in lhs.
func NewRewrite(name string, lhs, rhs *Pattern) Rewrite {
	slots := map[string]int{}
	lhs = withSlots(lhs, slots)
	vars := len(slots)
	for _, v := range rhs.Vars() {
		if _, ok := slots[v]; !ok {
			panic("egraph: rewrite " + name + ": unbound rhs variable " + v)
		}
	}
	return &patternRewrite{name: name, lhs: lhs, rhs: withSlots(rhs, slots), vars: vars}
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

// RootOps: a pattern rooted at a variable matches anywhere; any other
// pattern only matches classes holding its root operator.
func (r *patternRewrite) RootOps() []expr.Op {
	if r.lhs.Var != "" {
		return nil
	}
	return []expr.Op{r.lhs.Op}
}

// ReadDepth of a syntactic rule: see patternDepth.
func (r *patternRewrite) ReadDepth() int { return patternDepth(r.lhs) }

func (r *patternRewrite) SearchClasses(g *EGraph, classes []*EClass) []Match {
	ps := patternSearch{g: g}
	s := make(Subst, 0, r.vars)
	for _, cls := range classes {
		ps.class = cls.ID
		ps.matchIn(r.lhs, cls.ID, s, nil)
	}
	return ps.out
}

func (r *patternRewrite) Apply(g *EGraph, m Match) bool {
	id, err := g.instantiate(r.rhs, m.Data.(Subst))
	if err != nil {
		return false
	}
	_, changed := g.Union(m.Class, id)
	return changed
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

// matchHook, when non-nil, sees every searched rule's merged match list
// each iteration, in rule order, with the rule's index in the run's rule
// list and how many of the matches its cache carried, before any match is
// applied. Tests set it (through export_test.go) to hold the merged list
// to a whole-graph search.
var matchHook func(g *EGraph, i int, r Rewrite, matches []Match, carried int)

// applyCarried, when non-nil, turns the apply phase's skip of carried
// matches off: each carried match is handed to it instead, and its result
// counts like a fresh match's. Tests set it (through export_test.go) to
// apply carried matches anyway and hold each to a no-op.
var applyCarried func(r Rewrite, g *EGraph, mt Match) bool

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
// rules, applies every match the rules' caches did not carry over from the
// last iteration, and rebuilds, until saturation or a limit is hit.
// Matches are searched before any are applied within an iteration, so rule
// application order within an iteration cannot hide matches (the
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

	m := newMatcher(rules)
	eligible := make([]int, 0, len(rules))
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
		// sit the iteration out and lose their cached matches.
		ruleSkipped := false
		eligible = eligible[:0]
		for i, r := range rules {
			if lim.Backoff != nil && lim.Backoff.banned(r.Name(), iter) {
				ruleSkipped = true
				m.forget(i)
				continue
			}
			eligible = append(eligible, i)
		}
		searchStart := time.Now()
		found, index, cancelled := m.search(ctx, g, eligible, runtime.GOMAXPROCS(0))
		gauge.Index = index
		if cancelled {
			gauge.Match = time.Since(searchStart) - index
			rep.Reason, _ = ctxStop()
			flushGauge(false)
			break
		}
		if matchHook != nil {
			for _, f := range found {
				matchHook(g, f.pos, f.rule, f.matches, f.carried.count())
			}
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
				m.forget(f.pos)
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
			for j, mt := range f.matches {
				// A carried match was applied when it was fresh, and
				// nothing it reads has changed since: applying it again
				// is a no-op (DESIGN.md §14.4).
				carried := f.carried.has(j)
				if carried && applyCarried == nil {
					continue
				}
				if prov {
					// Attribute every node/union the applier creates to
					// this rule, iteration, and matched class.
					g.SetRuleContext(f.rule.Name(), iter+1, mt.Class)
				}
				var ok bool
				if carried {
					ok = applyCarried(f.rule, g, mt)
				} else {
					ok = f.rule.Apply(g, mt)
				}
				if ok {
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
