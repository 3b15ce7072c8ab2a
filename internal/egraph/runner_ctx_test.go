package egraph

import (
	"context"
	"strings"
	"testing"
	"time"

	"diospyros/internal/expr"
)

// wideAddChain builds (+ a0 (+ a1 (+ ... an))) — n add nodes, so a
// commutativity rule yields n matches in the very first iteration.
func wideAddChain(n int) *expr.Expr {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString("(+ a")
		b.WriteString(string(rune('0'+i%10)) + string(rune('a'+i%26)))
		b.WriteString(" ")
	}
	b.WriteString("tail")
	b.WriteString(strings.Repeat(")", n))
	return expr.MustParse(b.String())
}

// cancelAfterApplies wraps a rewrite and cancels the run's context after
// its Apply has been invoked n times — a deterministic mid-iteration
// cancellation.
type cancelAfterApplies struct {
	Rewrite
	n      int
	count  int
	cancel context.CancelFunc
}

func (c *cancelAfterApplies) Apply(g *EGraph, m Match) bool {
	ok := c.Rewrite.Apply(g, m)
	if c.count++; c.count == c.n {
		c.cancel()
	}
	return ok
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := New()
	g.AddExpr(expr.MustParse("(+ x 0)"))
	rep := RunContext(ctx, g, []Rewrite{MustRewrite("add-zero", "(+ ?a 0)", "?a")}, Limits{})
	if rep.Reason != StopCancelled {
		t.Fatalf("Reason = %s, want cancelled", rep.Reason)
	}
	if rep.Iterations != 0 || rep.Applied != 0 {
		t.Fatalf("work done despite pre-cancelled context: %+v", rep)
	}
	if bad := g.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants broken: %v", bad)
	}
}

// Cancelling mid-apply must stop within ctxCheckInterval applies — i.e.
// well inside the current iteration — and leave the graph rebuilt.
func TestRunContextCancelledMidIteration(t *testing.T) {
	g := New()
	g.AddExpr(wideAddChain(600))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const cancelAt = 100
	rw := &cancelAfterApplies{
		Rewrite: MustRewrite("commute-add", "(+ ?a ?b)", "(+ ?b ?a)"),
		n:       cancelAt,
		cancel:  cancel,
	}
	rep := RunContext(ctx, g, []Rewrite{rw}, Limits{MaxIterations: 50})

	if rep.Reason != StopCancelled {
		t.Fatalf("Reason = %s, want cancelled (%+v)", rep.Reason, rep)
	}
	if rep.Iterations != 1 {
		t.Fatalf("ran %d iterations; cancellation did not stop within one", rep.Iterations)
	}
	// The poll is amortized: at most ctxCheckInterval further applies may
	// happen after the cancellation before the runner notices.
	if rw.count > cancelAt+ctxCheckInterval {
		t.Fatalf("%d applies after cancellation (interval %d)", rw.count-cancelAt, ctxCheckInterval)
	}
	if g.NeedsRebuild() {
		t.Fatal("e-graph left un-rebuilt after cancellation")
	}
	if bad := g.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants broken after cancellation: %v", bad)
	}
	// The cut-short iteration still reports a (partial) gauge.
	if len(rep.Iters) != 1 || rep.Iters[0].Applied == 0 {
		t.Fatalf("missing partial iteration gauge: %+v", rep.Iters)
	}
}

func TestRunContextDeadlineReportsTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	g := New()
	g.AddExpr(expr.MustParse("(+ x 0)"))
	rep := RunContext(ctx, g, []Rewrite{MustRewrite("add-zero", "(+ ?a 0)", "?a")}, Limits{})
	if rep.Reason != StopTimeout {
		t.Fatalf("Reason = %s, want timeout", rep.Reason)
	}
}

// Limits.Timeout must behave identically to a context deadline.
func TestRunLimitsTimeoutStillWorks(t *testing.T) {
	g := New()
	g.AddExpr(expr.MustParse("(+ x 0)"))
	rep := Run(g, []Rewrite{MustRewrite("add-zero", "(+ ?a 0)", "?a")},
		Limits{Timeout: time.Nanosecond})
	if rep.Reason != StopTimeout {
		t.Fatalf("Reason = %s, want timeout", rep.Reason)
	}
}

func TestRunReportsIterationGauges(t *testing.T) {
	g := New()
	g.AddExpr(expr.MustParse("(+ (+ x 0) 0)"))
	rep := Run(g, []Rewrite{MustRewrite("add-zero", "(+ ?a 0)", "?a")}, Limits{})
	if !rep.Saturated() {
		t.Fatalf("did not saturate: %+v", rep)
	}
	if len(rep.Iters) != rep.Iterations {
		t.Fatalf("%d gauges for %d iterations", len(rep.Iters), rep.Iterations)
	}
	applied := 0
	for i, it := range rep.Iters {
		if it.Iteration != i+1 {
			t.Errorf("gauge %d has Iteration %d", i, it.Iteration)
		}
		if it.Nodes == 0 || it.Classes == 0 {
			t.Errorf("gauge %d missing e-graph size: %+v", i, it)
		}
		applied += it.Applied
	}
	if applied != rep.Applied {
		t.Errorf("gauges sum %d applies, report says %d", applied, rep.Applied)
	}
	last := rep.Iters[len(rep.Iters)-1]
	if last.Nodes != rep.Nodes || last.Classes != rep.Classes {
		t.Errorf("final gauge %+v disagrees with report %d/%d", last, rep.Nodes, rep.Classes)
	}
	for _, it := range rep.Iters {
		rowApplied, rowMatches := 0, 0
		for _, s := range it.Rules {
			rowApplied += s.Applied
			rowMatches += s.Matches
		}
		if rowApplied != it.Applied || rowMatches != it.Matches {
			t.Errorf("iteration %d rule rows sum to %d matches / %d applied, gauge says %d / %d",
				it.Iteration, rowMatches, rowApplied, it.Matches, it.Applied)
		}
	}
}
