package egraph

import (
	"context"
	"sync"
	"testing"
	"time"

	"diospyros/internal/expr"
	"diospyros/internal/telemetry"
)

// growRules is an explosive ruleset: associativity plus commutativity over
// a chain of distinct symbols grows the e-graph every iteration (the
// classic AC blowup, paper §3.3), so runs last long enough for concurrent
// observers.
func growRules() []Rewrite {
	return []Rewrite{
		MustRewrite("assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
		MustRewrite("comm", "(+ ?a ?b)", "(+ ?b ?a)"),
	}
}

func addSymChain(g *EGraph, n int) ClassID {
	e := expr.Sym("s0")
	for i := 1; i < n; i++ {
		e = expr.Add(e, expr.Sym("s"+string(rune('0'+i))))
	}
	return g.AddExpr(e)
}

// TestProgressPublishedDuringRun reads Progress from a second goroutine
// while the run mutates the graph (run under -race in CI) and checks the
// final snapshot matches the report.
func TestProgressPublishedDuringRun(t *testing.T) {
	g := New()
	addSymChain(g, 8)
	prog := &Progress{}

	stop := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		for {
			select {
			case <-stop:
				return
			default:
				_ = prog.Snapshot()
			}
		}
	}()
	<-started

	rep := Run(g, growRules(), Limits{MaxIterations: 6, MaxNodes: 20_000, Progress: prog})
	close(stop)
	wg.Wait()

	s := prog.Snapshot()
	if s.Iteration != rep.Iterations || s.Nodes != rep.Nodes || s.Classes != rep.Classes {
		t.Fatalf("final snapshot %+v != report {%d %d %d}",
			s, rep.Iterations, rep.Nodes, rep.Classes)
	}
	if s.Iteration == 0 || s.Nodes == 0 {
		t.Fatalf("nothing published: %+v", s)
	}
	// The byte gauge rides every publish, so the final snapshot carries the
	// live footprint (the graph is non-empty, so it must be positive).
	if s.Bytes <= 0 {
		t.Fatalf("no footprint bytes published: %+v", s)
	}
	if final := g.FootprintBytes(); s.Bytes < final {
		t.Fatalf("published bytes %d below final footprint %d", s.Bytes, final)
	}
}

// TestProgressDrivenCancellation is the watchdog pattern end to end at the
// egraph level: a poller aborts the run once the published node count
// crosses a budget far below where the rules would otherwise take it.
func TestProgressDrivenCancellation(t *testing.T) {
	g := New()
	addSymChain(g, 8)
	prog := &Progress{}
	// The deadline is a safety net so a broken publish path fails the test
	// instead of deadlocking it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const budget = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if prog.Snapshot().Nodes > budget {
				cancel()
				return
			}
			select {
			case <-ctx.Done():
				return
			default:
			}
		}
	}()

	rep := RunContext(ctx, g, growRules(), Limits{MaxIterations: 1000, Progress: prog})
	<-done
	if rep.Reason != StopCancelled {
		t.Fatalf("reason = %s, want %s (nodes %d)", rep.Reason, StopCancelled, rep.Nodes)
	}
	if rep.Nodes <= budget {
		t.Fatalf("run stopped below budget: %d <= %d", rep.Nodes, budget)
	}
}

func TestProgressNilSafeInRun(t *testing.T) {
	g := New()
	addSymChain(g, 4)
	rep := Run(g, growRules(), Limits{MaxIterations: 2}) // nil Progress must not panic
	if rep.Iterations == 0 {
		t.Fatal("run did nothing")
	}
}

// TestOnRebuildFeedsMemProfiler runs a saturation far shorter than any
// polling interval and checks that OnEnd, called after the run's last
// rebuild, reports it once with the run's final node count, and that a
// MemProfiler fed by it captures a profile at that count.
func TestOnRebuildFeedsMemProfiler(t *testing.T) {
	g := New()
	addSymChain(g, 4)
	var counts []int
	var prof telemetry.MemProfiler
	prog := &Progress{OnEnd: func(n int) {
		counts = append(counts, n)
		prof.Observe(n)
	}}
	rep := Run(g, growRules(), Limits{MaxIterations: 3, Progress: prog})
	if len(counts) != 1 || counts[0] != rep.Nodes {
		t.Fatalf("OnEnd reported %v, want the report's %d nodes once", counts, rep.Nodes)
	}
	profile, peak := prof.Profile()
	if peak != rep.Nodes || peak == 0 {
		t.Fatalf("profiler peak %d, want the run's %d nodes", peak, rep.Nodes)
	}
	if len(profile) == 0 {
		t.Fatal("no heap profile captured")
	}
}
