package egraph

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"diospyros/internal/expr"
	"diospyros/internal/pipeline"
	"diospyros/internal/telemetry"
)

// deepExpr builds a chain (+ (* x_i c) ...) wide enough that the e-graph
// clears the parallel matcher's class-count gate.
func deepExpr(n int) *expr.Expr {
	e := expr.Lit(0)
	for i := 0; i < n; i++ {
		e = expr.Add(e, expr.Mul(expr.Sym(fmt.Sprintf("x%d", i)), expr.Lit(float64(i%7))))
	}
	return e
}

func testRules() []Rewrite {
	return []Rewrite{
		MustRewrite("add-0-l", "(+ 0 ?a)", "?a"),
		MustRewrite("mul-0-r", "(* ?a 0)", "0"),
		MustRewrite("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"),
		MustRewrite("comm-mul", "(* ?a ?b)", "(* ?b ?a)"),
		MustRewrite("assoc-add", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
	}
}

// withProcs sets GOMAXPROCS, and with it the match pool size, for the
// rest of the test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// runProcs saturates a fresh graph over deepExpr at the given GOMAXPROCS
// and returns the report plus a canonical dump of the final graph.
func runProcs(t *testing.T, procs int, jr *Journal) (Report, string) {
	t.Helper()
	withProcs(t, procs)
	g := New()
	g.AddExpr(deepExpr(48))
	rep := Run(g, testRules(), Limits{
		MaxIterations: 4,
		MaxNodes:      20_000,
		Journal:       jr,
	})
	return rep, g.ToDot()
}

// TestParallelMatchDeterminism checks the determinism contract: any
// GOMAXPROCS produces the same iteration count, application counts,
// per-rule attribution, and — via the dot dump — the same final e-graph as
// the inline matcher.
func TestParallelMatchDeterminism(t *testing.T) {
	repSerial, dotSerial := runProcs(t, 1, nil)
	for _, procs := range []int{2, 4, 8} {
		rep, dot := runProcs(t, procs, nil)
		if rep.Iterations != repSerial.Iterations || rep.Applied != repSerial.Applied ||
			rep.Nodes != repSerial.Nodes || rep.Classes != repSerial.Classes ||
			rep.Reason != repSerial.Reason {
			t.Fatalf("GOMAXPROCS=%d report diverged: %+v vs serial %+v", procs, rep, repSerial)
		}
		if a, b := ruleApplied(rep), ruleApplied(repSerial); !reflect.DeepEqual(a, b) {
			t.Fatalf("GOMAXPROCS=%d per-rule counts diverged:\n%v\nvs serial\n%v", procs, a, b)
		}
		if dot != dotSerial {
			t.Fatalf("GOMAXPROCS=%d produced a different final e-graph", procs)
		}
	}
}

// TestParallelMatchGauges checks that the per-iteration gauges (the trace
// the server and bench read) are identical at different GOMAXPROCS,
// modulo wall-time fields.
func TestParallelMatchGauges(t *testing.T) {
	repSerial, _ := runProcs(t, 1, nil)
	repPar, _ := runProcs(t, 8, nil)
	if len(repSerial.Iters) != len(repPar.Iters) {
		t.Fatalf("iteration gauge counts differ: %d vs %d", len(repSerial.Iters), len(repPar.Iters))
	}
	a, b := telemetry.Untimed(repSerial.Iters), telemetry.Untimed(repPar.Iters)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("iteration %d gauges diverged:\n%+v\nvs\n%+v", i+1, a[i], b[i])
		}
	}
}

// TestParallelMatchJournalCounts checks that the gauges a journal relays
// are the report's own, and that their rule rows (matches, applications,
// new nodes, bans) are identical at different GOMAXPROCS; only Duration
// fields may differ.
func TestParallelMatchJournalCounts(t *testing.T) {
	jrSerial := NewJournal()
	repSerial, _ := runProcs(t, 1, jrSerial)
	jrPar := NewJournal()
	runProcs(t, 8, jrPar)
	if !reflect.DeepEqual(jrSerial.GaugesSince(0), repSerial.Iters) {
		t.Fatal("journal gauges differ from the report's")
	}
	if a, b := telemetry.Untimed(jrSerial.GaugesSince(0)), telemetry.Untimed(jrPar.GaugesSince(0)); !reflect.DeepEqual(a, b) {
		t.Fatalf("journal rule rows diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestCompressPathsMakesFindReadOnly verifies the invariant the parallel
// matcher rests on: after CompressPaths every union-find chain has length
// at most one, so Find returns without writing.
func TestCompressPathsMakesFindReadOnly(t *testing.T) {
	g := New()
	ids := make([]ClassID, 20)
	for i := range ids {
		ids[i] = g.AddLeaf(expr.OpSym, 0, fmt.Sprintf("s%d", i), 0)
	}
	// Chain unions to build long paths.
	for i := 1; i < len(ids); i++ {
		g.Union(ids[i-1], ids[i])
	}
	g.Rebuild()
	g.CompressPaths()
	for i := range g.uf {
		root := g.uf[i]
		if g.uf[root] != root {
			t.Fatalf("uf[%d]=%d is not a root after CompressPaths", i, root)
		}
	}
	// All Finds must agree and must not alter the array.
	before := append([]ClassID(nil), g.uf...)
	want := g.Find(ids[0])
	for _, id := range ids {
		if got := g.Find(id); got != want {
			t.Fatalf("Find(%d)=%d, want %d", id, got, want)
		}
	}
	if !reflect.DeepEqual(before, g.uf) {
		t.Fatal("Find mutated the union-find after CompressPaths")
	}
}

// cancelRule is a rewrite whose search cancels the run's context, so the
// cancellation lands inside the match phase.
type cancelRule struct{ cancel context.CancelFunc }

func (r cancelRule) Name() string              { return "cancel" }
func (r cancelRule) RootOps() []expr.Op        { return nil }
func (r cancelRule) ReadDepth() int            { return 0 }
func (r cancelRule) Apply(*EGraph, Match) bool { return false }

func (r cancelRule) SearchClasses(*EGraph, []*EClass, []Match) ([]Match, Bitset) {
	r.cancel()
	return nil, nil
}

// TestParallelSearchCancellation checks that a context cancelled during the
// match phase stops the run inside its first iteration — inline at
// GOMAXPROCS 1, in the pool at 4 — discarding the iteration's matches and
// leaving the graph rebuilt.
func TestParallelSearchCancellation(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(t, procs)
		g := New()
		g.AddExpr(deepExpr(64))
		if n := g.NumClasses(); n < matchParallelMinClasses {
			t.Fatalf("graph has %d classes, below the pool gate %d", n, matchParallelMinClasses)
		}
		ctx, cancel := context.WithCancel(context.Background())
		rules := append([]Rewrite{cancelRule{cancel}}, testRules()...)
		rep := RunContext(ctx, g, rules, Limits{MaxIterations: 6})
		cancel()
		if rep.Reason != StopCancelled || rep.Iterations != 1 || rep.Applied != 0 {
			t.Errorf("GOMAXPROCS=%d: reason %s after %d iterations (%d applied), want %s after 1 (0 applied)",
				procs, rep.Reason, rep.Iterations, rep.Applied, StopCancelled)
		}
		if g.NeedsRebuild() {
			t.Errorf("GOMAXPROCS=%d: cancelled run left the graph needing a rebuild", procs)
		}
	}
}

// panicRule is a rule whose search panics on every class.
type panicRule struct{}

func (panicRule) Name() string              { return "panic" }
func (panicRule) RootOps() []expr.Op        { return nil }
func (panicRule) ReadDepth() int            { return 0 }
func (panicRule) Apply(*EGraph, Match) bool { return false }
func (panicRule) SearchClasses(*EGraph, []*EClass, []Match) ([]Match, Bitset) {
	panic("search failed")
}

// TestMatchWorkerPanicIsAStageError checks that a panic in a match worker
// reaches the saturate stage as a recovered *pipeline.PanicError carrying
// the worker's value and stack, instead of ending the process.
func TestMatchWorkerPanicIsAStageError(t *testing.T) {
	withProcs(t, 2)
	g := New()
	g.AddExpr(deepExpr(48))
	if n := g.NumClasses(); n < matchParallelMinClasses {
		t.Fatalf("%d classes do not start the match pool (gate %d)", n, matchParallelMinClasses)
	}
	saturate := pipeline.New(pipeline.Stage[*EGraph]{
		Name: "saturate",
		Run: func(ctx context.Context, g *EGraph) error {
			RunContext(ctx, g, []Rewrite{panicRule{}}, Limits{MaxIterations: 1})
			return nil
		},
	})
	err := saturate.Run(context.Background(), g, nil)
	var se *pipeline.StageError
	if !errors.As(err, &se) || se.Stage != "saturate" {
		t.Fatalf("Run returned %v, want a saturate StageError", err)
	}
	var pe *pipeline.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("StageError wraps %T, want *pipeline.PanicError", se.Err)
	}
	if pe.Value != "search failed" {
		t.Errorf("panic value %v, want the rule's", pe.Value)
	}
	// The stack is the worker's: the rule's frame, in a goroutine the
	// match phase started.
	stack := string(pe.Stack)
	for _, want := range []string{"panicRule.SearchClasses", "created by diospyros/internal/egraph.(*matcher).search"} {
		if !strings.Contains(stack, want) {
			t.Errorf("stack lacks %q:\n%s", want, stack)
		}
	}
}
