package egraph

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"diospyros/internal/expr"
)

// saturationWorkload builds a deep sum-of-products expression and a rule
// set (distribution, commutativity, associativity) whose match counts grow
// quickly — a proxy for the large-kernel saturation runs whose apply-phase
// throughput the runner's cancellation checks must not tax.
func saturationWorkload(depth int) (*expr.Expr, []Rewrite) {
	var b strings.Builder
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "(+ (* x%d y%d) ", i, i)
	}
	b.WriteString("z")
	b.WriteString(strings.Repeat(")", depth))
	rules := []Rewrite{
		MustRewrite("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))"),
		MustRewrite("commute-add", "(+ ?a ?b)", "(+ ?b ?a)"),
		MustRewrite("commute-mul", "(* ?a ?b)", "(* ?b ?a)"),
		MustRewrite("assoc-add", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
	}
	return expr.MustParse(b.String()), rules
}

// BenchmarkSaturationThroughput measures raw runner throughput (applies/s)
// on an explosive workload. Guards the amortized deadline/cancellation
// check in the apply loop: per-apply bookkeeping shows up directly here.
func BenchmarkSaturationThroughput(b *testing.B) {
	e, rules := saturationWorkload(12)
	var applied int
	for i := 0; i < b.N; i++ {
		g := New()
		g.AddExpr(e)
		rep := Run(g, rules, Limits{MaxIterations: 4, MaxNodes: 50_000})
		applied = rep.Applied
	}
	b.ReportMetric(float64(applied), "applies")
	b.ReportMetric(float64(applied)*float64(b.N)/b.Elapsed().Seconds(), "applies/s")
}

// BenchmarkSaturate measures one full saturation run of the explosive
// workload — the end-to-end number the §14 data-layout work (interned
// symbols, node-ID hashcons, semi-naive dispatch) moves. The match pool follows GOMAXPROCS, so
// -cpu 1,2 yields a serial row and a two-worker row.
func BenchmarkSaturate(b *testing.B) {
	e, rules := saturationWorkload(12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := New()
		g.AddExpr(e)
		Run(g, rules, Limits{MaxIterations: 4, MaxNodes: 50_000})
	}
}

// matchPhaseGraph is the saturated graph the match-phase benchmarks search.
func matchPhaseGraph() (*EGraph, []Rewrite, []int) {
	e, rules := saturationWorkload(12)
	g := New()
	g.AddExpr(e)
	Run(g, rules, Limits{MaxIterations: 4, MaxNodes: 50_000})
	all := make([]int, len(rules))
	for i := range all {
		all[i] = i
	}
	return g, rules, all
}

// BenchmarkMatchPhase isolates a cold match phase on a saturated graph: a
// first-iteration search, with no cached matches, of every rule over every
// canonical class its RootOps admits, on a pool of GOMAXPROCS workers.
func BenchmarkMatchPhase(b *testing.B) {
	g, rules, all := matchPhaseGraph()
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		found, _, _ := newMatcher(rules).search(context.Background(), g, all, runtime.GOMAXPROCS(0))
		for _, f := range found {
			total += len(f.matches)
		}
	}
	b.ReportMetric(float64(total)/float64(b.N), "matches")
}

// BenchmarkMatchPhaseSteady measures one more iteration's match phase on
// the same saturated graph once every rule has a cache: nothing changed
// since the last search, so it costs the dirty walk plus filtering and
// merging the cached lists — the floor of a semi-naive search.
func BenchmarkMatchPhaseSteady(b *testing.B) {
	g, rules, all := matchPhaseGraph()
	m := newMatcher(rules)
	m.search(context.Background(), g, all, runtime.GOMAXPROCS(0))
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		found, _, _ := m.search(context.Background(), g, all, runtime.GOMAXPROCS(0))
		for _, f := range found {
			total += len(f.matches)
		}
	}
	b.ReportMetric(float64(total)/float64(b.N), "matches")
}

// BenchmarkRebuildSteady times a Rebuild of the same saturated graph once
// the match phase has consumed the change log and nothing has changed
// since: Rebuild visits only logged classes (DESIGN.md §14.3), so this is
// O(1) and allocation-free, where a whole-graph canonicalization pass
// would cost O(nodes) every iteration.
func BenchmarkRebuildSteady(b *testing.B) {
	g, rules, all := matchPhaseGraph()
	newMatcher(rules).search(context.Background(), g, all, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Rebuild()
	}
}

// BenchmarkAdd builds a 4096-node chain of fresh nodes per op: Add's miss
// path, from the hashcons probe through the node table, the Args arena and
// the new class to the child's parent entry.
func BenchmarkAdd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addSink = addChain(4096)
	}
}

// addSink keeps BenchmarkAdd's graphs live, so its work is not elided.
var addSink *EGraph

// BenchmarkMatchHashconsHit measures the hashcons probe: Lookup of an
// existing binary-arity node. The probe hashes and compares the node's
// contents in place, allocation-free at every arity
// (TestLookupAllocationFreeAtEveryArity covers the wide ones); a
// regression to per-probe allocation shows up directly in allocs/op.
func BenchmarkMatchHashconsHit(b *testing.B) {
	g := New()
	e, _ := saturationWorkload(12)
	g.AddExpr(e)
	x := g.AddLeaf(expr.OpSym, 0, "x0", 0)
	y := g.AddLeaf(expr.OpSym, 0, "y0", 0)
	n := ENode{Op: expr.OpMul, Args: []ClassID{x, y}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Lookup(n); !ok {
			b.Fatal("probe missed")
		}
	}
}

// BenchmarkSaturationThroughputProvenance is the same workload with
// provenance recording enabled — the measured cost of -explain. Compare
// against BenchmarkSaturationThroughput, which (recording disabled) pays
// only a nil check per Add/Union.
func BenchmarkSaturationThroughputProvenance(b *testing.B) {
	e, rules := saturationWorkload(12)
	var applied int
	for i := 0; i < b.N; i++ {
		g := New()
		g.AddExpr(e)
		g.EnableProvenance()
		rep := Run(g, rules, Limits{MaxIterations: 4, MaxNodes: 50_000})
		applied = rep.Applied
	}
	b.ReportMetric(float64(applied), "applies")
	b.ReportMetric(float64(applied)*float64(b.N)/b.Elapsed().Seconds(), "applies/s")
}
