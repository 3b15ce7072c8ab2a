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
// symbols, binary hashcons, indexed dispatch) moves. allocs/op here is
// dominated by hashcons probes. The match pool follows GOMAXPROCS, so
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

// BenchmarkMatchPhase isolates the read-only match phase on a saturated
// graph: one indexed search of every rule over every canonical class, the
// inner loop the head-op dispatch index (DESIGN.md §14) prunes, on a pool
// of GOMAXPROCS workers.
func BenchmarkMatchPhase(b *testing.B) {
	e, rules := saturationWorkload(12)
	g := New()
	g.AddExpr(e)
	Run(g, rules, Limits{MaxIterations: 4, MaxNodes: 50_000})
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		found, _, _ := searchParallel(context.Background(), g, rules, runtime.GOMAXPROCS(0))
		for _, f := range found {
			total += len(f.matches)
		}
	}
	b.ReportMetric(float64(total)/float64(b.N), "matches")
}

// BenchmarkMatchHashconsHit measures the hashcons probe fast path: Lookup
// of an existing binary-arity node. The §14 binary key makes this
// allocation-free; a regression to per-probe allocation shows up directly
// in allocs/op.
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
