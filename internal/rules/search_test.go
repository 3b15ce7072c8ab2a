package rules

import (
	"reflect"
	"slices"
	"testing"

	"diospyros/internal/egraph"
	"diospyros/internal/expr"
	"diospyros/internal/kernels"
)

// vecClasses saturates an n×n×n MatMul at width 4 and returns the graph,
// its vec-lanewise and vec-mac rules, and the classes holding a Vec node:
// the classes those rules search.
func vecClasses(tb testing.TB, n int) (*egraph.EGraph, []egraph.Rewrite, []*egraph.EClass) {
	tb.Helper()
	g := egraph.New()
	g.AddExpr(kernels.MatMul(n, n, n).Spec)
	all := Default(4).Rules()
	egraph.Run(g, all, egraph.Limits{MaxNodes: 200000})
	var vec []egraph.Rewrite
	for _, r := range all {
		if r.Name() == "vec-lanewise" || r.Name() == "vec-mac" {
			vec = append(vec, r)
		}
	}
	var classes []*egraph.EClass
	for _, cls := range g.CanonicalClasses() {
		if slices.ContainsFunc(cls.Nodes, func(n egraph.NodeID) bool { return g.Node(n).Op == expr.OpVec }) {
			classes = append(classes, cls)
		}
	}
	if len(vec) != 2 || len(classes) < 2 {
		tb.Fatalf("setup: %d vector rules, %d Vec classes", len(vec), len(classes))
	}
	return g, vec, classes
}

// cloneMatches deep-copies vector matches, so a later search writing into
// memory a match points at shows up as a difference.
func cloneMatches(ms []egraph.Match) []egraph.Match {
	out := slices.Clone(ms)
	for i := range out {
		vm := *out[i].Data.(*vecMatch)
		vm.ops = slices.Clone(vm.ops)
		out[i].Data = &vm
	}
	return out
}

// TestVectorSearchOwnsItsMatches holds the vector searchers' matches to
// owning their data. A search reuses scratch across the Vec nodes and
// operator families it visits, and the runner keeps matches across
// iterations while other searches of the same rule value run (semi-naive
// caches, concurrent shards). So the matches of shard A must survive the
// search of shard B unchanged, and each must equal what a search of its
// class alone finds, whatever the same call searched after it.
func TestVectorSearchOwnsItsMatches(t *testing.T) {
	g, vec, classes := vecClasses(t, 4)
	// Alternate classes between the shards, so both hold MAC matches.
	var shardA, shardB []*egraph.EClass
	for i, cls := range classes {
		if i%2 == 0 {
			shardA = append(shardA, cls)
		} else {
			shardB = append(shardB, cls)
		}
	}
	for _, r := range vec {
		a, _ := r.SearchClasses(g, shardA, nil)
		want := cloneMatches(a)
		b, _ := r.SearchClasses(g, shardB, nil)
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("%s: setup: %d matches in shard A, %d in shard B", r.Name(), len(a), len(b))
		}
		if !reflect.DeepEqual(a, want) {
			t.Fatalf("%s: searching shard B changed shard A's matches", r.Name())
		}
		for k := 0; k < len(a); {
			cls := g.Class(a[k].Class)
			alone, _ := r.SearchClasses(g, []*egraph.EClass{cls}, nil)
			end := k + len(alone)
			if end > len(a) || !reflect.DeepEqual(a[k:end], alone) {
				t.Fatalf("%s: class %d's matches differ from a search of it alone", r.Name(), cls.ID)
			}
			k = end
		}
	}
}

// BenchmarkVectorSearch times one search of vec-lanewise and vec-mac over
// every Vec class of a saturated MatMul 8x8 graph: the custom searchers
// that rebuild their lane decompositions every iteration (paper §3.3).
// Its allocs/op count what a search costs beyond the matches it returns.
func BenchmarkVectorSearch(b *testing.B) {
	g, vec, classes := vecClasses(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		for _, r := range vec {
			ms, _ := r.SearchClasses(g, classes, nil)
			matches += len(ms)
		}
	}
	b.ReportMetric(float64(matches)/float64(b.N), "matches")
}

// BenchmarkVectorSearchSteady re-searches BenchmarkVectorSearch's graph
// with each rule's matches from a first search as its cached list: the
// steady state of a Vec class the runner searches again although nothing
// its matches read has changed. Every match is reused, so its allocs/op
// count the search's scratch and result lists only.
func BenchmarkVectorSearchSteady(b *testing.B) {
	g, vec, classes := vecClasses(b, 8)
	cached := make([][]egraph.Match, len(vec))
	for k, r := range vec {
		cached[k], _ = r.SearchClasses(g, classes, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	reused := 0
	for i := 0; i < b.N; i++ {
		for k, r := range vec {
			_, re := r.SearchClasses(g, classes, cached[k])
			reused += re.Count()
		}
	}
	b.ReportMetric(float64(reused)/float64(b.N), "reused")
}

// TestVectorSearchReusesCachedMatches holds the vector searchers to reusing
// their cached matches. The root class below, (Vec L1 L2) with each lane
// holding a (+ _ (* _ _)) and a (- _ _) node, matches vec-lanewise in two
// families (VecAdd and VecMinus) and vec-mac once, one lane combination
// each. Once the graph is saturated, searching the class again with the
// first search's matches as the cached list must return those very
// matches, each flagged reused, and allocate neither the operand array nor
// the vecMatch array a fresh search allocates per matching family. The
// allocations are counted against a search with a stale cached list (the
// same matches under another function symbol), which finds nothing to
// reuse but sizes its result alike: the reuse saves two allocations per
// family and spends one, the word of its reuse flags.
func TestVectorSearchReusesCachedMatches(t *testing.T) {
	g := egraph.New()
	lane := func(sum, diff string) egraph.ClassID {
		id, _ := g.Union(g.AddExpr(expr.MustParse(sum)), g.AddExpr(expr.MustParse(diff)))
		return id
	}
	l1 := lane("(+ a (* b c))", "(- d e)")
	l2 := lane("(+ f (* h i))", "(- j k)")
	root := g.Add(egraph.ENode{Op: expr.OpVec, Args: []egraph.ClassID{l1, l2}})
	g.Rebuild()
	cfg := Config{Widths: []int{2}}
	vec, mac := newVectorizeRule(cfg), newMACRule(cfg)
	if rep := egraph.Run(g, []egraph.Rewrite{vec, mac}, egraph.Limits{}); !rep.Saturated() {
		t.Fatalf("setup: run stopped %s", rep.Reason)
	}
	classes := []*egraph.EClass{g.Class(g.Find(root))}
	for _, tc := range []struct {
		r        egraph.Rewrite
		families int
	}{{vec, 2}, {mac, 1}} {
		name := tc.r.Name()
		full, none := tc.r.SearchClasses(g, classes, nil)
		if len(full) != tc.families || none != nil {
			t.Fatalf("%s: setup: %d matches (%d reused) without a cache, want %d (0)",
				name, len(full), none.Count(), tc.families)
		}
		again, reused := tc.r.SearchClasses(g, classes, full)
		if len(again) != len(full) {
			t.Fatalf("%s: %d matches with the cache, %d without", name, len(again), len(full))
		}
		for j := range full {
			if again[j].Data != full[j].Data || !reused.Has(j) {
				t.Errorf("%s: match %d is not the cached one (reused flag %v)", name, j, reused.Has(j))
			}
		}
		stale := cloneMatches(full)
		for _, mt := range stale {
			mt.Data.(*vecMatch).sym = ^egraph.NoSym
		}
		if _, none := tc.r.SearchClasses(g, classes, stale); none != nil {
			t.Fatalf("%s: setup: a stale cached match was reused", name)
		}
		fresh := testing.AllocsPerRun(100, func() { tc.r.SearchClasses(g, classes, stale) })
		cached := testing.AllocsPerRun(100, func() { tc.r.SearchClasses(g, classes, full) })
		if want := fresh - float64(2*tc.families-1); cached != want {
			t.Errorf("%s: %v allocations with the cache, want %v (%v with a stale one, less an "+
				"operand and a vecMatch array per family, plus the reuse flags)", name, cached, want, fresh)
		}
	}
}

// TestFuncLanesVectorizeAtAnyArity holds searchFunc's vectorization of
// same-function lanes at arity 0, 1 and 2: (Vec (func f ...) (func f ...))
// gains (VecFunc f (Vec ...) ...) with one Vec per argument position.
func TestFuncLanesVectorizeAtAnyArity(t *testing.T) {
	for arity, src := range []string{
		"(Vec (func f) (func f))",
		"(Vec (func f a) (func f b))",
		"(Vec (func f a b) (func f c d))",
	} {
		g := egraph.New()
		root := g.AddExpr(expr.MustParse(src))
		egraph.Run(g, []egraph.Rewrite{newVectorizeRule(Config{Widths: []int{2}})}, egraph.Limits{MaxIterations: 4})
		found := false
		for _, ni := range g.Class(root).Nodes {
			if n := g.Node(ni); n.Op == expr.OpVecFunc && g.SymName(n.Sym) == "f" && len(n.Args) == arity {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no (VecFunc f) with %d argument vectors in the root class", src, arity)
		}
	}
}
