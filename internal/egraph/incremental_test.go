package egraph_test

import (
	"fmt"
	"reflect"
	"testing"

	"diospyros/internal/egraph"
	"diospyros/internal/kernel"
	"diospyros/internal/kernels"
	"diospyros/internal/rules"
)

// suiteSpecs returns the lifted programs of the paper's 21-kernel suite
// (the same sizes internal/bench.Suite() enumerates — duplicated here
// because importing bench would cycle through the root package).
func suiteSpecs() []*kernel.Lifted {
	var out []*kernel.Lifted
	for _, sz := range [][4]int{
		{3, 3, 2, 2}, {3, 3, 3, 3}, {3, 5, 3, 3}, {4, 4, 3, 3},
		{8, 8, 3, 3}, {10, 10, 2, 2}, {10, 10, 3, 3}, {10, 10, 4, 4},
		{16, 16, 2, 2}, {16, 16, 3, 3}, {16, 16, 4, 4},
	} {
		out = append(out, kernels.Conv2D(sz[0], sz[1], sz[2], sz[3]))
	}
	for _, sz := range [][3]int{
		{2, 2, 2}, {2, 3, 3}, {3, 3, 3}, {4, 4, 4},
		{8, 8, 8}, {10, 10, 10}, {16, 16, 16},
	} {
		out = append(out, kernels.MatMul(sz[0], sz[1], sz[2]))
	}
	out = append(out, kernels.QProd(), kernels.QRDecomp(3), kernels.QRDecomp(4))
	return out
}

// oracleRun saturates spec under rs and holds every searched rule's merged
// match list, on every iteration, to the rule's own search over every
// canonical class, with no RootOps filter and no cache: same matches,
// element for element, in the same order. It also holds the graph to
// CheckInvariants once per iteration, right after the previous Rebuild
// (the first hook call of an iteration), and once after Run: the
// incremental rebuild's oracle. Last, it applies every carried match the
// apply phase would skip and holds each to a no-op: Apply returns false
// and adds no node and no class (semi-naive apply's oracle). It returns
// the run's report, how many lists it compared and how many carried
// matches it applied.
func oracleRun(t *testing.T, name string, spec *kernel.Lifted, rs []egraph.Rewrite, lim egraph.Limits) (rep egraph.Report, checked, carried int) {
	t.Helper()
	failed := false
	// The hook sees an iteration's rules in rule order, so a call whose
	// rule does not come after the previous call's starts an iteration.
	last, iter := len(rs), 0
	checkGraph := func(g *egraph.EGraph, when string) {
		if failed {
			return
		}
		if bad := g.CheckInvariants(); len(bad) != 0 {
			failed = true
			t.Errorf("%s: %s: %d invariant violations, first: %s", name, when, len(bad), bad[0])
		}
	}
	restore := egraph.SetMatchHook(func(g *egraph.EGraph, i int, r egraph.Rewrite, merged []egraph.Match, _ int) {
		checked++
		if i <= last {
			iter++
			checkGraph(g, fmt.Sprintf("iteration %d", iter))
		}
		last = i
		full := r.SearchClasses(g, g.CanonicalClasses())
		if failed || (len(full) == 0 && len(merged) == 0) || reflect.DeepEqual(full, merged) {
			return
		}
		failed = true
		t.Errorf("%s: rule %s: merged list (%d matches) differs from a full search (%d)%s",
			name, r.Name(), len(merged), len(full), firstDiff(full, merged))
	})
	defer restore()
	restoreApply := egraph.SetApplyCarried(func(r egraph.Rewrite, g *egraph.EGraph, mt egraph.Match) bool {
		carried++
		nodes, classes := g.NumNodes(), g.NumClasses()
		changed := r.Apply(g, mt)
		if !failed && (changed || g.NumNodes() != nodes || g.NumClasses() != classes) {
			failed = true
			t.Errorf("%s: iteration %d: rule %s: carried match at class %d changed the graph "+
				"(Apply %v, nodes %d -> %d, classes %d -> %d)", name, iter, r.Name(), mt.Class,
				changed, nodes, g.NumNodes(), classes, g.NumClasses())
		}
		return changed
	})
	defer restoreApply()
	g := egraph.New()
	g.AddExpr(spec.Spec)
	rep = egraph.Run(g, rs, lim)
	checkGraph(g, "after Run")
	if iter != rep.Iterations {
		t.Errorf("%s: CheckInvariants ran on %d of %d iterations", name, iter, rep.Iterations)
	}
	return rep, checked, carried
}

// firstDiff describes the first position where two match lists differ.
func firstDiff(full, merged []egraph.Match) string {
	for i := range min(len(full), len(merged)) {
		if !reflect.DeepEqual(full[i], merged[i]) {
			return fmt.Sprintf(": at %d full %+v, merged %+v", i, full[i], merged[i])
		}
	}
	return ""
}

// TestIncrementalMatchEqualsFullSearch is the semi-naive match phase's,
// the incremental rebuild's and semi-naive apply's oracle (DESIGN.md §9.1,
// §14.3, §14.4): across the 21-kernel suite, at one width and at two, and
// under AC rules with Backoff bans, the list each rule hands the apply
// phase equals a whole-graph search on every iteration, every rebuilt
// graph passes CheckInvariants, and every carried match the apply phase
// skips is a no-op when applied.
func TestIncrementalMatchEqualsFullSearch(t *testing.T) {
	specs := suiteSpecs()
	if len(specs) != 21 {
		t.Fatalf("suite has %d kernels, want 21", len(specs))
	}
	if testing.Short() {
		specs = specs[:4]
	}
	for _, cfg := range []struct {
		name string
		cfg  rules.Config
	}{
		{"width 4", rules.Default(4)},
		{"widths 4,8", rules.Config{Widths: []int{4, 8}}},
	} {
		carriedTotal := 0
		for _, spec := range specs {
			name := spec.Name + " " + cfg.name
			rep, checked, carried := oracleRun(t, name, spec, cfg.cfg.Rules(), egraph.Limits{})
			if checked == 0 || rep.Iterations < 2 {
				t.Errorf("%s: %d iterations, %d lists checked: nothing incremental was tested",
					name, rep.Iterations, checked)
			}
			carriedTotal += carried
		}
		if carriedTotal == 0 {
			t.Errorf("%s: no carried match was applied: the skip went untested", cfg.name)
		}
	}

	// AC rules explode; the node cap bounds the run and Backoff bans rules,
	// which must come back with a full search.
	mk := egraph.MustRewrite
	ac := append(rules.Default(4).Rules(),
		mk("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"),
		mk("comm-mul", "(* ?a ?b)", "(* ?b ?a)"),
		mk("assoc-add-r", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
		mk("assoc-add-l", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)"),
		mk("assoc-mul-r", "(* (* ?a ?b) ?c)", "(* ?a (* ?b ?c))"),
		mk("assoc-mul-l", "(* ?a (* ?b ?c))", "(* (* ?a ?b) ?c)"),
	)
	lim := egraph.Limits{MaxNodes: 20_000, Backoff: &egraph.Backoff{}}
	rep, _, carried := oracleRun(t, "AC+Backoff", kernels.Conv2D(3, 3, 3, 3), ac, lim)
	if carried == 0 {
		t.Errorf("AC+Backoff run carried no match: the skip went untested")
	}
	bans := 0
	for _, it := range rep.Iters {
		for _, step := range it.Rules {
			if step.Banned() {
				bans++
			}
		}
	}
	if bans == 0 {
		t.Errorf("AC+Backoff run banned no rule; the ban reset went untested")
	}
}

// TestRecordTimeBanDropsCache pins semi-naive apply's Backoff edge: a rule
// Backoff bans right after its search never applies that iteration's fresh
// matches, so its cache must not carry them on as applied. With a
// one-iteration ban the rule searches again at once; the run must end
// with the same graph and the same Report.Applied as a run that applies
// every carried match.
func TestRecordTimeBanDropsCache(t *testing.T) {
	spec := kernels.Conv2D(3, 3, 2, 2)
	rs := rules.Default(4).Rules()
	run := func(applyAll bool) (rep egraph.Report, dot string, edge bool) {
		// mixed[iteration] names the rules whose merged list held both
		// carried and fresh matches.
		mixed := map[int]map[string]bool{}
		last, iter := len(rs), 0
		restore := egraph.SetMatchHook(func(_ *egraph.EGraph, i int, r egraph.Rewrite, ms []egraph.Match, carried int) {
			if i <= last {
				iter++
				mixed[iter] = map[string]bool{}
			}
			last = i
			mixed[iter][r.Name()] = carried > 0 && carried < len(ms)
		})
		defer restore()
		if applyAll {
			defer egraph.SetApplyCarried(egraph.Rewrite.Apply)()
		}
		g := egraph.New()
		g.AddExpr(spec.Spec)
		rep = egraph.Run(g, rs, egraph.Limits{Backoff: &egraph.Backoff{MatchLimit: 16, BanLength: 1}})
		for _, it := range rep.Iters {
			for _, step := range it.Rules {
				// Banned after search, with carried and fresh matches,
				// and back for the very next iteration.
				if step.Banned() && step.BannedUntil == it.Iteration+1 && mixed[it.Iteration][step.Rule] {
					edge = true
				}
			}
		}
		return rep, g.ToDot(), edge
	}
	wantRep, wantDot, edge := run(true)
	if !edge {
		t.Fatal("no rule was banned after a search with carried and fresh matches and back " +
			"the next iteration: the edge went untested")
	}
	rep, dot, _ := run(false)
	if rep.Applied != wantRep.Applied || rep.Nodes != wantRep.Nodes || rep.Classes != wantRep.Classes {
		t.Errorf("skipping carried matches: applied %d, %d nodes, %d classes; applying them: %d, %d, %d",
			rep.Applied, rep.Nodes, rep.Classes, wantRep.Applied, wantRep.Nodes, wantRep.Classes)
	}
	if dot != wantDot {
		t.Error("skipping carried matches left a different graph than applying them")
	}
}
