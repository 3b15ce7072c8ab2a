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
// incremental rebuild's oracle. It returns the run's report and how many
// lists it compared.
func oracleRun(t *testing.T, name string, spec *kernel.Lifted, rs []egraph.Rewrite, lim egraph.Limits) (egraph.Report, int) {
	t.Helper()
	checked, failed := 0, false
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
	restore := egraph.SetMatchHook(func(g *egraph.EGraph, i int, r egraph.Rewrite, merged []egraph.Match) {
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
	g := egraph.New()
	g.AddExpr(spec.Spec)
	rep := egraph.Run(g, rs, lim)
	checkGraph(g, "after Run")
	if iter != rep.Iterations {
		t.Errorf("%s: CheckInvariants ran on %d of %d iterations", name, iter, rep.Iterations)
	}
	return rep, checked
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

// TestIncrementalMatchEqualsFullSearch is the semi-naive match phase's
// and the incremental rebuild's oracle (DESIGN.md §9.1, §14.3): across the
// 21-kernel suite, at one width and at two, and under AC rules with
// Backoff bans, the list each rule hands the apply phase equals a
// whole-graph search on every iteration, and every rebuilt graph passes
// CheckInvariants.
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
		for _, spec := range specs {
			name := spec.Name + " " + cfg.name
			rep, checked := oracleRun(t, name, spec, cfg.cfg.Rules(), egraph.Limits{})
			if checked == 0 || rep.Iterations < 2 {
				t.Errorf("%s: %d iterations, %d lists checked: nothing incremental was tested",
					name, rep.Iterations, checked)
			}
		}
	}

	// AC rules explode; the node cap bounds the run and Backoff bans rules,
	// which must come back with a full search.
	cfg := rules.Default(4)
	cfg.EnableAC = true
	lim := egraph.Limits{MaxNodes: 20_000, Backoff: &egraph.Backoff{}}
	rep, _ := oracleRun(t, "AC+Backoff", kernels.Conv2D(3, 3, 3, 3), cfg.Rules(), lim)
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
