package egraph

import (
	"reflect"
	"sync"
	"testing"

	"diospyros/internal/expr"
	"diospyros/internal/telemetry"
)

// ruleApplied sums successful applications per rule over a run's rule rows.
func ruleApplied(rep Report) map[string]int {
	out := map[string]int{}
	for _, it := range rep.Iters {
		for _, s := range it.Rules {
			out[s.Rule] += s.Applied
		}
	}
	return out
}

func TestJournalGaugesSinceCursor(t *testing.T) {
	j := NewJournal()
	for i := 0; i < 3; i++ {
		j.append(telemetry.IterationGauge{Iteration: i + 1})
	}
	gs := j.GaugesSince(0)
	if len(gs) != 3 {
		t.Fatalf("first read = %d gauges, want 3", len(gs))
	}
	if gs := j.GaugesSince(3); gs != nil {
		t.Fatalf("caught-up read = %+v, want none", gs)
	}
	j.append(telemetry.IterationGauge{Iteration: 4})
	gs = j.GaugesSince(3)
	if len(gs) != 1 || gs[0].Iteration != 4 {
		t.Fatalf("incremental read = %+v, want the iteration-4 gauge", gs)
	}
	if gs := j.GaugesSince(9); gs != nil {
		t.Fatalf("read past the end = %+v, want none", gs)
	}
	if got := len(j.GaugesSince(0)); got != 4 {
		t.Fatalf("full read = %d gauges, want 4", got)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.append(telemetry.IterationGauge{})
	j.SampleCost(0, nil)
	if c := j.sampleCost(New()); c != nil {
		t.Fatalf("nil journal sampled cost %v", *c)
	}
	if gs := j.GaugesSince(0); gs != nil {
		t.Fatalf("nil journal returned gauges %v", gs)
	}
}

// TestRunJournalAttribution drives a real saturation with the journal on
// and checks that the relayed gauges are the report's, that rule rows
// land, and that every completed iteration carries a best-cost sample.
func TestRunJournalAttribution(t *testing.T) {
	g := New()
	root := g.AddExpr(expr.MustParse("(+ (* a (+ b c)) 0)"))
	j := NewJournal()
	j.SampleCost(root, func(g *EGraph, r ClassID) (float64, bool) {
		if r != root {
			t.Errorf("sampler called for class %d, want root %d", r, root)
		}
		return float64(g.NumNodes()), true
	})
	rules := []Rewrite{
		MustRewrite("add-zero", "(+ ?a 0)", "?a"),
		MustRewrite("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))"),
	}
	rep := Run(g, rules, Limits{Journal: j})
	if !rep.Saturated() {
		t.Fatalf("run did not saturate: %v", rep.Reason)
	}
	if !reflect.DeepEqual(j.GaugesSince(0), rep.Iters) {
		t.Fatalf("journal gauges differ from the report's")
	}
	steps := 0
	for _, it := range rep.Iters {
		if it.BestCost == nil || *it.BestCost != float64(it.Nodes) {
			t.Fatalf("iteration %d best cost = %v, want %d", it.Iteration, it.BestCost, it.Nodes)
		}
		for _, s := range it.Rules {
			steps++
			if s.Matches <= 0 {
				t.Fatalf("rule row without matches: %+v", s)
			}
		}
	}
	if steps == 0 {
		t.Fatal("no rule rows recorded")
	}
	rules2, _ := telemetry.Attribution(rep.Iters)
	applied := 0
	for _, r := range rules2 {
		applied += r.Applied
	}
	if applied != rep.Applied {
		t.Fatalf("rule rows sum to %d applications, report says %d", applied, rep.Applied)
	}
}

// TestRunJournalBanEvents forces the Backoff scheduler to ban a rule and
// checks the gauges' ban steps: the banned row keeps its discarded
// matches, the rule has no row in the iterations it sits out
// (Iteration, BannedUntil), and it comes back at BannedUntil.
func TestRunJournalBanEvents(t *testing.T) {
	g := New()
	g.AddExpr(expr.MustParse("(+ (+ a b) (+ c (+ d e)))"))
	rules := []Rewrite{
		MustRewrite("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"),
	}
	rep := Run(g, rules, Limits{
		MaxIterations: 12,
		Backoff:       &Backoff{MatchLimit: 2, BanLength: 2},
	})
	row := map[int]telemetry.RuleStep{}
	for _, it := range rep.Iters {
		for _, s := range it.Rules {
			if s.Rule != "comm-add" {
				t.Fatalf("iteration %d: unexpected row %+v", it.Iteration, s)
			}
			row[it.Iteration] = s
		}
	}
	_, bans := telemetry.Attribution(rep.Iters)
	if len(bans) == 0 {
		t.Fatalf("no ban steps in the gauges (report: %+v)", rep)
	}
	returned := 0
	for _, ban := range bans {
		if ban.BannedUntil <= ban.Iteration+1 || ban.Bans <= 0 || ban.Matches <= 2 || ban.Applied != 0 {
			t.Fatalf("malformed ban step at iteration %d: %+v", ban.Iteration, ban.RuleStep)
		}
		if it := rep.Iters[ban.Iteration-1]; it.Matches != 0 {
			t.Errorf("iteration %d counted %d discarded matches", ban.Iteration, it.Matches)
		}
		for i := ban.Iteration + 1; i < ban.BannedUntil; i++ {
			if s, ok := row[i]; ok {
				t.Errorf("banned rule ran at iteration %d inside [%d, %d): %+v",
					i, ban.Iteration, ban.BannedUntil, s)
			}
		}
		if ban.BannedUntil <= rep.Iterations {
			if _, ok := row[ban.BannedUntil]; !ok {
				t.Errorf("rule did not come back at iteration %d", ban.BannedUntil)
			}
			returned++
		}
	}
	if returned == 0 {
		t.Fatal("no ban expired within the run")
	}
}

// TestJournalConcurrentReads exercises the journal under -race: a reader
// polls GaugesSince while a saturation run writes.
func TestJournalConcurrentReads(t *testing.T) {
	g := New()
	g.AddExpr(expr.MustParse("(* a (+ b (+ c (+ d e))))"))
	j := NewJournal()
	rules := []Rewrite{
		MustRewrite("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))"),
		MustRewrite("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"),
		MustRewrite("comm-mul", "(* ?a ?b)", "(* ?b ?a)"),
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var seen []telemetry.IterationGauge
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				seen = append(seen, j.GaugesSince(len(seen))...)
				return
			default:
			}
			for _, it := range j.GaugesSince(len(seen)) {
				for _, s := range it.Rules {
					_ = s.Matches // read rows the runner may still be sharing
				}
				seen = append(seen, it)
			}
		}
	}()
	rep := Run(g, rules, Limits{MaxIterations: 8, Journal: j})
	close(done)
	wg.Wait()
	if !reflect.DeepEqual(seen, rep.Iters) {
		t.Fatalf("reader saw %d gauges, run recorded %d", len(seen), len(rep.Iters))
	}
}
