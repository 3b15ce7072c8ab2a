package diospyros_test

import (
	"testing"
	"time"

	diospyros "diospyros"
	"diospyros/internal/bench"
)

// TestPhaseInvariantsAcrossSuite holds the phase path to its contract on
// every suite kernel at fg3lite-4: the saturate steps (the spec's ingest
// and the four saturation-loop phases) are present, children never
// outgrow their parents, and the Server-Timing codec round-trips the
// list. It logs the share of the saturate span the five steps cover (the
// rest is per-iteration bookkeeping and the run's set-up).
func TestPhaseInvariantsAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole suite")
	}
	steps := []string{"ingest", "index", "match", "apply", "rebuild"}
	spent := map[string]time.Duration{}
	for _, k := range bench.Suite() {
		res, err := diospyros.Compile(k.Lift(), diospyros.Options{})
		if err != nil {
			t.Fatalf("%s: %v", k.ID, err)
		}
		have := map[string]time.Duration{}
		for _, p := range res.Trace.Phases() {
			have[p.Path] = p.Duration
		}
		for _, step := range steps {
			d, ok := have["compile.saturate."+step]
			if !ok {
				t.Errorf("%s: no compile.saturate.%s phase", k.ID, step)
			}
			spent[step] += d
		}
		spent["saturate"] += have["compile.saturate"]
		for _, msg := range diospyros.PhaseInvariantViolations(res.Trace) {
			t.Errorf("%s: %s", k.ID, msg)
		}
	}
	if sat := spent["saturate"]; sat > 0 {
		var covered time.Duration
		for _, step := range steps {
			covered += spent[step]
			t.Logf("%-8s %v", step, spent[step].Round(time.Millisecond))
		}
		t.Logf("the five steps cover %.1f%% of %v saturate", 100*float64(covered)/float64(sat), sat.Round(time.Millisecond))
	}
}
