package diff_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	diospyros "diospyros"
	"diospyros/internal/bench"
	"diospyros/internal/diff"
	"diospyros/internal/egraph"
	"diospyros/internal/telemetry"
)

// withProcs sets GOMAXPROCS, and with it the e-matching pool size, for the
// rest of the test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSelfDiffEmptyAcrossSuite is the suite-wide determinism invariant:
// every kernel of the 21-kernel suite, compiled with the journal armed,
// self-diffs empty and emits identical C and identical iteration gauges
// and rule rows (wall time aside) — against itself and across GOMAXPROCS 1 vs 8 (the inline matcher
// vs the pool). Any divergence here
// means either the determinism contract (DESIGN.md §9) broke or the diff is
// counting an informational field as semantic.
func TestSelfDiffEmptyAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run")
	}
	compileAt := func(k bench.Kernel, procs int) (diff.Input, string) {
		withProcs(t, procs)
		res, err := diospyros.Compile(k.Lift(), diospyros.Options{
			Timeout: time.Minute,
			Journal: egraph.NewJournal(),
		})
		if err != nil {
			t.Fatalf("%s (GOMAXPROCS=%d): %v", k.ID, procs, err)
		}
		in := diff.Input{
			Label:  fmt.Sprintf("GOMAXPROCS=%d", procs),
			Kernel: k.ID,
			Trace:  res.Trace,
		}
		if res.Program != nil {
			if _, sres, err := res.Run(k.Inputs(rand.New(rand.NewSource(1))), nil); err == nil {
				in.Profile = sres.Profile
				in.Cycles = sres.Cycles
			}
		}
		return in, res.C
	}
	for _, k := range bench.Suite() {
		serial, serialC := compileAt(k, 1)
		parallel, parallelC := compileAt(k, 8)
		if d := diff.Compare(serial, serial); !d.Empty() {
			t.Errorf("%s: self-diff not empty:\n%s", k.ID, d.Format())
		}
		if d := diff.Compare(serial, parallel); !d.Empty() {
			t.Errorf("%s: GOMAXPROCS=1 vs GOMAXPROCS=8 diverged:\n%s", k.ID, d.Format())
		}
		// diff.Compare does not look at the emitted C; compare it directly.
		if serialC != parallelC {
			t.Errorf("%s: C output differs between GOMAXPROCS=1 and GOMAXPROCS=8", k.ID)
		}
		// Compare runs per-iteration rows only for rules whose totals
		// diverge; pin every gauge and rule row directly.
		if a, b := telemetry.Untimed(serial.Trace.Iterations), telemetry.Untimed(parallel.Trace.Iterations); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: iteration gauges differ between GOMAXPROCS=1 and GOMAXPROCS=8", k.ID)
		}
	}
}
