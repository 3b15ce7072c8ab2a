package bench

import (
	"strings"
	"testing"
	"time"

	diospyros "diospyros"
)

func targetOpts(targets ...string) diospyros.Options {
	// Multi-width saturation carries every width's decompositions in one
	// e-graph; modest budgets keep the full-suite runs fast.
	return diospyros.Options{Timeout: 20 * time.Second, NodeLimit: 200_000, Targets: targets}
}

// TestCrossWidthParityFullSuite is the cross-width semantic validator: every
// suite kernel is compiled once with widths 2, 4, and 8 coexisting in one
// e-graph, each width's extracted program is simulated, and TargetTable
// checks every output element against the lifted specification — including
// the tail-padding partial stores (VStoreN) that widths 2 and 8 exercise on
// kernels whose output counts are not multiples of the width.
func TestCrossWidthParityFullSuite(t *testing.T) {
	rows, err := TargetTable(Options{Opts: targetOpts("fg3lite-2", "fg3lite-4", "fg3lite-8")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Fatalf("parity run covered %d kernels, want 21", len(rows))
	}
	for _, r := range rows {
		for i, c := range r.Cycles {
			if c <= 0 {
				t.Errorf("%s: %s did not simulate", r.Kernel.ID, r.Targets[i])
			}
		}
	}
}

// TestEightWideWinsSomewhere is the headline multi-target claim: with one
// saturation search serving fg3lite-4, fg3lite-8, and scalar, the 8-wide
// machine wins at least one suite kernel outright (the large MatMuls, where
// twice the lanes halve the MAC chain).
func TestEightWideWinsSomewhere(t *testing.T) {
	rows, err := TargetTable(Options{Opts: targetOpts("fg3lite-4", "fg3lite-8", "scalar"), Only: "MatMul"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d MatMul rows, want 7", len(rows))
	}
	eightWins := 0
	for _, r := range rows {
		four, eight, scalar := r.Cycles[0], r.Cycles[1], r.Cycles[2]
		if eight > 0 && eight < four {
			eightWins++
		}
		// The scalar fallback must never beat a vector target here.
		if scalar < four || scalar < eight {
			t.Errorf("%s: scalar (%d) beat a vector target (%d/%d)", r.Kernel.ID, scalar, four, eight)
		}
	}
	if eightWins == 0 {
		t.Error("fg3lite-8 never beat fg3lite-4 on any MatMul kernel")
	}
	table := FormatTargetTable(rows)
	for _, want := range []string{"fg3lite-4", "fg3lite-8", "scalar", "best", "wins:"} {
		if !strings.Contains(table, want) {
			t.Errorf("formatted table missing %q:\n%s", want, table)
		}
	}
}
