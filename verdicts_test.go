package diospyros_test

import (
	"errors"
	"testing"

	diospyros "diospyros"
	"diospyros/internal/bench"
	"diospyros/internal/validate"
)

// inconclusiveVerdicts lists the (kernel, target) pairs whose exact
// translation validation gives up with ErrInconclusive and falls back to
// randomized testing. Every other pair of the suite is proven exactly.
// Encoding changes inside the validator must leave this table unchanged.
var inconclusiveVerdicts = map[string]map[string]bool{
	"QRDecomp 3x3": {"fg3lite-4": true, "fg3lite-8": true, "scalar": true},
	"QRDecomp 4x4": {"fg3lite-4": true, "fg3lite-8": true, "scalar": true},
}

// TestValidationVerdictsAcrossSuite pins, for every Table 1 kernel and
// three targets, whether exact validation of the extracted program proves
// equivalence or is inconclusive. Any other error is a failure.
func TestValidationVerdictsAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and validates the whole suite at three targets")
	}
	targets := []string{"fg3lite-4", "fg3lite-8", "scalar"}
	for _, k := range bench.Suite() {
		l := k.Lift()
		res, err := diospyros.Compile(l, diospyros.Options{Targets: targets})
		if err != nil {
			t.Fatalf("%s: %v", k.ID, err)
		}
		for _, tr := range res.Targets {
			err := validate.Equivalent(l.Spec, tr.Optimized, l.OutputLen())
			got := errors.Is(err, validate.ErrInconclusive)
			if err != nil && !got {
				t.Errorf("%s @ %s: %v", k.ID, tr.Target, err)
				continue
			}
			if want := inconclusiveVerdicts[k.ID][tr.Target]; got != want {
				t.Errorf("%s @ %s: inconclusive = %v, want %v", k.ID, tr.Target, got, want)
			}
		}
	}
}
