package validate

// Test-only exports for the external suite tests (package validate_test),
// which compile the suite through the diospyros package.
var (
	ExactEquivalent   = exactEquivalent
	FlattenLanes      = flattenLanes
	IdentityCases     = identityCases
	InequivalentCases = inequivalentCases
	RandomRewrites    = randomRewrites
)

// ErrInconclusive is the oracle's "no verdict" error.
var ErrInconclusive = errInconclusive

// TwoTrialBound is the bound of the whole check for a per-trial bound.
func TwoTrialBound(perTrial float64) float64 {
	b := 1.0
	for range trials {
		b *= perTrial
	}
	return b
}
