package egraph

// SetMatchHook installs f as the runner's match hook: every iteration,
// after the match phase and before any apply, f receives each searched
// rule's index in the run's rule list, its merged match list and how many
// of those matches its cache carried, in rule order. It returns a
// function that removes the hook. Tests that set it must not run in
// parallel with other runs.
func SetMatchHook(f func(g *EGraph, i int, r Rewrite, matches []Match, carried int)) (restore func()) {
	matchHook = f
	return func() { matchHook = nil }
}

// SetApplyCarried installs f as the runner's carried-match applier: the
// apply phase stops skipping the matches a rule's cache carried over and
// hands each one to f, counting its result like a fresh match's. It
// returns a function that restores the skip. Tests that set it must not
// run in parallel with other runs.
func SetApplyCarried(f func(r Rewrite, g *EGraph, mt Match) bool) (restore func()) {
	applyCarried = f
	return func() { applyCarried = nil }
}
