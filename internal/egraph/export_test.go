package egraph

// SetMatchHook installs f as the runner's match hook: every iteration,
// after the match phase and before any apply, f receives each searched
// rule's index in the run's rule list and its merged match list, in rule
// order. It returns a function that removes the hook. Tests that set it
// must not run in parallel with other runs.
func SetMatchHook(f func(g *EGraph, i int, r Rewrite, matches []Match)) (restore func()) {
	matchHook = f
	return func() { matchHook = nil }
}
