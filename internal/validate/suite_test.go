package validate_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	diospyros "diospyros"
	"diospyros/internal/bench"
	"diospyros/internal/expr"
	"diospyros/internal/kernel"
	"diospyros/internal/validate"
)

// suiteTargets are the targets every suite kernel is extracted for.
var suiteTargets = []string{"fg3lite-4", "fg3lite-8", "scalar"}

// suiteKernel is one suite kernel and its extracted program per target.
type suiteKernel struct {
	id   string
	l    *kernel.Lifted
	opts []diospyros.TargetResult
}

var (
	suiteOnce sync.Once
	suite     []suiteKernel
	suiteErr  error
)

// suitePrograms compiles the 21 suite kernels once, without validation,
// for every suite target.
func suitePrograms(t *testing.T) []suiteKernel {
	t.Helper()
	suiteOnce.Do(func() {
		for _, k := range bench.Suite() {
			l := k.Lift()
			res, err := diospyros.Compile(l, diospyros.Options{Targets: suiteTargets})
			if err != nil {
				suiteErr = err
				return
			}
			suite = append(suite, suiteKernel{k.ID, l, res.Targets})
		}
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

// TestModularAgreesWithExact holds the modular verdict to the exact
// oracle's wherever the oracle concludes: on every suite kernel's program
// at every suite target, the re-associated rewrites, and the identity and
// inequivalence tables. The one known difference is pinned.
func TestModularAgreesWithExact(t *testing.T) {
	t.Run("suite", func(t *testing.T) {
		for _, k := range suitePrograms(t) {
			c := validate.NewChecker(k.l)
			for _, tr := range k.opts {
				if err := c.Check(tr.Optimized); err != nil {
					t.Errorf("%s %s: modular path rejects: %v", k.id, tr.Target, err)
				}
				switch err := validate.ExactEquivalent(k.l.Spec, tr.Optimized, k.l.OutputLen()); {
				case errors.Is(err, validate.ErrInconclusive):
					t.Logf("%s %s: oracle inconclusive", k.id, tr.Target)
				case err != nil:
					t.Errorf("%s %s: oracle rejects: %v", k.id, tr.Target, err)
				}
			}
		}
	})
	t.Run("rewrites", func(t *testing.T) {
		for i, rw := range validate.RandomRewrites() {
			if err := validate.ExactEquivalent(rw[0], rw[1], 1); err != nil {
				t.Fatalf("rewrite %d: oracle: %v", i, err)
			}
			if err := validate.Equivalent(rw[0], rw[1], 1); err != nil {
				t.Fatalf("rewrite %d: modular: %v", i, err)
			}
		}
	})
	t.Run("tables", func(t *testing.T) {
		for _, c := range validate.IdentityCases {
			a, b := expr.MustParse(c[0]), expr.MustParse(c[1])
			if err := validate.ExactEquivalent(a, b, 1); err != nil {
				t.Errorf("oracle: %s vs %s: %v", c[0], c[1], err)
			}
			if err := validate.Equivalent(a, b, 1); err != nil {
				t.Errorf("modular: %s vs %s: %v", c[0], c[1], err)
			}
		}
		for _, c := range validate.InequivalentCases {
			a, b := expr.MustParse(c[0]), expr.MustParse(c[1])
			if validate.ExactEquivalent(a, b, 1) == nil {
				t.Errorf("oracle accepts %s vs %s", c[0], c[1])
			}
			if validate.Equivalent(a, b, 1) == nil {
				t.Errorf("modular accepts %s vs %s", c[0], c[1])
			}
		}
	})
	t.Run("canon", func(t *testing.T) {
		// sqrt(ab/b) is sqrt(a) over the reals with sqrt uninterpreted.
		// The oracle's canon keys an opaque argument by its scaled
		// numerator and denominator, so ab/b and a/1 are different atoms
		// to it; the modular path evaluates the argument and accepts.
		a := expr.MustParse("(List (sqrt (/ (* (Get a 0) (Get a 1)) (Get a 1))))")
		b := expr.MustParse("(List (sqrt (Get a 0)))")
		if err := validate.ExactEquivalent(a, b, 1); err == nil {
			t.Error("oracle now accepts; drop this pinned difference")
		}
		if err := validate.Equivalent(a, b, 1); err != nil {
			t.Errorf("modular rejects: %v", err)
		}
	})
}

// TestSuiteBounds checks the per-trial bound every suite verdict reports:
// below 2^-40 per trial, and below 2^-64 over both trials.
func TestSuiteBounds(t *testing.T) {
	for _, k := range suitePrograms(t) {
		c := validate.NewChecker(k.l)
		for _, tr := range k.opts {
			b, err := c.CheckBound(tr.Optimized)
			if err != nil {
				t.Fatalf("%s %s: %v", k.id, tr.Target, err)
			}
			t.Logf("%-18s %-9s per-trial bound 2^%.1f", k.id, tr.Target, math.Log2(b))
			if b <= 0 || b >= 0x1p-40 || validate.TwoTrialBound(b) >= 0x1p-64 {
				t.Errorf("%s %s: per-trial bound %g (2^%.1f), want in (0, 2^-40)",
					k.id, tr.Target, b, math.Log2(b))
			}
		}
	}
}

// TestModularRejectsMutants checks that every suite kernel's program at
// every suite target is rejected after two small mutations of its output
// lanes: swapping outputs 0 and 1, and changing one literal.
func TestModularRejectsMutants(t *testing.T) {
	for _, k := range suitePrograms(t) {
		c := validate.NewChecker(k.l)
		n := k.l.OutputLen()
		for _, tr := range k.opts {
			lanes, err := validate.FlattenLanes(tr.Optimized)
			if err != nil {
				t.Fatal(err)
			}
			lanes = lanes[:n]
			swapped := append([]*expr.Expr(nil), lanes...)
			swapped[0], swapped[1] = swapped[1], swapped[0]
			if err := c.Check(expr.List(swapped...)); err == nil {
				t.Errorf("%s %s: outputs 0 and 1 swapped, still valid", k.id, tr.Target)
			}
			if err := c.Check(literalMutant(t, c, lanes)); err == nil {
				t.Errorf("%s %s: a literal changed, still valid", k.id, tr.Target)
			}
		}
	}
}

// literalMutant changes the first literal the output lanes reach by +1.
// When they reach none, it scales output 0 by the literal 1.0000001,
// after checking that the factor 1 leaves the program valid.
func literalMutant(t *testing.T, c *validate.Checker, lanes []*expr.Expr) *expr.Expr {
	t.Helper()
	var lit *expr.Expr
	seen := map[*expr.Expr]bool{}
	var find func(e *expr.Expr)
	find = func(e *expr.Expr) {
		if lit != nil || seen[e] {
			return
		}
		seen[e] = true
		if e.Op == expr.OpLit {
			lit = e
		}
		for _, a := range e.Args {
			find(a)
		}
	}
	for _, l := range lanes {
		find(l)
	}
	out := append([]*expr.Expr(nil), lanes...)
	if lit == nil {
		out[0] = expr.Mul(lanes[0], expr.Lit(1))
		if err := c.Check(expr.List(out...)); err != nil {
			t.Fatalf("output 0 times 1: %v", err)
		}
		out[0] = expr.Mul(lanes[0], expr.Lit(1.0000001))
		return expr.List(out...)
	}
	changed := expr.Lit(lit.Lit + 1)
	memo := map[*expr.Expr]*expr.Expr{}
	var subst func(e *expr.Expr) *expr.Expr
	subst = func(e *expr.Expr) *expr.Expr {
		if e == lit {
			return changed
		}
		if r, ok := memo[e]; ok {
			return r
		}
		r := e
		for i, a := range e.Args {
			if s := subst(a); s != a {
				if r == e {
					cp := *e
					cp.Args = append([]*expr.Expr(nil), e.Args...)
					r = &cp
				}
				r.Args[i] = s
			}
		}
		memo[e] = r
		return r
	}
	for i, l := range out {
		out[i] = subst(l)
	}
	return expr.List(out...)
}
