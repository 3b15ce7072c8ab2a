package validate

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"diospyros/internal/expr"
)

var bigP = new(big.Int).SetUint64(p)

// TestFieldArithmetic checks the Mersenne reduction and Fermat inverse
// against big.Int, including the residues next to 0 and p.
func TestFieldArithmetic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	edge := []uint64{0, 1, 2, p - 2, p - 1, 1 << 60, 1<<61 - 2}
	for trial := 0; trial < 2000; trial++ {
		a, b := r.Uint64()%p, r.Uint64()%p
		if trial < len(edge)*len(edge) {
			a, b = edge[trial%len(edge)], edge[trial/len(edge)]
		}
		ba, bb := new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)
		want := func(z *big.Int) uint64 { return z.Mod(z, bigP).Uint64() }
		if got, w := mul(a, b), want(new(big.Int).Mul(ba, bb)); got != w {
			t.Fatalf("mul(%d, %d) = %d, want %d", a, b, got, w)
		}
		if got, w := add(a, b), want(new(big.Int).Add(ba, bb)); got != w {
			t.Fatalf("add(%d, %d) = %d, want %d", a, b, got, w)
		}
		if got, w := sub(a, b), want(new(big.Int).Sub(ba, bb)); got != w {
			t.Fatalf("sub(%d, %d) = %d, want %d", a, b, got, w)
		}
		if a != 0 && mul(a, inv(a)) != 1 {
			t.Fatalf("inv(%d) = %d is not an inverse", a, inv(a))
		}
	}
}

// ratResidue is the oracle's literal (the %g decimal as a big.Rat) mod p.
func ratResidue(t *testing.T, x float64) uint64 {
	r, ok := new(big.Rat).SetString(fmt.Sprintf("%g", x))
	if !ok {
		t.Fatalf("%g: not a decimal", x)
	}
	den := new(big.Int).ModInverse(r.Denom(), bigP)
	num := new(big.Int).Mod(r.Num(), bigP)
	return num.Mul(num, den).Mod(num, bigP).Uint64()
}

// TestLitResidueIsTheDecimal checks that a literal maps to the residue of
// the rational its shortest decimal denotes, as the oracle reads it.
func TestLitResidueIsTheDecimal(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	xs := []float64{0, math.Copysign(0, -1), 0.1, 0.2, 0.3, -2.5e-7, 1e300, 5e-324,
		math.MaxFloat64, 123456789.123, 1.0000001, -3}
	for i := 0; i < 500; i++ {
		xs = append(xs, math.Float64frombits(r.Uint64()))
	}
	for _, x := range xs {
		if math.IsInf(x, 0) || math.IsNaN(x) {
			if _, err := litResidue(x); err == nil {
				t.Errorf("%g: non-finite literal accepted", x)
			}
			continue
		}
		got, err := litResidue(x)
		if err != nil {
			t.Fatalf("%g: %v", x, err)
		}
		if want := ratResidue(t, x); got != want {
			t.Fatalf("litResidue(%g) = %d, want %d", x, got, want)
		}
	}
	a, _ := litResidue(0.1)
	b, _ := litResidue(0.2)
	if c, _ := litResidue(0.3); add(a, b) != c {
		t.Error("0.1 + 0.2 != 0.3 in the field")
	}
}

// agreement compares the modular verdict with the oracle's where the
// oracle concludes (accepts, or names a differing output). The oracle's
// canon keeps opaque terms whose arguments differ by a polynomial factor
// apart, so where the programs hold an opaque term the modular path may
// accept what the oracle rejects (the pinned case in
// TestModularAgreesWithExact); it must never reject what the oracle
// accepts.
func agreement(t *testing.T, spec, opt *expr.Expr, n int) {
	t.Helper()
	want := exactEquivalent(spec, opt, n)
	if want != nil && !strings.Contains(want.Error(), "differs") {
		return // no verdict: inconclusive, or not a program the oracle reads
	}
	got := Equivalent(spec, opt, n)
	switch {
	case want == nil && got != nil:
		t.Fatalf("oracle accepts, modular rejects: %v\n  spec: %s\n  opt:  %s", got, spec, opt)
	case want != nil && got == nil && !hasOpaque(spec) && !hasOpaque(opt):
		t.Fatalf("oracle rejects, modular accepts: %v\n  spec: %s\n  opt:  %s", want, spec, opt)
	}
}

func hasOpaque(e *expr.Expr) bool {
	switch e.Op {
	case expr.OpSqrt, expr.OpSgn, expr.OpFunc, expr.OpVecSqrt, expr.OpVecSgn, expr.OpVecFunc:
		return true
	}
	for _, a := range e.Args {
		if hasOpaque(a) {
			return true
		}
	}
	return false
}

// FuzzModularAgreesWithExact holds the modular path to the oracle on
// arbitrary program pairs. Its seeds are the identity and inequivalence
// tables and the random rewrites.
func FuzzModularAgreesWithExact(f *testing.F) {
	for _, c := range identityCases {
		f.Add(c[0], c[1])
	}
	for _, c := range inequivalentCases {
		f.Add(c[0], c[1])
	}
	for _, rw := range randomRewrites() {
		f.Add(rw[0].String(), rw[1].String())
	}
	f.Add("(List (+ 0.1 0.2))", "(List 0.3)")
	f.Add("(List (/ (Get a 0) (- (Get a 1) (Get a 1))))", "(List 0)")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 400 || len(b) > 400 {
			t.Skip("the oracle's normal forms grow exponentially")
		}
		spec, err := expr.Parse(a)
		if err != nil {
			return
		}
		opt, err := expr.Parse(b)
		if err != nil {
			return
		}
		agreement(t, spec, opt, 1)
	})
}
