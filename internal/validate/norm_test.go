package validate

import (
	"encoding/binary"
	"errors"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"diospyros/internal/expr"
	"diospyros/internal/kernel"
	"diospyros/internal/kernels"
)

// atomIDs decodes fuzz bytes into atom IDs, four bytes per ID; a short
// tail becomes one more small ID.
func atomIDs(b []byte) []uint32 {
	var ids []uint32
	for ; len(b) >= atomWidth; b = b[atomWidth:] {
		ids = append(ids, binary.BigEndian.Uint32(b))
	}
	if len(b) > 0 {
		ids = append(ids, uint32(b[0]))
	}
	return ids
}

// packSorted is the oracle encoding: sort the IDs, then pack them.
func packSorted(ids []uint32) monomial {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	var m monomial
	for _, id := range ids {
		m += atomMonomial(id)
	}
	return m
}

// FuzzMonomialProduct checks the packed merge against sorting the
// concatenated factor lists.
func FuzzMonomialProduct(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0, 3}, []byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2}, []byte{0, 0, 0, 2, 0, 0, 0, 1})
	f.Add([]byte{1, 0, 0, 0}, []byte{0, 0, 0, 255, 0, 0, 1, 0})
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 9, 0, 0, 0, 9}, []byte{0, 0, 0, 9, 7})
	f.Fuzz(func(t *testing.T, x, y []byte) {
		a, b := atomIDs(x), atomIDs(y)
		ma, mb := packSorted(a), packSorted(b)
		want := packSorted(append(slices.Clone(a), b...))
		if got := monomial(appendProduct(nil, ma, mb)); got != want {
			t.Fatalf("%v · %v = %x, want %x", a, b, got, want)
		}
		if got := monomial(appendProduct(nil, mb, ma)); got != want {
			t.Fatalf("%v · %v = %x, want %x (commuted)", b, a, got, want)
		}
		// Rendering is the decimal IDs in sorted order.
		var dec []string
		for i := 0; i < len(want); i += atomWidth {
			dec = append(dec, strconv.FormatUint(uint64(binary.BigEndian.Uint32([]byte(want[i:]))), 10))
		}
		if got := string(want.appendDecimal(nil)); got != strings.Join(dec, ".") {
			t.Fatalf("decimal %q, want %q", got, strings.Join(dec, "."))
		}
	})
}

// randPoly is a random polynomial over atoms 0..5 with small rational
// coefficients.
func randPoly(r *rand.Rand) poly {
	p := poly{}
	for n := 1 + r.Intn(4); n > 0; n-- {
		var ids []uint32
		for d := r.Intn(3); d > 0; d-- {
			ids = append(ids, uint32(r.Intn(6)))
		}
		p[packSorted(ids)] = big.NewRat(int64(r.Intn(19)-9)|1, int64(1+r.Intn(5)))
	}
	return p
}

func scaled(p poly, c *big.Rat) poly {
	out := poly{}
	for m, v := range p {
		out[m] = new(big.Rat).Mul(v, c)
	}
	return out
}

// TestCanonScalingInvariant checks that P/Q and cP/cQ share an atom key
// and that a form differing by more than a scalar does not.
func TestCanonScalingInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		num, den := randPoly(r), randPoly(r)
		c := big.NewRat(int64(r.Intn(41)-20)|1, int64(1+r.Intn(7)))
		a := ratfn{num: num, den: den}
		b := ratfn{num: scaled(num, c), den: scaled(den, c)}
		if a.canon() != b.canon() {
			t.Fatalf("trial %d: scaling by %s changed the key:\n  %s\n  %s",
				trial, c.RatString(), a.canon(), b.canon())
		}
		other, err := polyAdd(den, polyAtom(7))
		if err != nil {
			t.Fatal(err)
		}
		if d := (ratfn{num: num, den: other}); d.canon() == a.canon() {
			t.Fatalf("trial %d: distinct denominators share key %s", trial, a.canon())
		}
	}
	// The same holds end to end: sqrt keys its argument by canon.
	mustEquivalent(t,
		"(List (sqrt (/ (* 2 (Get a 0)) (* 2 (Get a 1)))))",
		"(List (sqrt (/ (Get a 0) (Get a 1))))", 1)
	mustEquivalent(t,
		"(List (sgn (/ (neg (Get a 0)) (* -3 (Get a 1)))))",
		"(List (sgn (/ (* 3 (Get a 0)) (* 9 (Get a 1)))))", 1)
}

// TestCheckerReuseRejectsWrongProgram checks that a Checker which has
// accepted one target's program still rejects a wrong program for the
// next target, and that an earlier rejection does not stick.
func TestCheckerReuseRejectsWrongProgram(t *testing.T) {
	l := kernels.MatMul(2, 2, 2)
	right := expr.MustParse(`(VecMAC
		(VecMul (Vec (Get a 0) (Get a 0) (Get a 2) (Get a 2)) (Vec (Get b 0) (Get b 1) (Get b 0) (Get b 1)))
		(Vec (Get a 1) (Get a 1) (Get a 3) (Get a 3))
		(Vec (Get b 2) (Get b 3) (Get b 2) (Get b 3)))`)
	// Lanes 1 and 2 swap their b columns.
	wrong := expr.MustParse(`(VecMAC
		(VecMul (Vec (Get a 0) (Get a 0) (Get a 2) (Get a 2)) (Vec (Get b 0) (Get b 0) (Get b 1) (Get b 1)))
		(Vec (Get a 1) (Get a 1) (Get a 3) (Get a 3))
		(Vec (Get b 2) (Get b 3) (Get b 2) (Get b 3)))`)
	c := NewChecker(l)
	if err := c.Check(right); err != nil {
		t.Fatalf("target 1: %v", err)
	}
	err := c.Check(wrong)
	if err == nil || errors.Is(err, ErrInconclusive) {
		t.Fatalf("target 2: wrong program got %v, want a definite rejection", err)
	}
	if err := c.Check(right); err != nil {
		t.Fatalf("target 3: a correct program after a rejection: %v", err)
	}
}

// TestCheckerAgreesWithFreshChecks compares one shared Checker against a
// fresh Equivalent call on a stream of random right and wrong programs:
// shared state must never change a verdict.
func TestCheckerAgreesWithFreshChecks(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	term := func() *expr.Expr {
		e := expr.Mul(expr.Get("a", r.Intn(4)), expr.Get("b", r.Intn(4)))
		switch r.Intn(3) {
		case 0:
			e = expr.Div(e, expr.Add(expr.Get("b", r.Intn(4)), expr.Lit(2)))
		case 1:
			e = expr.Sqrt(e)
		}
		return e
	}
	var lanes []*expr.Expr
	for i := 0; i < 4; i++ {
		lanes = append(lanes, expr.Add(term(), term()))
	}
	spec := expr.List(lanes...)
	c := newChecker(spec, len(lanes))
	for trial := 0; trial < 40; trial++ {
		prog := spec.Clone()
		if r.Intn(2) == 0 {
			prog.Args[r.Intn(len(lanes))] = term()
		}
		want := Equivalent(spec, prog, len(lanes))
		got := c.Equivalent(prog)
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d: shared checker says %v, fresh says %v", trial, got, want)
		}
	}
}

// TestCheckerInconclusiveStillRejects checks that a cached inconclusive
// spec lane sends every later program to the randomized fallback, which
// still rejects a wrong one.
func TestCheckerInconclusiveStillRejects(t *testing.T) {
	if testing.Short() {
		t.Skip("expands a 2^18-monomial polynomial")
	}
	prod := func() *expr.Expr {
		e := expr.Add(expr.Get("a", 0), expr.Get("b", 0))
		for i := 1; i < 18; i++ {
			e = expr.Mul(e, expr.Add(expr.Get("a", i), expr.Get("b", i)))
		}
		return e
	}
	l := &kernel.Lifted{Name: "big", Spec: expr.List(prod())}
	l.Inputs = []kernel.ArrayDecl{{Name: "a", Rows: 18, Cols: 1}, {Name: "b", Rows: 18, Cols: 1}}
	l.Outputs = []kernel.ArrayDecl{{Name: "o", Rows: 1, Cols: 1}}
	c := NewChecker(l)
	if err := c.Check(expr.List(prod())); err != nil {
		t.Fatalf("target 1: %v", err)
	}
	if err := c.Equivalent(expr.List(prod())); !errors.Is(err, ErrInconclusive) {
		t.Fatalf("cached lane: got %v, want inconclusive", err)
	}
	if err := c.Check(expr.List(expr.Add(prod(), expr.Lit(1)))); err == nil {
		t.Fatal("target 2: fallback accepted a wrong program")
	}
}
