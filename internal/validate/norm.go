// Package validate implements translation validation (paper §3.4): it
// decides whether the extracted vector program is equivalent to the scalar
// specification, modelling values in the theory of real arithmetic exactly
// as the paper's Rosette/SMT validator does.
//
// Instead of an SMT solver, equivalence over the +, −, ×, ÷ fragment is
// decided by normalizing each output element to a multivariate rational
// function with exact big.Rat coefficients; sqrt, sgn, and user-defined
// functions are treated as opaque atoms keyed by the canonical form of
// their arguments (matching the paper's uninterpreted-function treatment).
// Equality of rational functions is checked by cross-multiplication, which
// is sound and complete for formal rational expressions.
//
// Encoding. A monomial is a map-keyable string of sorted, fixed-width
// big-endian uint32 atom IDs, so multiplying two monomials is a linear
// merge and no decimal text is parsed or printed on the arithmetic path.
// Decimal text appears only in canon(), the key of an opaque atom.
// Polynomials are immutable once built, so coefficients are shared between
// a polynomial and the sums built from it.
//
// A Checker normalizes the specification once per compile: it keeps one
// atom table and caches each spec lane's normal form the first time a
// target's program reaches it, so every further target only normalizes
// its own program.
package validate

import (
	"fmt"
	"math/big"
	"slices"
	"strconv"
)

// maxTerms bounds polynomial size during normalization. Kernels whose
// normal forms explode (deep division/sqrt towers such as 4×4 QR) yield
// ErrInconclusive, and callers fall back to randomized differential
// testing.
const maxTerms = 200_000

// ErrInconclusive reports that exact normalization was abandoned because
// the polynomials grew past the safety bound.
var ErrInconclusive = fmt.Errorf("validate: normal form too large; exact check inconclusive")

// atoms interns the indeterminates of the polynomial ring: input elements,
// free symbols, and opaque (uninterpreted/irrational) subterms.
type atoms struct {
	byKey map[string]uint32
	n     uint32
}

func newAtoms() *atoms { return &atoms{byKey: map[string]uint32{}} }

func (a *atoms) id(key string) uint32 {
	if id, ok := a.byKey[key]; ok {
		return id
	}
	id := a.n
	a.byKey[key] = id
	a.n++
	return id
}

// atomWidth is the byte width of one packed atom ID in a monomial.
const atomWidth = 4

// monomial is a sorted multiset of atom IDs, each packed as atomWidth
// big-endian bytes. Byte order equals numeric order, so sortedness is
// string order of the fixed-width chunks. The empty monomial is 1.
type monomial string

func atomMonomial(id uint32) monomial {
	return monomial([]byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)})
}

// appendProduct appends the packed product a·b to dst: the merge of the
// two sorted atom sequences.
func appendProduct(dst []byte, a, b monomial) []byte {
	for len(a) > 0 && len(b) > 0 {
		if a[:atomWidth] <= b[:atomWidth] {
			dst, a = append(dst, a[:atomWidth]...), a[atomWidth:]
		} else {
			dst, b = append(dst, b[:atomWidth]...), b[atomWidth:]
		}
	}
	return append(append(dst, a...), b...)
}

// appendDecimal renders m as dot-separated decimal atom IDs.
func (m monomial) appendDecimal(dst []byte) []byte {
	for i := 0; i < len(m); i += atomWidth {
		if i > 0 {
			dst = append(dst, '.')
		}
		id := uint32(m[i])<<24 | uint32(m[i+1])<<16 | uint32(m[i+2])<<8 | uint32(m[i+3])
		dst = strconv.AppendUint(dst, uint64(id), 10)
	}
	return dst
}

// poly is a multivariate polynomial: monomial → coefficient. A poly and
// its coefficients are never mutated once built, so they may be shared.
type poly map[monomial]*big.Rat

func polyConst(v *big.Rat) poly {
	p := poly{}
	if v.Sign() != 0 {
		p[""] = new(big.Rat).Set(v)
	}
	return p
}

func polyAtom(id uint32) poly {
	return poly{atomMonomial(id): big.NewRat(1, 1)}
}

func (p poly) isZero() bool { return len(p) == 0 }

var (
	ratOne  = big.NewRat(1, 1)
	polyOne = poly{"": ratOne}
)

// isOne reports whether p is the constant 1.
func (p poly) isOne() bool {
	c, ok := p[""]
	return len(p) == 1 && ok && c.Cmp(ratOne) == 0
}

func polyAdd(a, b poly) (poly, error) {
	out := make(poly, len(a)+len(b))
	for m, c := range a {
		out[m] = c
	}
	for m, c := range b {
		cur, ok := out[m]
		if !ok {
			out[m] = c
			continue
		}
		if s := new(big.Rat).Add(cur, c); s.Sign() == 0 {
			delete(out, m)
		} else {
			out[m] = s
		}
	}
	if len(out) > maxTerms {
		return nil, ErrInconclusive
	}
	return out, nil
}

func polyNeg(a poly) poly {
	out := make(poly, len(a))
	for m, c := range a {
		out[m] = new(big.Rat).Neg(c)
	}
	return out
}

func polyMul(a, b poly) (poly, error) {
	if len(a)*len(b) > 4*maxTerms {
		return nil, ErrInconclusive
	}
	switch {
	case b.isOne():
		return a, nil
	case a.isOne():
		return b, nil
	}
	out := make(poly, max(len(a), len(b)))
	var (
		key []byte
		c   big.Rat
	)
	for ma, ca := range a {
		for mb, cb := range b {
			key = appendProduct(key[:0], ma, mb)
			c.Mul(ca, cb)
			// The coefficients in out are fresh, so they update in place.
			if cur, ok := out[monomial(key)]; ok {
				if cur.Add(cur, &c); cur.Sign() == 0 {
					delete(out, monomial(key))
				}
			} else if c.Sign() != 0 {
				out[monomial(key)] = new(big.Rat).Set(&c)
			}
		}
	}
	if len(out) > maxTerms {
		return nil, ErrInconclusive
	}
	return out, nil
}

func polyEqual(a, b poly) bool {
	if len(a) != len(b) {
		return false
	}
	for m, c := range a {
		d, ok := b[m]
		if !ok || c.Cmp(d) != 0 {
			return false
		}
	}
	return true
}

// appendCanonScaled renders the polynomial with every coefficient
// multiplied by scale, in ascending packed monomial order.
func (p poly) appendCanonScaled(dst []byte, scale *big.Rat) []byte {
	if len(p) == 0 {
		return append(dst, '0')
	}
	ms := make([]monomial, 0, len(p))
	for m := range p {
		ms = append(ms, m)
	}
	slices.Sort(ms)
	var c big.Rat
	for i, m := range ms {
		if i > 0 {
			dst = append(dst, '+')
		}
		dst = append(dst, c.Mul(p[m], scale).RatString()...)
		dst = append(dst, "*["...)
		dst = append(m.appendDecimal(dst), ']')
	}
	return dst
}

// ratfn is a formal rational function num/den.
type ratfn struct {
	num, den poly
}

func rfConst(v *big.Rat) ratfn {
	return ratfn{num: polyConst(v), den: polyOne}
}

func rfAtom(id uint32) ratfn {
	return ratfn{num: polyAtom(id), den: polyOne}
}

func rfAdd(a, b ratfn) (ratfn, error) {
	// a/b + c/d = (ad + cb) / bd. Share the denominator when equal.
	if polyEqual(a.den, b.den) {
		n, err := polyAdd(a.num, b.num)
		if err != nil {
			return ratfn{}, err
		}
		return ratfn{num: n, den: a.den}, nil
	}
	ad, err := polyMul(a.num, b.den)
	if err != nil {
		return ratfn{}, err
	}
	cb, err := polyMul(b.num, a.den)
	if err != nil {
		return ratfn{}, err
	}
	n, err := polyAdd(ad, cb)
	if err != nil {
		return ratfn{}, err
	}
	d, err := polyMul(a.den, b.den)
	if err != nil {
		return ratfn{}, err
	}
	return ratfn{num: n, den: d}, nil
}

func rfNeg(a ratfn) ratfn { return ratfn{num: polyNeg(a.num), den: a.den} }

func rfSub(a, b ratfn) (ratfn, error) { return rfAdd(a, rfNeg(b)) }

func rfMul(a, b ratfn) (ratfn, error) {
	n, err := polyMul(a.num, b.num)
	if err != nil {
		return ratfn{}, err
	}
	d, err := polyMul(a.den, b.den)
	if err != nil {
		return ratfn{}, err
	}
	return ratfn{num: n, den: d}, nil
}

func rfDiv(a, b ratfn) (ratfn, error) {
	if b.num.isZero() {
		return ratfn{}, fmt.Errorf("validate: division by syntactic zero")
	}
	n, err := polyMul(a.num, b.den)
	if err != nil {
		return ratfn{}, err
	}
	d, err := polyMul(a.den, b.num)
	if err != nil {
		return ratfn{}, err
	}
	return ratfn{num: n, den: d}, nil
}

// rfEqual decides equality by cross-multiplication.
func rfEqual(a, b ratfn) (bool, error) {
	l, err := polyMul(a.num, b.den)
	if err != nil {
		return false, err
	}
	r, err := polyMul(b.num, a.den)
	if err != nil {
		return false, err
	}
	return polyEqual(l, r), nil
}

// canon renders a canonical atom key for a rational function: both
// numerator and denominator are scaled by the same factor — the inverse of
// the coefficient of the denominator's least monomial in packed order — so
// that P/Q and (cP)/(cQ) share a key. Any fixed monomial order works here,
// because scale-equivalent forms have the same monomial set. (Forms
// differing by a polynomial factor remain distinct; that only costs
// completeness for nested opaque terms, never soundness.)
func (r ratfn) canon() string {
	if r.num.isZero() {
		return "0"
	}
	least, first := monomial(""), true
	for m := range r.den {
		if first || m < least {
			least, first = m, false
		}
	}
	scale := new(big.Rat).Inv(r.den[least])
	b := r.num.appendCanonScaled(nil, scale)
	b = append(b, '/')
	return string(r.den.appendCanonScaled(b, scale))
}
