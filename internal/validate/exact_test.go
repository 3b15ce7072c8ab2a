package validate

// The exact normalizer: the reference oracle the modular check is tested
// against. It decides equivalence over the +, −, ×, ÷ fragment by
// normalizing each output element to a multivariate rational function with
// exact big.Rat coefficients; sqrt, sgn, and user-defined functions are
// opaque atoms keyed by the canonical form of their arguments. Equality of
// rational functions is checked by cross-multiplication, which is sound and
// complete for formal rational expressions, but the polynomials can grow
// past maxTerms (QRDecomp 3x3 and 4x4 do), and then the oracle has no
// verdict (errInconclusive).
//
// Encoding. A monomial is a map-keyable string of sorted, fixed-width
// big-endian uint32 atom IDs, so multiplying two monomials is a linear
// merge and no decimal text is parsed or printed on the arithmetic path.
// Decimal text appears only in canon(), the key of an opaque atom.
// Polynomials are immutable once built, so coefficients are shared between
// a polynomial and the sums built from it.

import (
	"fmt"
	"math/big"
	"slices"
	"strconv"

	"diospyros/internal/expr"
)

// maxTerms bounds polynomial size during normalization.
const maxTerms = 200_000

// errInconclusive reports that exact normalization was abandoned because
// the polynomials grew past maxTerms.
var errInconclusive = fmt.Errorf("validate: normal form too large; exact check inconclusive")

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
		return nil, errInconclusive
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
		return nil, errInconclusive
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
		return nil, errInconclusive
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

// exactEquivalent is the oracle's verdict: nil when the first n outputs of
// the two programs normalize to equal rational functions, errInconclusive
// when a normal form outgrows maxTerms, and another error when they differ.
func exactEquivalent(spec, optimized *expr.Expr, n int) error {
	specLanes, err := flattenLanes(spec)
	if err != nil {
		return fmt.Errorf("validate: spec: %w", err)
	}
	optLanes, err := flattenLanes(optimized)
	if err != nil {
		return fmt.Errorf("validate: optimized program: %w", err)
	}
	if len(specLanes) < n || len(optLanes) < n {
		return fmt.Errorf("validate: need %d outputs; spec has %d, optimized has %d",
			n, len(specLanes), len(optLanes))
	}
	// One atom table, so equal opaque terms of the two sides share an atom.
	at := newAtoms()
	specNorm, optNorm := newNormalizer(at), newNormalizer(at)
	for i := 0; i < n; i++ {
		a, err := specNorm.norm(specLanes[i])
		if err != nil {
			return err
		}
		b, err := optNorm.norm(optLanes[i])
		if err != nil {
			return err
		}
		eq, err := rfEqual(a, b)
		if err != nil {
			return err
		}
		if !eq {
			return fmt.Errorf("validate: output %d differs:\n  spec: %s\n  opt:  %s",
				i, specLanes[i], optLanes[i])
		}
	}
	return nil
}

// flattenLanes flattens a program into one scalar expression per output element,
// expanding vector operations lane-wise. A vector subterm shared in the
// program's DAG expands once, so its lanes are shared pointers too, which
// the normalizer's memo then hits.
func flattenLanes(e *expr.Expr) ([]*expr.Expr, error) {
	return laneMemo{}.lanes(e)
}

// laneMemo maps each expanded subterm to its lanes. A memoized slice is
// shared by every use, so it is never appended to or modified.
type laneMemo map[*expr.Expr][]*expr.Expr

func (lm laneMemo) lanes(e *expr.Expr) ([]*expr.Expr, error) {
	if ls, ok := lm[e]; ok {
		return ls, nil
	}
	ls, err := lm.expand(e)
	if err != nil {
		return nil, err
	}
	lm[e] = ls
	return ls, nil
}

func (lm laneMemo) expand(e *expr.Expr) ([]*expr.Expr, error) {
	switch e.Op {
	case expr.OpList, expr.OpVec:
		var out []*expr.Expr
		for _, a := range e.Args {
			ls, err := lm.lanes(a)
			if err != nil {
				return nil, err
			}
			out = append(out, ls...)
		}
		return out, nil
	case expr.OpConcat:
		l, err := lm.lanes(e.Args[0])
		if err != nil {
			return nil, err
		}
		r, err := lm.lanes(e.Args[1])
		if err != nil {
			return nil, err
		}
		return append(append(make([]*expr.Expr, 0, len(l)+len(r)), l...), r...), nil
	case expr.OpVecAdd, expr.OpVecMinus, expr.OpVecMul, expr.OpVecDiv:
		sop, _ := e.Op.ScalarEquivalent()
		a, err := lm.lanes(e.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := lm.lanes(e.Args[1])
		if err != nil {
			return nil, err
		}
		if len(a) != len(b) {
			return nil, fmt.Errorf("lane mismatch in %s: %d vs %d", e.Op, len(a), len(b))
		}
		out := make([]*expr.Expr, len(a))
		for i := range a {
			out[i] = &expr.Expr{Op: sop, Args: []*expr.Expr{a[i], b[i]}}
		}
		return out, nil
	case expr.OpVecMAC:
		acc, err := lm.lanes(e.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := lm.lanes(e.Args[1])
		if err != nil {
			return nil, err
		}
		c, err := lm.lanes(e.Args[2])
		if err != nil {
			return nil, err
		}
		if len(acc) != len(b) || len(b) != len(c) {
			return nil, fmt.Errorf("lane mismatch in VecMAC")
		}
		out := make([]*expr.Expr, len(acc))
		for i := range acc {
			out[i] = expr.Add(acc[i], expr.Mul(b[i], c[i]))
		}
		return out, nil
	case expr.OpVecNeg, expr.OpVecSqrt, expr.OpVecSgn:
		sop, _ := e.Op.ScalarEquivalent()
		a, err := lm.lanes(e.Args[0])
		if err != nil {
			return nil, err
		}
		out := make([]*expr.Expr, len(a))
		for i := range a {
			out[i] = &expr.Expr{Op: sop, Args: []*expr.Expr{a[i]}}
		}
		return out, nil
	case expr.OpVecFunc:
		var argLanes [][]*expr.Expr
		n := -1
		for _, a := range e.Args {
			ls, err := lm.lanes(a)
			if err != nil {
				return nil, err
			}
			if n == -1 {
				n = len(ls)
			} else if len(ls) != n {
				return nil, fmt.Errorf("lane mismatch in VecFunc %s", e.Sym)
			}
			argLanes = append(argLanes, ls)
		}
		n = max(n, 1) // a nullary function is one lane
		out := make([]*expr.Expr, n)
		for i := 0; i < n; i++ {
			args := make([]*expr.Expr, len(argLanes))
			for j := range argLanes {
				args[j] = argLanes[j][i]
			}
			out[i] = expr.Func(e.Sym, args...)
		}
		return out, nil
	default:
		// A scalar expression is a single lane.
		return []*expr.Expr{e}, nil
	}
}

type normalizer struct {
	atoms *atoms
	memo  map[*expr.Expr]ratfn
}

func newNormalizer(at *atoms) *normalizer {
	return &normalizer{atoms: at, memo: map[*expr.Expr]ratfn{}}
}

func (nm *normalizer) norm(e *expr.Expr) (ratfn, error) {
	if r, ok := nm.memo[e]; ok {
		return r, nil
	}
	r, err := nm.normUncached(e)
	if err != nil {
		return ratfn{}, err
	}
	nm.memo[e] = r
	return r, nil
}

func (nm *normalizer) normUncached(e *expr.Expr) (ratfn, error) {
	switch e.Op {
	case expr.OpLit:
		r, ok := new(big.Rat).SetString(fmt.Sprintf("%g", e.Lit))
		if !ok {
			return ratfn{}, fmt.Errorf("validate: non-finite literal %g", e.Lit)
		}
		return rfConst(r), nil
	case expr.OpSym:
		return rfAtom(nm.atoms.id("sym:" + e.Sym)), nil
	case expr.OpGet:
		return rfAtom(nm.atoms.id(fmt.Sprintf("get:%s:%d", e.Sym, e.Idx))), nil
	case expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv:
		a, err := nm.norm(e.Args[0])
		if err != nil {
			return ratfn{}, err
		}
		b, err := nm.norm(e.Args[1])
		if err != nil {
			return ratfn{}, err
		}
		switch e.Op {
		case expr.OpAdd:
			return rfAdd(a, b)
		case expr.OpSub:
			return rfSub(a, b)
		case expr.OpMul:
			return rfMul(a, b)
		default:
			return rfDiv(a, b)
		}
	case expr.OpNeg:
		a, err := nm.norm(e.Args[0])
		if err != nil {
			return ratfn{}, err
		}
		return rfNeg(a), nil
	case expr.OpSqrt, expr.OpSgn:
		a, err := nm.norm(e.Args[0])
		if err != nil {
			return ratfn{}, err
		}
		return rfAtom(nm.atoms.id(e.Op.String() + "(" + a.canon() + ")")), nil
	case expr.OpFunc:
		key := "fn:" + e.Sym + "("
		for i, arg := range e.Args {
			a, err := nm.norm(arg)
			if err != nil {
				return ratfn{}, err
			}
			if i > 0 {
				key += ","
			}
			key += a.canon()
		}
		key += ")"
		return rfAtom(nm.atoms.id(key)), nil
	}
	return ratfn{}, fmt.Errorf("validate: cannot normalize %s (vector op in scalar position?)", e.Op)
}
