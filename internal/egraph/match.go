package egraph

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"diospyros/internal/expr"
)

// Pattern is a term pattern for e-matching. A pattern is either a variable
// (Var non-empty), which matches any e-class and binds it, or an operator
// applied to sub-patterns. Terminal patterns can match exact payloads.
type Pattern struct {
	Var string // pattern variable, e.g. "?a"; exclusive with Op use
	// slot is a variable's index in its rule's Subst, set on the copies
	// NewRewrite makes (withSlots).
	slot int

	Op     expr.Op
	Lit    float64 // for expr.OpLit
	Sym    string  // for OpSym/OpGet/OpFunc payloads; "" matches any for Get/Func
	Idx    int     // for OpGet; IdxAny matches any index
	IdxAny bool
	Args   []*Pattern
}

// PVar constructs a pattern variable.
func PVar(name string) *Pattern { return &Pattern{Var: name} }

// PLit constructs a literal pattern.
func PLit(v float64) *Pattern { return &Pattern{Op: expr.OpLit, Lit: v} }

// POp constructs an operator pattern.
func POp(op expr.Op, args ...*Pattern) *Pattern { return &Pattern{Op: op, Args: args} }

// ParsePattern parses an s-expression pattern. Tokens beginning with '?' are
// pattern variables; other syntax matches the expr DSL.
//
//	(+ ?a (* ?b ?c))
func ParsePattern(src string) (*Pattern, error) {
	p := &patParser{src: src}
	pat, err := p.parse()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("egraph: trailing input in pattern %q", src)
	}
	return pat, nil
}

// MustPattern is ParsePattern, panicking on error (for rule tables).
func MustPattern(src string) *Pattern {
	p, err := ParsePattern(src)
	if err != nil {
		panic(err)
	}
	return p
}

type patParser struct {
	src string
	pos int
}

func (p *patParser) skip() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *patParser) token() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '(' || c == ')' || unicode.IsSpace(rune(c)) {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}

var patHeads = func() map[string]expr.Op {
	m := map[string]expr.Op{}
	for op := expr.Op(0); op < expr.NumOps; op++ {
		m[op.String()] = op
	}
	return m
}()

func (p *patParser) parse() (*Pattern, error) {
	p.skip()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("egraph: unexpected end of pattern")
	}
	if p.src[p.pos] != '(' {
		tok := p.token()
		if tok == "" {
			return nil, fmt.Errorf("egraph: bad pattern at offset %d", p.pos)
		}
		if strings.HasPrefix(tok, "?") {
			return PVar(tok), nil
		}
		if v, err := strconv.ParseFloat(tok, 64); err == nil {
			return PLit(v), nil
		}
		return &Pattern{Op: expr.OpSym, Sym: tok}, nil
	}
	p.pos++ // consume '('
	p.skip()
	head := p.token()
	op, ok := patHeads[head]
	if !ok {
		return nil, fmt.Errorf("egraph: unknown pattern operator %q", head)
	}
	pat := &Pattern{Op: op}
	switch op {
	case expr.OpGet:
		p.skip()
		pat.Sym = p.token() // "?" or "" means any array
		if strings.HasPrefix(pat.Sym, "?") {
			pat.Sym = ""
		}
		p.skip()
		idxTok := p.token()
		if strings.HasPrefix(idxTok, "?") {
			pat.IdxAny = true
		} else {
			idx, err := strconv.Atoi(idxTok)
			if err != nil {
				return nil, fmt.Errorf("egraph: Get pattern index %q", idxTok)
			}
			pat.Idx = idx
		}
	case expr.OpFunc, expr.OpVecFunc:
		p.skip()
		pat.Sym = p.token()
		if strings.HasPrefix(pat.Sym, "?") {
			pat.Sym = ""
		}
		fallthrough
	default:
		for {
			p.skip()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("egraph: unterminated pattern %q", p.src)
			}
			if p.src[p.pos] == ')' {
				break
			}
			a, err := p.parse()
			if err != nil {
				return nil, err
			}
			pat.Args = append(pat.Args, a)
		}
	}
	p.skip()
	if p.pos >= len(p.src) || p.src[p.pos] != ')' {
		return nil, fmt.Errorf("egraph: missing ')' in pattern")
	}
	p.pos++
	if err := expr.CheckArity(op, len(pat.Args)); err != nil {
		return nil, fmt.Errorf("egraph: pattern %w", err)
	}
	return pat, nil
}

// Vars returns the distinct variable names in the pattern, in first-use order.
func (p *Pattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	var walk func(*Pattern)
	walk = func(q *Pattern) {
		if q.Var != "" {
			if !seen[q.Var] {
				seen[q.Var] = true
				out = append(out, q.Var)
			}
			return
		}
		for _, a := range q.Args {
			walk(a)
		}
	}
	walk(p)
	return out
}

// Subst binds a rule's pattern variables to e-classes by slot: entry i is
// the class bound to the i-th distinct variable of the rule's left-hand
// side, in first-use order (Pattern.Vars).
type Subst []ClassID

// withSlots returns a copy of p whose variables carry their slots from
// slots. A variable slots lacks gets the next slot, so slotting a
// left-hand side numbers its variables in first-use order, the order
// matching binds them in.
func withSlots(p *Pattern, slots map[string]int) *Pattern {
	c := *p
	if c.Var != "" {
		k, ok := slots[c.Var]
		if !ok {
			k = len(slots)
			slots[c.Var] = k
		}
		c.slot = k
		return &c
	}
	c.Args = make([]*Pattern, len(p.Args))
	for i, a := range p.Args {
		c.Args[i] = withSlots(a, slots)
	}
	return &c
}

// Match is one result of searching a rewrite's left-hand side: the class
// where it matched and the applier's payload (a pattern rule's Subst, or a
// custom searcher's own data).
type Match struct {
	Class ClassID
	Data  any
}

// MatchesAt returns the run of matches at class c in ms, a list sorted by
// class such as the cached list SearchClasses receives; it is empty when
// ms holds no match at c.
func MatchesAt(ms []Match, c ClassID) []Match {
	lo, _ := slices.BinarySearchFunc(ms, c, func(m Match, c ClassID) int { return cmp.Compare(m.Class, c) })
	hi := lo
	for hi < len(ms) && ms[hi].Class == c {
		hi++
	}
	return ms[lo:hi]
}

// patternSearch is one SearchClasses call of a pattern rule: matching
// extends one Subst buffer slot by slot, and each full match copies its
// bindings out of it into chunks of subs, which the call's matches own.
type patternSearch struct {
	g     *EGraph
	class ClassID // the class being searched
	out   []Match
	subs  []ClassID
}

// rest is what a match must still satisfy once the current sub-pattern
// has matched: the sibling patterns pats against the classes ids, then
// the parent's rest (nil at the root).
type rest struct {
	pats []*Pattern
	ids  []ClassID
	next *rest
}

// matchIn extends s, in every way under which p matches class id, and
// goes on to k for each extension.
func (ps *patternSearch) matchIn(p *Pattern, id ClassID, s Subst, k *rest) {
	g := ps.g
	id = g.Find(id)
	if p.Var != "" {
		if p.slot < len(s) {
			if g.Find(s[p.slot]) == id {
				ps.matchArgs(nil, nil, s, k)
			}
			return
		}
		// Variables bind in slot order, so p binds the next slot.
		ps.matchArgs(nil, nil, append(s, id), k)
		return
	}
	for _, ni := range g.classes[id].Nodes {
		if n := g.Node(ni); g.nodeMatches(p, n) {
			ps.matchArgs(p.Args, n.Args, s, k)
		}
	}
}

// matchArgs matches pats against ids in order under s, then goes on to k;
// a full match past the root is emitted.
func (ps *patternSearch) matchArgs(pats []*Pattern, ids []ClassID, s Subst, k *rest) {
	for len(pats) == 0 {
		if k == nil {
			sub := Subst(carve(&ps.subs, len(s), 256))
			copy(sub, s)
			ps.out = append(ps.out, Match{Class: ps.class, Data: sub})
			return
		}
		pats, ids, k = k.pats, k.ids, k.next
	}
	ps.matchIn(pats[0], ids[0], s, &rest{pats: pats[1:], ids: ids[1:], next: k})
}

// nodeMatches checks the node-local parts of a pattern (operator, payload,
// arity) without descending into children. Pattern symbols stay strings
// (patterns are shared across graphs); they are resolved against the
// graph's intern table here — a symbol never interned in this graph cannot
// appear on any node, so such patterns simply match nothing.
func (g *EGraph) nodeMatches(p *Pattern, n ENode) bool {
	if p.Op != n.Op {
		return false
	}
	switch p.Op {
	case expr.OpLit:
		return p.Lit == n.Lit
	case expr.OpSym:
		sid, ok := g.syms.Lookup(p.Sym)
		return ok && sid == n.Sym
	case expr.OpGet:
		if p.Sym != "" {
			sid, ok := g.syms.Lookup(p.Sym)
			if !ok || sid != n.Sym {
				return false
			}
		}
		return p.IdxAny || p.Idx == n.Idx
	case expr.OpFunc, expr.OpVecFunc:
		if p.Sym != "" {
			sid, ok := g.syms.Lookup(p.Sym)
			if !ok || sid != n.Sym {
				return false
			}
		}
	}
	return len(p.Args) == len(n.Args)
}

// instantiate adds the pattern to the graph under the substitution,
// returning the resulting class. The pattern's variables carry slots
// (withSlots), and each must be bound in subst.
func (g *EGraph) instantiate(p *Pattern, subst Subst) (ClassID, error) {
	if p.Var != "" {
		if p.slot >= len(subst) {
			return 0, fmt.Errorf("egraph: unbound pattern variable %s", p.Var)
		}
		return g.Find(subst[p.slot]), nil
	}
	var buf [4]ClassID
	args := buf[:0]
	for _, a := range p.Args {
		id, err := g.instantiate(a, subst)
		if err != nil {
			return 0, err
		}
		args = append(args, id)
	}
	return g.Add(ENode{Op: p.Op, Lit: p.Lit, Sym: g.InternSym(p.Sym), Idx: p.Idx, Args: args}), nil
}

// String renders the pattern in s-expression syntax.
func (p *Pattern) String() string {
	var b strings.Builder
	p.write(&b)
	return b.String()
}

func (p *Pattern) write(b *strings.Builder) {
	if p.Var != "" {
		b.WriteString(p.Var)
		return
	}
	switch p.Op {
	case expr.OpLit:
		fmt.Fprintf(b, "%g", p.Lit)
	case expr.OpSym:
		b.WriteString(p.Sym)
	case expr.OpGet:
		sym := p.Sym
		if sym == "" {
			sym = "?arr"
		}
		if p.IdxAny {
			fmt.Fprintf(b, "(Get %s ?i)", sym)
		} else {
			fmt.Fprintf(b, "(Get %s %d)", sym, p.Idx)
		}
	default:
		b.WriteByte('(')
		b.WriteString(p.Op.String())
		if p.Op == expr.OpFunc || p.Op == expr.OpVecFunc {
			b.WriteByte(' ')
			if p.Sym == "" {
				b.WriteString("?f")
			} else {
				b.WriteString(p.Sym)
			}
		}
		for _, a := range p.Args {
			b.WriteByte(' ')
			a.write(b)
		}
		b.WriteByte(')')
	}
}
