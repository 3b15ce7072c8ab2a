package vir

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"diospyros/internal/kernel"
)

func decls(names []string, n int) []kernel.ArrayDecl {
	var out []kernel.ArrayDecl
	for _, name := range names {
		out = append(out, kernel.ArrayDecl{Name: name, Rows: n, Cols: 1})
	}
	return out
}

// buildRedundant emits the same subexpression repeatedly: (a+b)*(a+b) per
// output element, each time recomputing the loads and the add.
func buildRedundant(n int) *Program {
	p := NewProgram("red", 4, decls([]string{"a", "b"}, n), decls([]string{"c"}, n))
	for i := 0; i < n; i++ {
		la := p.Emit(Instr{Op: LoadS, Array: "a", Off: i})
		lb := p.Emit(Instr{Op: LoadS, Array: "b", Off: i})
		s1 := p.Emit(Instr{Op: AddS, Args: []ID{la, lb}})
		la2 := p.Emit(Instr{Op: LoadS, Array: "a", Off: i})
		lb2 := p.Emit(Instr{Op: LoadS, Array: "b", Off: i})
		s2 := p.Emit(Instr{Op: AddS, Args: []ID{la2, lb2}})
		m := p.Emit(Instr{Op: MulS, Args: []ID{s1, s2}})
		p.Emit(Instr{Op: StoreS, Args: []ID{m}, Array: "c", Off: i})
	}
	return p
}

func randInputs(r *rand.Rand, names []string, n int) map[string][]float64 {
	out := map[string][]float64{}
	for _, name := range names {
		s := make([]float64, n)
		for i := range s {
			s[i] = r.Float64()*4 - 2
		}
		out[name] = s
	}
	return out
}

func TestLVNRemovesRedundancy(t *testing.T) {
	p := buildRedundant(4)
	before := len(p.Instrs)
	r := rand.New(rand.NewSource(1))
	in := randInputs(r, []string{"a", "b"}, 4)
	want, err := Interp(p, in, nil) // before LVN consumes p
	if err != nil {
		t.Fatal(err)
	}
	q := LVN(p)
	after := len(q.Instrs)
	// Each element had 3 redundant instructions (2 loads + 1 add).
	if after != before-3*4 {
		t.Fatalf("LVN: %d -> %d instrs, want %d", before, after, before-12)
	}
	// Semantics preserved.
	got, err := Interp(q, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want["c"] {
		if want["c"][i] != got["c"][i] {
			t.Fatalf("LVN changed semantics at %d", i)
		}
	}
}

func TestLVNLargeReductionFactor(t *testing.T) {
	// The paper's §4 reports LVN shrinking the quaternion-product kernel
	// from >100k lines to <500 — a two-orders-of-magnitude reduction on
	// heavily redundant code. Reproduce the effect at scale: 64 outputs,
	// each recomputing the same shared subexpression tower 8 times.
	p := NewProgram("tower", 4, decls([]string{"a"}, 8), decls([]string{"c"}, 64))
	for i := 0; i < 64; i++ {
		var acc ID = None
		for rep := 0; rep < 8; rep++ {
			x := p.Emit(Instr{Op: LoadS, Array: "a", Off: 0})
			for d := 1; d < 8; d++ {
				y := p.Emit(Instr{Op: LoadS, Array: "a", Off: d})
				x = p.Emit(Instr{Op: MulS, Args: []ID{x, y}})
			}
			if acc == None {
				acc = x
			} else {
				acc = p.Emit(Instr{Op: AddS, Args: []ID{acc, x}})
			}
		}
		p.Emit(Instr{Op: StoreS, Args: []ID{acc}, Array: "c", Off: i})
	}
	raw := len(p.Instrs) // read before Optimize consumes p
	q := Optimize(p)
	factor := float64(raw) / float64(len(q.Instrs))
	if factor < 50 {
		t.Fatalf("LVN reduction factor %.1f (%d -> %d), want >= 50",
			factor, raw, len(q.Instrs))
	}
}

// TestOptimizeAllocations bounds what Optimize allocates on a program that
// exercises all four passes (duplicate loads and adds, a shuffle chain, an
// identity shuffle, dead code). The 14 allocations are the forwarding
// table, one value table with its slots and its two key buffers as they
// grow, fusion's definition index, DCE's use marks, and the one program,
// instruction slice and argument slice it returns. A pass that copied the
// program again would cost at least three more.
func TestOptimizeAllocations(t *testing.T) {
	build := func() *Program {
		p := NewProgram("mixed", 4, decls([]string{"a", "b"}, 8), decls([]string{"c"}, 8))
		for i := 0; i < 2; i++ {
			la := p.Emit(Instr{Op: LoadV, Array: "a", Off: 0})
			lb := p.Emit(Instr{Op: LoadV, Array: "b", Off: 0})
			sum := p.Emit(Instr{Op: AddV, Args: []ID{la, lb}})
			sh := p.Emit(Instr{Op: Shuffle, Args: []ID{sum}, Idx: []int{3, 2, 1, 0}})
			sh2 := p.Emit(Instr{Op: Shuffle, Args: []ID{sh}, Idx: []int{1, 0, 3, 2}})
			id := p.Emit(Instr{Op: Shuffle, Args: []ID{sh2}, Idx: []int{0, 1, 2, 3}})
			p.Emit(Instr{Op: MulV, Args: []ID{la, la}}) // dead
			p.Emit(Instr{Op: StoreV, Args: []ID{id}, Array: "c", Off: 4 * i})
		}
		return p
	}
	// Optimize consumes its input, so each run optimizes a fresh program;
	// building one costs the same every time and is subtracted.
	built := testing.AllocsPerRun(20, func() { build() })
	allocs := testing.AllocsPerRun(20, func() {
		if q := Optimize(build()); len(q.Instrs) != 6 {
			t.Fatalf("Optimize kept %d instrs, want 6:\n%s", len(q.Instrs), q)
		}
	}) - built
	if allocs > 14 {
		t.Fatalf("Optimize allocates %v times, want at most 14", allocs)
	}
}

func TestDCERemovesDeadCode(t *testing.T) {
	p := NewProgram("dead", 4, decls([]string{"a"}, 4), decls([]string{"c"}, 1))
	live := p.Emit(Instr{Op: LoadS, Array: "a", Off: 0})
	dead := p.Emit(Instr{Op: LoadS, Array: "a", Off: 1})
	deadMul := p.Emit(Instr{Op: MulS, Args: []ID{dead, dead}})
	_ = deadMul
	p.Emit(Instr{Op: StoreS, Args: []ID{live}, Array: "c", Off: 0})
	q := DCE(p)
	if len(q.Instrs) != 2 {
		t.Fatalf("DCE left %d instrs, want 2:\n%s", len(q.Instrs), q)
	}
}

func TestFuseShuffleChains(t *testing.T) {
	p := NewProgram("fuse", 4, decls([]string{"a", "b"}, 8), decls([]string{"c"}, 4))
	la := p.Emit(Instr{Op: LoadV, Array: "a", Off: 0})
	lb := p.Emit(Instr{Op: LoadV, Array: "b", Off: 0})
	sh := p.Emit(Instr{Op: Shuffle, Args: []ID{la}, Idx: []int{3, 2, 1, 0}})
	sel := p.Emit(Instr{Op: Select, Args: []ID{sh, lb}, Idx: []int{0, 5, 2, 7}})
	sh2 := p.Emit(Instr{Op: Shuffle, Args: []ID{sel}, Idx: []int{1, 0, 3, 2}})
	p.Emit(Instr{Op: StoreV, Args: []ID{sh2}, Array: "c", Off: 0})

	r := rand.New(rand.NewSource(2))
	in := randInputs(r, []string{"a", "b"}, 8)
	want, err := Interp(p, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := Optimize(p)
	got, err := Interp(q, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want["c"] {
		if want["c"][i] != got["c"][i] {
			t.Fatalf("fusion changed semantics at lane %d: %g vs %g", i, got["c"][i], want["c"][i])
		}
	}
	// The chain shuffle→select→shuffle must collapse into one movement op.
	moves := 0
	for _, in := range q.Instrs {
		if in.Op == Shuffle || in.Op == Select {
			moves++
		}
	}
	if moves > 1 {
		t.Fatalf("fusion left %d movement ops, want <= 1:\n%s", moves, q)
	}
}

func TestFuseOneSidedSelect(t *testing.T) {
	p := NewProgram("oneside", 4, decls([]string{"a", "b"}, 8), decls([]string{"c"}, 4))
	la := p.Emit(Instr{Op: LoadV, Array: "a", Off: 0})
	lb := p.Emit(Instr{Op: LoadV, Array: "b", Off: 0})
	sel := p.Emit(Instr{Op: Select, Args: []ID{la, lb}, Idx: []int{5, 4, 7, 6}}) // all from b
	p.Emit(Instr{Op: StoreV, Args: []ID{sel}, Array: "c", Off: 0})
	q := Optimize(p)
	for _, in := range q.Instrs {
		if in.Op == Select {
			t.Fatalf("one-sided select not converted to shuffle:\n%s", q)
		}
	}
	r := rand.New(rand.NewSource(3))
	in := randInputs(r, []string{"a", "b"}, 8)
	got, err := Interp(q, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{in["b"][1], in["b"][0], in["b"][3], in["b"][2]}
	for i := range want {
		if got["c"][i] != want[i] {
			t.Fatalf("lane %d: %g want %g", i, got["c"][i], want[i])
		}
	}
}

func TestFuseIdentityShuffle(t *testing.T) {
	p := NewProgram("ident", 4, decls([]string{"a"}, 4), decls([]string{"c"}, 4))
	la := p.Emit(Instr{Op: LoadV, Array: "a", Off: 0})
	sh := p.Emit(Instr{Op: Shuffle, Args: []ID{la}, Idx: []int{0, 1, 2, 3}})
	p.Emit(Instr{Op: StoreV, Args: []ID{sh}, Array: "c", Off: 0})
	q := Optimize(p)
	for _, in := range q.Instrs {
		if in.Op == Shuffle {
			t.Fatalf("identity shuffle survived:\n%s", q)
		}
	}
}

// Property: Optimize preserves semantics on random straight-line programs.
func TestPropertyOptimizePreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		p := randomProgram(r)
		in := randInputs(r, []string{"a", "b"}, 8)
		want, err := Interp(p, in, nil)
		if err != nil {
			t.Fatalf("trial %d: interp original: %v\n%s", trial, err, p)
		}
		q := Optimize(p)
		got, err := Interp(q, in, nil)
		if err != nil {
			t.Fatalf("trial %d: interp optimized: %v\n%s", trial, err, q)
		}
		for i := range want["c"] {
			w, g := want["c"][i], got["c"][i]
			if w != g && !(math.IsNaN(w) && math.IsNaN(g)) {
				t.Fatalf("trial %d lane %d: %g vs %g\nbefore:\n%s\nafter:\n%s",
					trial, i, g, w, p, q)
			}
		}
	}
}

// randomProgram emits a random DAG of vector ops over two 8-element inputs
// and stores 4 outputs.
func randomProgram(r *rand.Rand) *Program {
	p := NewProgram("rand", 4, decls([]string{"a", "b"}, 8), decls([]string{"c"}, 4))
	var vecs []ID
	vecs = append(vecs,
		p.Emit(Instr{Op: LoadV, Array: "a", Off: 0}),
		p.Emit(Instr{Op: LoadV, Array: "b", Off: 0}),
		p.Emit(Instr{Op: LoadV, Array: "a", Off: 4}),
	)
	idx4 := func() []int {
		out := make([]int, 4)
		for i := range out {
			out[i] = r.Intn(4)
		}
		return out
	}
	idx8 := func() []int {
		out := make([]int, 4)
		for i := range out {
			out[i] = r.Intn(8)
		}
		return out
	}
	pick := func() ID { return vecs[r.Intn(len(vecs))] }
	for k := 0; k < 3+r.Intn(10); k++ {
		switch r.Intn(6) {
		case 0:
			vecs = append(vecs, p.Emit(Instr{Op: Shuffle, Args: []ID{pick()}, Idx: idx4()}))
		case 1:
			vecs = append(vecs, p.Emit(Instr{Op: Select, Args: []ID{pick(), pick()}, Idx: idx8()}))
		case 2:
			vecs = append(vecs, p.Emit(Instr{Op: AddV, Args: []ID{pick(), pick()}}))
		case 3:
			vecs = append(vecs, p.Emit(Instr{Op: MulV, Args: []ID{pick(), pick()}}))
		case 4:
			vecs = append(vecs, p.Emit(Instr{Op: MacV, Args: []ID{pick(), pick(), pick()}}))
		default:
			vecs = append(vecs, p.Emit(Instr{Op: SubV, Args: []ID{pick(), pick()}}))
		}
	}
	p.Emit(Instr{Op: StoreV, Args: []ID{vecs[len(vecs)-1]}, Array: "c", Off: 0})
	return p
}

func TestInterpErrors(t *testing.T) {
	mk := func(f func(p *Program)) error {
		p := NewProgram("err", 4, decls([]string{"a"}, 4), decls([]string{"c"}, 4))
		f(p)
		_, err := Interp(p, map[string][]float64{"a": make([]float64, 4)}, nil)
		return err
	}
	cases := []func(p *Program){
		func(p *Program) { p.Emit(Instr{Op: LoadS, Array: "zzz", Off: 0}) },
		func(p *Program) { p.Emit(Instr{Op: LoadS, Array: "a", Off: 99}) },
		func(p *Program) {
			id := p.Emit(Instr{Op: ConstS, F: 1})
			p.Emit(Instr{Op: Shuffle, Args: []ID{id}, Idx: []int{0, 1, 2, 3}})
		},
		func(p *Program) {
			id := p.Emit(Instr{Op: ConstV, Fs: []float64{1, 2, 3, 4}})
			p.Emit(Instr{Op: Shuffle, Args: []ID{id}, Idx: []int{0, 1, 2, 9}})
		},
		func(p *Program) { p.Emit(Instr{Op: CallS, Sym: "nosuch"}) },
	}
	for i, f := range cases {
		if err := mk(f); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestProgramString(t *testing.T) {
	p := buildRedundant(1)
	s := p.String()
	for _, want := range []string{"load.s", "add.s", "mul.s", "store.s"} {
		if !strings.Contains(s, want) {
			t.Errorf("program dump missing %q:\n%s", want, s)
		}
	}
}

func TestRematerializePreservesSemanticsAndSplitsRanges(t *testing.T) {
	// A load used at the start and again far later: rematerialization must
	// clone the load rather than keep its value live across the gap.
	p := NewProgram("remat", 4, decls([]string{"a", "b"}, 8), decls([]string{"c"}, 8))
	hot := p.Emit(Instr{Op: LoadV, Array: "a", Off: 0})
	cur := p.Emit(Instr{Op: LoadV, Array: "b", Off: 0})
	first := p.Emit(Instr{Op: AddV, Args: []ID{cur, hot}})
	p.Emit(Instr{Op: StoreV, Args: []ID{first}, Array: "c", Off: 0})
	for k := 0; k < 50; k++ {
		cur = p.Emit(Instr{Op: AddV, Args: []ID{cur, cur}})
	}
	late := p.Emit(Instr{Op: AddV, Args: []ID{cur, hot}}) // stale use of hot
	p.Emit(Instr{Op: StoreV, Args: []ID{late}, Array: "c", Off: 4})

	q := Rematerialize(p, 16)
	loads := 0
	for _, in := range q.Instrs {
		if in.Op == LoadV && in.Array == "a" {
			loads++
		}
	}
	if loads < 2 {
		t.Fatalf("stale load not rematerialized (%d loads of a)", loads)
	}
	in := map[string][]float64{
		"a": {1, 2, 3, 4, 5, 6, 7, 8},
		"b": {1, 1, 1, 1, 2, 2, 2, 2},
	}
	want, err := Interp(p, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Interp(q, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want["c"] {
		if want["c"][i] != got["c"][i] {
			t.Fatalf("remat changed semantics at %d: %g vs %g", i, got["c"][i], want["c"][i])
		}
	}
}

func TestRematerializeClonesMovementCones(t *testing.T) {
	// A shuffle-of-load cone reused far later is cloned whole.
	p := NewProgram("cone", 4, decls([]string{"a"}, 8), decls([]string{"c"}, 8))
	ld := p.Emit(Instr{Op: LoadV, Array: "a", Off: 0})
	sh := p.Emit(Instr{Op: Shuffle, Args: []ID{ld}, Idx: []int{3, 2, 1, 0}})
	p.Emit(Instr{Op: StoreV, Args: []ID{sh}, Array: "c", Off: 0})
	cur := p.Emit(Instr{Op: LoadV, Array: "a", Off: 4})
	for k := 0; k < 50; k++ {
		cur = p.Emit(Instr{Op: AddV, Args: []ID{cur, cur}})
	}
	late := p.Emit(Instr{Op: AddV, Args: []ID{cur, sh}})
	p.Emit(Instr{Op: StoreV, Args: []ID{late}, Array: "c", Off: 4})
	q := Rematerialize(p, 16)
	shuffles := 0
	for _, in := range q.Instrs {
		if in.Op == Shuffle {
			shuffles++
		}
	}
	if shuffles < 2 {
		t.Fatalf("movement cone not cloned (%d shuffles)", shuffles)
	}
	in := map[string][]float64{"a": {1, 2, 3, 4, 5, 6, 7, 8}}
	want, _ := Interp(p, in, nil)
	got, err := Interp(q, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want["c"] {
		if want["c"][i] != got["c"][i] {
			t.Fatalf("cone remat changed semantics at %d", i)
		}
	}
}
