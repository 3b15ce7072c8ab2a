package kcc

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"diospyros/internal/expr"
	"diospyros/internal/frontend"
)

// FuzzKCC is the differential check of kcc against Interp on arbitrary
// source. Lift and Interp share the frontend's walker, so FuzzLift cannot
// see the walker resolve a name wrongly; kcc's Parametric mode walks the
// tree on its own. Wherever a mode compiles a kernel that calls no user
// function and the program runs, and Interp finishes with every value it
// computes finite, Routine.Run must give Interp's outputs to 1e-9
// relative. (Over NaN, a float condition Parametric inverts to branch on
// its negation takes the other arm.) The seeds are the repository's
// example kernels, the scoping kernels and the sibling var arrays.
func FuzzKCC(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/*.dios")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed kernels under testdata (err %v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, c := range scopingKernels {
		f.Add(c.src)
	}
	f.Add(siblingVarSrc)
	f.Fuzz(func(t *testing.T, src string) {
		k, err := frontend.Parse(src)
		if err != nil || len(k.UserFuncs) > 0 {
			return
		}
		r := rand.New(rand.NewSource(1))
		in := map[string][]float64{}
		for _, p := range k.Params {
			in[p.Name] = randSlice(r, p.Len())
		}
		want, err := frontend.Interp(k, in, nil)
		if err != nil || !finiteRun(k, in) {
			return
		}
		for _, mode := range []Mode{Parametric, FixedSize} {
			p, err := Compile(k, mode)
			if err != nil {
				continue
			}
			got, _, err := (&Routine{Kernel: k, Program: p}).Run(in)
			if err != nil {
				continue
			}
			for name, w := range want {
				for i := range w {
					if g := got[name][i]; !(math.Abs(g-w[i]) <= 1e-9*math.Max(1, math.Abs(w[i]))) {
						t.Fatalf("%s: %s[%d] = %g, Interp %g\n%s", mode, name, i, g, w[i], src)
					}
				}
			}
		}
	})
}

// finiteRun reports whether every value Interp computes on k over in is
// finite.
func finiteRun(k *frontend.Kernel, in map[string][]float64) bool {
	var arrays []frontend.Array[float64]
	for _, p := range k.Params {
		arrays = append(arrays, &vals{dims: p.Dims, v: in[p.Name]})
	}
	for _, p := range k.Outs {
		arrays = append(arrays, &vals{dims: p.Dims, v: make([]float64, p.Len())})
	}
	d := &finite{ok: true}
	err := frontend.Run[float64](context.Background(), k, d, arrays)
	return err == nil && d.ok
}

// finite is a float64 domain noting in ok whether every value it
// computes is finite (a literal always is: the lexer rejects one out of
// range).
type finite struct{ ok bool }

// vals is a float64 array, flat.
type vals struct {
	dims []int
	v    []float64
}

func (a *vals) Dims() []int              { return a.dims }
func (a *vals) Load(off int) float64     { return a.v[off] }
func (a *vals) Store(off int, x float64) { a.v[off] = x }

func (d *finite) note(v float64) (float64, error) {
	d.ok = d.ok && !math.IsInf(v, 0) && !math.IsNaN(v)
	return v, nil
}

func (*finite) Num(v float64) float64 { return v }

func (d *finite) Arith(op string, l, r float64, _ frontend.Pos) (float64, error) {
	switch op {
	case "+":
		return d.note(l + r)
	case "-":
		return d.note(l - r)
	case "*":
		return d.note(l * r)
	}
	return d.note(l / r)
}

func (d *finite) Neg(x float64, _ frontend.Pos) (float64, error) { return d.note(-x) }

func (d *finite) Call(name string, args []float64, _ frontend.Pos) (float64, error) {
	switch name {
	case "sqrt":
		return d.note(math.Sqrt(args[0]))
	case "abs":
		return d.note(math.Abs(args[0]))
	}
	return d.note(expr.Sign(args[0]))
}

func (*finite) Compare(op string, l, r float64, _ frontend.Pos) (bool, error) {
	switch op {
	case "<":
		return l < r, nil
	case "<=":
		return l <= r, nil
	case ">":
		return l > r, nil
	case ">=":
		return l >= r, nil
	case "==":
		return l == r, nil
	}
	return l != r, nil
}

func (*finite) Local(_ string, dims []int) frontend.Array[float64] {
	n := 1
	for _, x := range dims {
		n *= x
	}
	return &vals{dims: dims, v: make([]float64, n)}
}
