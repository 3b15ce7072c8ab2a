package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	diospyros "diospyros"
	"diospyros/internal/bench"
	"diospyros/internal/codegen"
	"diospyros/internal/expr"
	"diospyros/internal/frontend"
	"diospyros/internal/kernel"
)

// kernelCase is one kernel of a workload with its seeded inputs and the
// reference outputs, computed outside the compiler under test: by
// evaluating the lifted specification for builder-API kernels (as
// figure5.go does) and by interpreting the parsed source for source
// kernels.
type kernelCase struct {
	name   string
	src    string         // source kernels
	lifted *kernel.Lifted // builder-API kernels
	inputs map[string][]float64
	want   map[string][]float64
}

// suiteCases returns the Table 1 kernels, in table order, minus skip.
func suiteCases(seed int64, skip map[string]bool) ([]kernelCase, error) {
	var out []kernelCase
	for i, k := range bench.Suite() {
		if skip[k.ID] {
			continue
		}
		l := k.Lift()
		inputs := k.Inputs(rand.New(rand.NewSource(seed*1000 + int64(i))))
		want, err := evalSpec(l, inputs)
		if err != nil {
			return nil, fmt.Errorf("%s: reference: %w", k.ID, err)
		}
		out = append(out, kernelCase{name: k.ID, lifted: l, inputs: inputs, want: want})
	}
	return out, nil
}

func evalSpec(l *kernel.Lifted, inputs map[string][]float64) (map[string][]float64, error) {
	env := expr.NewEnv()
	for name, data := range inputs {
		env.Arrays[name] = data
	}
	v, err := l.Spec.Eval(env)
	if err != nil {
		return nil, err
	}
	flat := v.AsSlice()
	want := map[string][]float64{}
	for _, d := range l.Outputs {
		if len(flat) < d.Len() {
			return nil, fmt.Errorf("spec yields too few outputs for %s", d.Name)
		}
		want[d.Name], flat = flat[:d.Len()], flat[d.Len():]
	}
	return want, nil
}

// readSources reads testdata/<name>.dios for each name under root.
func readSources(root string, names []string) (map[string]string, error) {
	out := map[string]string{}
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(root, "testdata", n+".dios"))
		if err != nil {
			return nil, err
		}
		out[n] = string(b)
	}
	return out, nil
}

// sourceCase parses src and interprets it on seeded inputs.
func sourceCase(name, src string, r *rand.Rand) (kernelCase, error) {
	ast, err := frontend.Parse(src)
	if err != nil {
		return kernelCase{}, fmt.Errorf("%s: %w", name, err)
	}
	inputs := map[string][]float64{}
	for _, p := range ast.Params {
		s := make([]float64, p.Len())
		for i := range s {
			s[i] = r.Float64()*4 - 2
		}
		inputs[p.Name] = s
	}
	want, err := frontend.Interp(ast, inputs, nil)
	if err != nil {
		return kernelCase{}, fmt.Errorf("%s: reference: %w", name, err)
	}
	return kernelCase{name: name, src: src, inputs: inputs, want: want}, nil
}

// artifact is one target's verified program for one kernel. Later compiles
// of the kernel must reproduce it exactly (the compiler is deterministic),
// which checks every op without simulating it again.
type artifact struct {
	Target string `json:"target"`
	C      string `json:"-"`
	Asm    string `json:"-"`
	Cycles int64  `json:"cycles"`
	Instrs int    `json:"instrs"`
}

// verify simulates every target's program of res on the case's inputs,
// compares the outputs with the reference, and returns the artifacts.
func verify(c *kernelCase, res *diospyros.Result) ([]artifact, error) {
	var out []artifact
	for _, tr := range res.Targets {
		if tr.Program == nil {
			return nil, fmt.Errorf("%s: no %s program", c.name, tr.Target)
		}
		got, sres, err := codegen.Execute(tr.Program, c.inputs, res.Kernel.Inputs, res.Kernel.Outputs, nil)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: simulate: %w", c.name, tr.Target, err)
		}
		if err := checkOutputs(got, c.want); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", c.name, tr.Target, err)
		}
		out = append(out, artifact{
			Target: tr.Target, C: tr.C, Asm: tr.Program.Disassemble(),
			Cycles: sres.Cycles, Instrs: len(tr.Program.Instrs),
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no programs", c.name)
	}
	return out, nil
}

// sameArtifacts reports whether res reproduces the verified artifacts.
func sameArtifacts(res *diospyros.Result, golden []artifact) bool {
	if len(res.Targets) != len(golden) {
		return false
	}
	for i, tr := range res.Targets {
		if tr.Program == nil || tr.C != golden[i].C || tr.Program.Disassemble() != golden[i].Asm {
			return false
		}
	}
	return true
}

// checkOutputs compares simulated outputs with the reference within the
// 1e-4 relative tolerance figure5.go uses.
func checkOutputs(got, want map[string][]float64) error {
	for name, w := range want {
		g, ok := got[name]
		if !ok || len(g) != len(w) {
			return fmt.Errorf("output %q missing or misshapen", name)
		}
		for i := range w {
			if !(math.Abs(g[i]-w[i]) <= 1e-4*math.Max(1, math.Abs(w[i]))) {
				return fmt.Errorf("output %s[%d] = %g, want %g", name, i, g[i], w[i])
			}
		}
	}
	return nil
}
