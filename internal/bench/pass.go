package bench

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"time"

	diospyros "diospyros"
	"diospyros/internal/expr"
	"diospyros/internal/kcc"
	"diospyros/internal/kernel"
	"diospyros/internal/sim"
	"diospyros/internal/telemetry"
)

// This file is the suite pass behind Table 1, Figure 5, the §2 numbers,
// both ablations and the target table: each kernel's inputs and reference
// outputs are built once, and every simulated program is checked against
// them by check.

// Options parameterizes a suite pass and the runners that extend one.
type Options struct {
	// Opts are the Diospyros compiler options (defaults match the paper's
	// §5.2 settings). Opts.Validate turns on translation validation, and
	// TargetTable compiles for Opts.Targets.
	Opts diospyros.Options
	// Only restricts the pass to kernels whose ID contains any of the
	// comma-separated substrings.
	Only string
	// Progress receives one line per kernel (may be nil).
	Progress func(string)
	// Context cancels the pass between (and during) kernel compiles. Nil
	// means context.Background().
	Context context.Context
}

func (o Options) ctx() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

// inputSeed draws every pass's random inputs.
const inputSeed = 7

// kernels returns the suite kernels Only admits, in table order.
func (o Options) kernels() []Kernel {
	var out []Kernel
	for _, k := range Suite() {
		if matchOnly(o.Only, k.ID) {
			out = append(out, k)
		}
	}
	return out
}

// Cycles holds simulated cycle counts per system for one kernel.
// Zero means "not available" (the paper's missing bars).
type Cycles struct {
	Naive      int64
	NaiveFixed int64
	Diospyros  int64
	Nature     int64
	Eigen      int64
}

// Row is one kernel of a suite pass: the Diospyros compile's trace and
// final e-graph size, and the simulated cycles of every system the pass
// ran. Table 1's columns are read off the trace.
type Row struct {
	Kernel Kernel
	Trace  *telemetry.Trace
	// Nodes and Classes are the e-graph's size when saturation stopped.
	Nodes, Classes int
	Validated      bool
	Cycles         Cycles
	// Profile is the Diospyros program's simulated cycle breakdown per
	// opcode, issue slot and stall cause.
	Profile *sim.Profile
}

// PeakEGraphBytes is the e-graph's peak logical footprint during the
// compile (Trace.Memory.PeakBytes) — deterministic, so the artifact
// ledger (testdata/artifacts.golden) pins it exactly.
func (r Row) PeakEGraphBytes() int64 {
	if r.Trace.Memory == nil {
		return 0
	}
	return r.Trace.Memory.PeakBytes
}

// Speedup returns `sys` cycles as a speedup over the fixed-size naive
// baseline (the paper's normalization), or 0 when unavailable.
func (r Row) Speedup(c int64) float64 {
	if c == 0 || r.Cycles.NaiveFixed == 0 {
		return 0
	}
	return float64(r.Cycles.NaiveFixed) / float64(c)
}

// BestBaseline is the fastest non-Diospyros implementation.
func (r Row) BestBaseline() int64 {
	best := int64(0)
	for _, c := range []int64{r.Cycles.Naive, r.Cycles.NaiveFixed, r.Cycles.Nature, r.Cycles.Eigen} {
		if c > 0 && (best == 0 || c < best) {
			best = c
		}
	}
	return best
}

// Table1 is the suite pass without baselines: it compiles and simulates
// every admitted kernel, reporting compile time and memory (the paper's
// Table 1 columns) plus e-graph statistics, all read off each compile's
// telemetry trace.
func Table1(opt Options) ([]Row, error) { return pass(opt, false) }

// Figure5 is the suite pass with baselines: every admitted kernel is
// compiled and simulated under all five systems.
func Figure5(opt Options) ([]Row, error) { return pass(opt, true) }

// pass compiles and simulates each admitted kernel with Diospyros and,
// with baselines, runs the naive, fixed-size, Nature and Eigen programs
// on the same inputs.
func pass(opt Options, baselines bool) ([]Row, error) {
	return each(opt, opt.kernels(), func(_ int, c suiteCase) (Row, string, error) {
		res, sres, err := c.compile(opt.ctx(), opt.Opts, "diospyros")
		if err != nil {
			return Row{}, "", err
		}
		tr := res.Trace
		row := Row{Kernel: c.k, Trace: tr, Nodes: res.Saturation.Nodes, Classes: res.Saturation.Classes,
			Validated: res.Validated, Profile: sres.Profile}
		if g, ok := tr.FinalGauge(); ok {
			row.Nodes, row.Classes = g.Nodes, g.Classes
		}
		row.Cycles.Diospyros = sres.Cycles
		line := fmt.Sprintf("%10v %8.1f MB  %7d nodes  %-10s dios=%d", tr.Duration.Round(time.Millisecond),
			float64(tr.AllocBytes)/1e6, row.Nodes, tr.StopReason, sres.Cycles)
		if baselines {
			if err := c.baselines(&row.Cycles); err != nil {
				return Row{}, "", err
			}
			line += fmt.Sprintf(" naive=%d fixed=%d nature=%d eigen=%d", row.Cycles.Naive,
				row.Cycles.NaiveFixed, row.Cycles.Nature, row.Cycles.Eigen)
		}
		return row, line, nil
	})
}

// suiteCase is one kernel of a pass with its seeded inputs and the
// outputs its specification computes from them.
type suiteCase struct {
	k            Kernel
	lifted       *kernel.Lifted
	inputs, want map[string][]float64
}

// each visits ks in order. For each kernel it draws the inputs from
// inputSeed, computes the reference outputs with Spec.Eval and calls run with
// the kernel's index; it prefixes run's error with the kernel ID and sends
// run's progress line.
func each[R any](opt Options, ks []Kernel, run func(i int, c suiteCase) (R, string, error)) ([]R, error) {
	out := make([]R, 0, len(ks))
	for i, k := range ks {
		c := suiteCase{k: k, lifted: k.Lift(), inputs: k.Inputs(rand.New(rand.NewSource(inputSeed)))}
		env := expr.NewEnv()
		maps.Copy(env.Arrays, c.inputs)
		spec, err := c.lifted.Spec.Eval(env)
		if err != nil {
			return nil, fmt.Errorf("%s: spec eval: %w", k.ID, err)
		}
		flat := spec.AsSlice()
		c.want = make(map[string][]float64, len(c.lifted.Outputs))
		for _, d := range c.lifted.Outputs {
			c.want[d.Name], flat = flat[:d.Len()], flat[d.Len():]
		}
		r, line, err := run(i, c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.ID, err)
		}
		out = append(out, r)
		if opt.Progress != nil {
			opt.Progress(fmt.Sprintf("%-20s %s", k.ID, line))
		}
	}
	return out, nil
}

// check compares the outputs of one system's program with the reference
// within 1e-4 relative tolerance. It compares only each output's declared
// prefix, so padded library buffers pass as they are; a missing or short
// output fails.
func check(system string, want, got map[string][]float64) error {
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("%s: missing output %q", system, name)
		}
		if len(g) < len(w) {
			return fmt.Errorf("%s: output %q has %d elements, want %d", system, name, len(g), len(w))
		}
		for i := range w {
			if math.Abs(g[i]-w[i]) > 1e-4*math.Max(1, math.Abs(w[i])) {
				return fmt.Errorf("%s: output %s[%d] = %g, want %g", system, name, i, g[i], w[i])
			}
		}
	}
	return nil
}

// compile compiles the case's kernel with opts, simulates the program on
// the case's inputs and checks its outputs as system's. A compile error
// names a variant's system; the default's already starts "diospyros: ".
func (c suiteCase) compile(ctx context.Context, opts diospyros.Options, system string) (*diospyros.Result, *sim.Result, error) {
	res, err := diospyros.CompileContext(ctx, c.lifted, opts)
	if err != nil && system != "diospyros" {
		err = fmt.Errorf("%s: %w", system, err)
	}
	if err != nil {
		return nil, nil, err
	}
	out, sres, err := res.Run(c.inputs, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s run: %w", system, err)
	}
	return res, sres, check(system, c.want, out)
}

// baselines runs the naive loop nest in both kcc modes, the Eigen-like
// library and, when the vendor library has the kernel, Nature, filling in
// their cycles.
func (c suiteCase) baselines(cy *Cycles) error {
	for _, b := range []struct {
		system, src string
		mode        kcc.Mode
		dst         *int64
	}{
		{"naive-parametric", c.k.NaiveSrc, kcc.Parametric, &cy.Naive},
		{"naive-fixed-size", c.k.NaiveSrc, kcc.FixedSize, &cy.NaiveFixed},
		{"eigen", c.k.EigenSrc, kcc.Parametric, &cy.Eigen},
	} {
		if b.src == "" {
			continue
		}
		rt, err := kcc.Build(b.src, b.mode)
		if err != nil {
			return fmt.Errorf("%s: %w", b.system, err)
		}
		out, sres, err := rt.Run(c.inputs)
		if err != nil {
			return fmt.Errorf("%s: %w", b.system, err)
		}
		if err := check(b.system, c.want, out); err != nil {
			return err
		}
		*b.dst = sres.Cycles
	}
	if c.k.NatureRun == nil {
		return nil
	}
	out, cycles, err := c.k.NatureRun(c.inputs)
	if err != nil {
		return fmt.Errorf("nature: %w", err)
	}
	if err := check("nature", c.want, out); err != nil {
		return err
	}
	cy.Nature = cycles
	return nil
}

// kernelsOf returns the rows' kernels, in order.
func kernelsOf(rows []Row) []Kernel {
	out := make([]Kernel, len(rows))
	for i, r := range rows {
		out[i] = r.Kernel
	}
	return out
}
