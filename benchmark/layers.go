package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	diospyros "diospyros"
)

// chainLayers are the span names runChain records, in pipeline order.
var chainLayers = []string{"frontend", "rules", "egraph", "extract", "lower", "vir", "codegen", "sim", "validate"}

// failingLayers are the layers whose calls can return an error; each
// reports <layer>.errors.
var failingLayers = []string{"frontend", "egraph", "extract", "lower", "codegen", "sim", "validate"}

// runLayers is the traced run. Each round is one pass of the workload in a
// seeded order, and each op of it runs three ways: through
// diospyros.Compile (the op as users run it), through the layer chain
// untraced, and through the chain traced. Busy times are the median over
// rounds of a layer's self time per op; the untraced chain prices the
// tracing itself, and Compile prices what the pipeline adds around the
// layers. sv carries the serve-layer numbers on serve-mix and is nil
// elsewhere.
func runLayers(ctx context.Context, s *compileSet, cfg runConfig, res *result, sv *serveStats) error {
	targets, err := s.w.targets()
	if err != nil {
		return err
	}
	ops := make([]chainOp, len(s.cases))
	for i, c := range s.cases {
		ops[i] = chainOp{name: c.name, src: c.src, lifted: c.lifted, targets: targets, validate: s.w.opts.Validate}
	}
	tr := newTracer()
	rng := rand.New(rand.NewSource(cfg.seed))
	n := len(s.pass)
	var compileMS, plainMS, tracedMS []float64
	var tracedPasses [][2]int // span ID ranges of the traced passes
	sinceMS := func(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

	// Every order of the three ways, taken in turn: each way follows each
	// other way equally often, so after-effects of a call (such as GC debt)
	// fall on all three alike.
	orders := [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	step := 0
	start := time.Now()
	for rounds := 0; !cfg.done(start, rounds, rounds, 1) && ctx.Err() == nil; rounds++ {
		var wall [3]float64 // Compile, untraced chain, traced chain
		first := len(tr.spans)
		for _, j := range rng.Perm(n) {
			i := s.pass[j]
			step++
			// The three ways run back to back, so the machine's drift
			// falls on all three alike.
			for _, way := range orders[step%len(orders)] {
				t0 := time.Now()
				var err error
				if way == 0 {
					var r *diospyros.Result
					r, err = s.w.compile(ctx, &s.cases[i])
					wall[way] += sinceMS(t0)
					err = s.check(i, r, err)
				} else {
					t := tr
					if way == 1 {
						t = nil
					}
					var out []chainTarget
					out, err = runChain(ctx, t, ops[i])
					wall[way] += sinceMS(t0)
					err = s.checkChain(i, out, err)
				}
				res.op(err)
			}
		}
		compileMS = append(compileMS, wall[0])
		plainMS = append(plainMS, wall[1])
		tracedMS = append(tracedMS, wall[2])
		tracedPasses = append(tracedPasses, [2]int{first, len(tr.spans)})
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	self, selfAlloc := selfTimes(tr.spans)
	busyMS := map[string][]float64{}
	allocB := map[string][]float64{}
	errs := map[string]int{}
	for _, p := range tracedPasses {
		ms, b := map[string]float64{}, map[string]float64{}
		for id := p[0]; id < p[1]; id++ {
			sp := tr.spans[id]
			ms[sp.Name] += float64(self[id]) / 1e6
			b[sp.Name] += float64(selfAlloc[id])
			if sp.Err {
				errs[sp.Name]++
			}
		}
		for _, l := range append([]string{"op"}, chainLayers...) {
			busyMS[l] = append(busyMS[l], ms[l])
			allocB[l] = append(allocB[l], b[l])
		}
	}
	perOp := func(xs []float64) float64 { return median(xs) / float64(n) }
	tracedOps := float64(len(tracedPasses) * n)
	count := func(name string) float64 { return tr.counts[name] / tracedOps }
	ratio := func(a, b string) float64 {
		if tr.counts[b] == 0 {
			return 0
		}
		return tr.counts[a] / tr.counts[b]
	}

	accounted := perOp(busyMS["op"]) // the chain's own glue between layers
	for _, l := range chainLayers {
		if l == "rules" {
			res.set("rules.busy_us", "us", perOp(busyMS[l])*1e3)
		} else {
			res.set(l+".busy_ms", "ms", perOp(busyMS[l]))
		}
		accounted += perOp(busyMS[l])
	}
	for _, l := range failingLayers {
		res.set(l+".errors", "count", float64(errs[l]))
	}
	res.set("frontend.alloc_kb", "KB", perOp(allocB["frontend"])/1e3)
	res.set("frontend.spec_nodes", "count", count("frontend.spec_nodes"))
	res.set("rules.count", "count", count("rules.count"))
	res.set("egraph.alloc_mb", "MB", perOp(allocB["egraph"])/1e6)
	for _, c := range []string{"iterations", "nodes", "classes", "applied"} {
		res.set("egraph."+c, "count", count("egraph."+c))
	}
	res.set("egraph.applied_per_match", "ratio", ratio("egraph.applied", "egraph.matches"))
	res.set("egraph.peak_mb", "MB", count("egraph.peak_bytes")/1e6)
	res.set("extract.alloc_mb", "MB", perOp(allocB["extract"])/1e6)
	res.set("extract.calls", "count", count("extract.calls"))
	res.set("lower.raw_instrs", "count", count("lower.raw_instrs"))
	res.set("vir.instrs", "count", count("vir.instrs"))
	res.set("vir.kept_ratio", "ratio", ratio("vir.instrs", "lower.raw_instrs"))
	res.set("codegen.asm_instrs", "count", count("codegen.asm_instrs"))
	res.set("sim.cycles", "count", count("sim.cycles"))
	res.set("validate.alloc_mb", "MB", perOp(allocB["validate"])/1e6)

	opMS := median(compileMS) / float64(n)
	overhead := opMS - median(plainMS)/float64(n)
	res.set("pipeline.overhead_ms", "ms", overhead)
	res.set("trace.overhead_frac", "ratio", median(tracedMS)/median(plainMS)-1)
	res.Detail["pipeline.op_ms"] = opMS
	res.Detail["trace.accounted_frac"] = (accounted + overhead) / opMS
	res.Detail["trace.rounds"] = float64(len(tracedPasses))
	res.Detail["pass_ms.compile"] = median(compileMS)
	res.Detail["pass_ms.untraced"] = median(plainMS)
	res.Detail["pass_ms.traced"] = median(tracedMS)

	if sv == nil {
		sv = &serveStats{}
	}
	sv.report(res.set)
	res.spans = tr.spans
	return nil
}

// checkChain reports why the chain's artifacts for case i differ from the
// verified ones, if they do.
func (s *compileSet) checkChain(i int, out []chainTarget, err error) error {
	g := s.golden[i]
	switch {
	case err != nil:
		return fmt.Errorf("%s: chain: %w", s.cases[i].name, err)
	case g == nil:
		return fmt.Errorf("warm compile: %w", s.errs[i])
	case len(out) != len(g):
		return fmt.Errorf("%s: chain made %d programs, want %d", s.cases[i].name, len(out), len(g))
	}
	for t := range out {
		if out[t].Prog == nil || out[t].C != g[t].C || out[t].Prog.Disassemble() != g[t].Asm {
			return fmt.Errorf("%s: chain artifacts for %s differ from diospyros.Compile's", s.cases[i].name, g[t].Target)
		}
	}
	return nil
}
