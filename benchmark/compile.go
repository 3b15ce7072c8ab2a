package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"syscall"
	"time"

	diospyros "diospyros"
	"diospyros/internal/isa"
)

// A run sets its workload up at least setupRounds times and for at least
// setupMin; setup_s is the median round, so one slow round does not move
// it, and a workload whose set-up is quick repeats it enough to be steady.
const (
	setupRounds = 3
	setupMin    = time.Second
)

// runConfig is what one workload run is asked to do.
type runConfig struct {
	root    string // repository root; testdata/ is read from here
	seed    int64
	seconds float64 // measuring time
	// passes, when positive, measures this many passes instead of running
	// for seconds. Either way the timed loop runs at least minSamples ops.
	passes   int
	trace    bool   // run the traced per-layer passes instead of the timed loop
	serveBin string // diosserve binary (serve-mix)
}

// done reports whether a loop that has run passes passes and ops ops since
// start has measured enough; it runs at least one pass and minOps ops.
func (c runConfig) done(start time.Time, passes, ops, minOps int) bool {
	if passes < 1 || ops < minOps {
		return false
	}
	if c.passes > 0 {
		return passes >= c.passes
	}
	return time.Since(start).Seconds() >= c.seconds
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// kernelRow is one program's line of the result sheet: informational,
// never gated.
type kernelRow struct {
	Kernel   string     `json:"kernel"`
	N        int        `json:"n"`
	MedianMS float64    `json:"median_ms"`
	Q1MS     float64    `json:"q1_ms"`
	Q3MS     float64    `json:"q3_ms"`
	MaxMS    float64    `json:"max_ms"`
	Programs []artifact `json:"programs,omitempty"`
}

// result is what a workload run reports.
type result struct {
	Attempted int                `json:"-"`
	Failed    int                `json:"-"`
	Metrics   map[string]metric  `json:"-"`
	Kernels   []kernelRow        `json:"kernels,omitempty"`
	Detail    map[string]float64 `json:"detail,omitempty"` // numbers outside BENCHMARK.json
	Errors    []string           `json:"errors,omitempty"` // the first few failures
	spans     []span
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, Detail: map[string]float64{}}
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{v, unit} }

// op counts one attempted op, and a failure when err is non-nil.
func (r *result) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Errors) < 5 {
			r.Errors = append(r.Errors, err.Error())
		}
	}
}

// compileWorkload is a closed loop with one client: one goroutine calls the
// compiler back to back, each call waiting for the previous one.
type compileWorkload struct {
	opts diospyros.Options
	// cases builds the kernels and one pass's op list: indices into the
	// cases, where a repeated index weights that kernel.
	cases func(root string, seed int64) ([]kernelCase, []int, error)
}

// compileSet is a set-up compile workload: its kernels and the verified
// artifacts of the warm pass (nil where the warm compile failed).
type compileSet struct {
	w      compileWorkload
	cases  []kernelCase
	pass   []int
	golden [][]artifact
	errs   []error
}

func (w compileWorkload) compile(ctx context.Context, c *kernelCase) (*diospyros.Result, error) {
	if c.lifted != nil {
		return diospyros.CompileContext(ctx, c.lifted, w.opts)
	}
	return diospyros.CompileSourceContext(ctx, c.src, w.opts)
}

// setUp builds the kernels and references and runs one warm pass, which
// simulates and checks every program and keeps it as the op's artifact.
func (w compileWorkload) setUp(ctx context.Context, cfg runConfig) (*compileSet, error) {
	cases, pass, err := w.cases(cfg.root, cfg.seed)
	if err != nil {
		return nil, err
	}
	set := &compileSet{w: w, cases: cases, pass: pass,
		golden: make([][]artifact, len(cases)), errs: make([]error, len(cases))}
	for i := range cases {
		res, err := w.compile(ctx, &cases[i])
		if err == nil {
			set.golden[i], err = verify(&cases[i], res)
		}
		set.errs[i] = err
	}
	return set, ctx.Err()
}

// check reports why an op's result is not the verified artifact, if it
// is not.
func (s *compileSet) check(i int, res *diospyros.Result, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", s.cases[i].name, err)
	case s.golden[i] == nil:
		return fmt.Errorf("warm compile: %w", s.errs[i])
	case !sameArtifacts(res, s.golden[i]):
		return fmt.Errorf("%s: artifacts differ from the verified warm compile", s.cases[i].name)
	}
	return nil
}

// targets resolves the workload's machine targets.
func (w compileWorkload) targets() ([]*isa.Target, error) {
	names := w.opts.Targets
	if len(names) == 0 {
		return []*isa.Target{isa.Default()}, nil
	}
	out := make([]*isa.Target, len(names))
	for i, n := range names {
		t, err := isa.LookupTarget(n)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// setUpRounds sets the workload up as often as setupRounds and setupMin
// ask and returns the last round's set and the median round's seconds.
// release, if not nil, disposes of each earlier round's set outside the
// timing.
func setUpRounds[T any](setUp func() (T, error), release func(T)) (T, float64, error) {
	var (
		set   T
		err   error
		times []float64
		total time.Duration
	)
	for len(times) < setupRounds || total < setupMin {
		if len(times) > 0 && release != nil {
			release(set)
		}
		start := time.Now()
		if set, err = setUp(); err != nil {
			return set, 0, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
	}
	return set, median(times), nil
}

// runCompile runs a compile workload: set-up, then either the timed loop or,
// with cfg.trace, the traced per-layer passes.
func runCompile(ctx context.Context, w compileWorkload, cfg runConfig) (*result, error) {
	res := newResult()
	set, setupS, err := setUpRounds(func() (*compileSet, error) { return w.setUp(ctx, cfg) }, nil)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		res.Detail["raw.setup_s"] = setupS
		return res, runLayers(ctx, set, cfg, res, nil)
	}
	set.timedLoop(ctx, cfg, res, setupS)
	set.report(res)
	res.set("peak_rss_mb", "MB", selfPeakRSSMB())
	return res, ctx.Err()
}

// timedLoop runs whole passes, each in a fresh seeded order, until cfg says
// enough, and records every op's latency. Whole passes keep each kernel's
// share of the samples fixed, so a percentile always falls at the same
// place in the same kernel's distribution.
func (s *compileSet) timedLoop(ctx context.Context, cfg runConfig, res *result, setupS float64) {
	rng := rand.New(rand.NewSource(cfg.seed))
	lat := make([][]float64, len(s.cases))
	var all []float64
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	alloc0 := allocs[0].Value.Uint64()
	pr := newProbe()
	start := time.Now()
	ops := 0
	for passes := 0; !cfg.done(start, passes, ops, minSamples) && ctx.Err() == nil; passes++ {
		for _, j := range rng.Perm(len(s.pass)) {
			i := s.pass[j]
			t0 := time.Now()
			r, err := s.w.compile(ctx, &s.cases[i])
			ms := float64(time.Since(t0)) / float64(time.Millisecond)
			err = s.check(i, r, err)
			res.op(err)
			ops++
			if err == nil {
				lat[i] = append(lat[i], ms)
				all = append(all, ms)
			}
			pr.maybe()
		}
	}
	elapsed := (time.Since(start) - pr.total).Seconds()
	metrics.Read(allocs)

	res.set("alloc_mb_per_op", "MB", float64(allocs[0].Value.Uint64()-alloc0)/1e6/float64(ops))
	var medians []float64
	for i, xs := range lat {
		if len(xs) == 0 {
			continue
		}
		medians = append(medians, median(xs))
		res.Kernels = append(res.Kernels, latencyRow(s.cases[i].name, xs, s.golden[i]))
	}
	setTimings(res, pr, setupS, float64(len(all))/elapsed, all, medians)
}

// setTimings records the timing metrics in calibrated units (see
// calibrate.go) and their wall-clock values in the detail line as raw.*.
// lat holds every successful op's latency and medians each kernel's (or
// request class's) median latency, in ms.
func setTimings(res *result, pr *probe, setupS, opsPerS float64, lat, medians []float64) {
	cal := pr.ms()
	res.Detail["probe_ms"] = cal
	res.Detail["probe_runs"] = float64(len(pr.times))
	timing := func(name, unit string, v float64) {
		res.Detail["raw."+name] = v
		res.set(name, unit, v/cal)
	}
	timing("setup_s", "s", setupS)
	timing("latency_ms_geomean", "ms", geomean(medians))
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_ms_p50", 0.5}, {"latency_ms_p90", 0.9}} {
		if v, ok := percentile(lat, p.q); ok {
			timing(p.name, "ms", v)
		}
	}
	res.Detail["raw.ops_per_s"] = opsPerS
	res.set("ops_per_s", "1/s", opsPerS*cal)
}

// report records the deterministic code-quality metrics of the verified
// programs: one (kernel, target) pair per program.
func (s *compileSet) report(res *result) {
	var cycles, instrs []float64
	for _, g := range s.golden {
		for _, a := range g {
			cycles = append(cycles, float64(a.Cycles))
			instrs = append(instrs, float64(a.Instrs))
		}
	}
	res.set("cycles_geomean", "cycles", geomean(cycles))
	res.set("code_instrs_geomean", "count", geomean(instrs))
}

func latencyRow(name string, xs []float64, programs []artifact) kernelRow {
	q1, q3 := quartiles(xs)
	s := sortedCopy(xs)
	return kernelRow{Kernel: name, N: len(xs), MedianMS: median(xs),
		Q1MS: q1, Q3MS: q3, MaxMS: s[len(s)-1], Programs: programs}
}

// selfPeakRSSMB is this process's peak resident set size (VmHWM) in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
