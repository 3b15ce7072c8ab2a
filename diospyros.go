// Package diospyros is a search-based vectorizing compiler for small,
// fixed-size linear-algebra kernels on DSPs — a from-scratch Go
// reproduction of "Vectorization for Digital Signal Processors via Equality
// Saturation" (VanHattum et al., ASPLOS 2021).
//
// A kernel is written in the imperative text language (package
// internal/frontend; see CompileSource). The compiler:
//
//  1. lifts the kernel to a mathematical vector DSL by symbolic evaluation;
//  2. searches for vectorizations by equality saturation over an e-graph,
//     using rewrite rules for chunking, lane-wise vectorization with zero
//     padding, and fused multiply–accumulate;
//  3. extracts the cheapest program under an abstract data-movement cost
//     model;
//  4. lowers it through a vector IR (with local value numbering and dead
//     code elimination) to C-with-intrinsics text and to FG3-lite assembly
//     that runs on the bundled cycle-level DSP simulator;
//  5. optionally validates the optimized program against the specification
//     over real arithmetic, by polynomial identity testing at random points
//     modulo a 61-bit prime, with a per-trial error bound.
package diospyros

import (
	"context"
	"errors"
	"fmt"
	"time"

	"diospyros/internal/codegen"
	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
	"diospyros/internal/frontend"
	"diospyros/internal/isa"
	"diospyros/internal/kernel"
	"diospyros/internal/sim"
	"diospyros/internal/telemetry"
	"diospyros/internal/vir"
)

// Options configures a compilation. The zero value gives the defaults used
// throughout the evaluation: width 4, a 3-minute saturation timeout and a
// 10M-node limit (the paper's §5.2 settings), vector rules enabled, full
// associativity/commutativity disabled.
type Options struct {
	// Targets names the machine targets from the isa registry
	// ("fg3lite-4", "fg3lite-8", "scalar", or any width via "fg3lite-<w>").
	// Empty means isa.Default() (fg3lite-4). Several targets share one
	// equality-saturation search whose e-graph holds decompositions for
	// every requested vector width simultaneously, then one extraction per
	// target under that target's cost model. Result.Targets carries the
	// per-target programs (and simulated cycle counts when more than one
	// target is requested). The first entry is the primary target that
	// fills Result.Program/C; repeated names count once.
	Targets []string
	// Timeout bounds equality saturation wall-clock time. 0 means 180 s.
	// Negative means no timeout.
	Timeout time.Duration
	// NodeLimit bounds the e-graph size. 0 means 10,000,000.
	NodeLimit int
	// MaxIterations bounds saturation iterations. 0 means 64.
	MaxIterations int
	// DisableVectorRules removes all vector-introducing rewrites,
	// producing scalar (but CSE-optimized) code — the §5.6 ablation.
	DisableVectorRules bool
	// UseBackoff schedules rules with egg's backoff policy: rules whose
	// match count explodes are temporarily banned. Useful with ACRules.
	UseBackoff bool
	// Validate runs translation validation on the extracted program.
	Validate bool
	// Explain enables rewrite-provenance recording during saturation and
	// attaches the extracted program's rule-chain report to the trace
	// (Result.Trace.Explanation, the -explain CLI flag). Costs one map
	// entry per rule-created e-node; off by default.
	Explain bool
	// CostModel overrides the extraction cost model.
	CostModel cost.Model
	// Progress, when non-nil, receives live iteration/node/class counts
	// while equality saturation runs, readable from other goroutines.
	// Watchdogs (e.g. the serve layer's saturation watchdog) poll it and
	// abort the compile by cancelling the context with a
	// *telemetry.AbortError cause; the abort reason then lands in the
	// trace's StopReason as "aborted:<reason>".
	Progress *egraph.Progress
	// Journal, when non-nil, turns on the flight recorder. The saturation
	// run relays each iteration's gauge through it as the iteration
	// completes (readable live from other goroutines — diosserve's SSE
	// stream), each gauge carries the root's best extractable cost under
	// the primary target's model, and the completed trace carries the
	// extraction decision trace as Result.Trace.Extraction (the -report
	// HTML). Per-rule attribution needs no journal: every trace's
	// iteration gauges carry their rule rows. Create with
	// egraph.NewJournal; nil keeps the recorder off.
	Journal *egraph.Journal

	// ExtraRules appends user-defined syntactic rewrite rules to the
	// search, the paper's §6 extension mechanism. For example, a DSP with
	// a fast reciprocal is taught with
	//
	//	{Name: "div-to-recip", LHS: "(/ ?x ?y)", RHS: "(* ?x (func recip ?y))"}
	//
	// the rewrite engine vectorizes `recip` like any lane-wise operation,
	// and OpCost makes the new instruction attractive to extraction. Each
	// rule needs a name of its own: an empty name, a built-in rule's name
	// or a repeated name fails the compile.
	ExtraRules []RewriteRule
	// OpCost overrides the cost of individual operators during extraction,
	// keyed by DSL head symbol ("VecDiv", "/", "sqrt", ...). User-defined
	// functions are priced per name with "func:NAME" and "VecFunc:NAME".
	OpCost map[string]float64
}

// RewriteRule is a user-supplied syntactic rewrite: two patterns in the
// vector DSL's s-expression syntax with ?variables, applied left to right
// during equality saturation (soundness is the author's responsibility, as
// with the paper's user-extensible rules).
type RewriteRule struct {
	Name     string
	LHS, RHS string
}

// ACRules returns the full associativity/commutativity rules for + and *
// (§3.3), for appending to ExtraRules. As the paper discusses, they blow
// up the e-graph, so no compile uses them by default; the MAC searcher
// recovers the useful reassociations. Their comm-/assoc- names classify
// as reassociation steps in explanations.
func ACRules() []RewriteRule {
	return []RewriteRule{
		{"comm-add", "(+ ?a ?b)", "(+ ?b ?a)"},
		{"comm-mul", "(* ?a ?b)", "(* ?b ?a)"},
		{"assoc-add-r", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"},
		{"assoc-add-l", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)"},
		{"assoc-mul-r", "(* (* ?a ?b) ?c)", "(* ?a (* ?b ?c))"},
		{"assoc-mul-l", "(* ?a (* ?b ?c))", "(* (* ?a ?b) ?c)"},
	}
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 180 * time.Second
	}
	if o.Timeout < 0 {
		o.Timeout = 0
	}
	if o.NodeLimit == 0 {
		o.NodeLimit = 10_000_000
	}
	return o
}

// TargetResult is one machine target's slice of a compilation: the program
// extracted from the shared saturated e-graph under that target's cost
// model, lowered and code-generated for that target's width.
type TargetResult struct {
	Target    string       // registry name (isa.Target.Name)
	Width     int          // vector lanes (1 for scalar)
	Optimized *expr.Expr   // extracted DSL program for this target
	VIR       *vir.Program // optimized low-level IR at this target's width
	Program   *isa.Program // assembly (nil when the target has no backend)
	C         string       // C-with-intrinsics text
	Cost      float64      // abstract extraction cost under this target's model
	Cycles    int64        // simulated cycles on deterministic inputs (0 if not simulated)
	Validated bool         // set when Options.Validate passed for this target
	// ValidationBound is the validator's per-trial error bound when
	// Validated: the chance that one random point fails to tell a wrong
	// program from the spec (validate.Checker.CheckBound).
	ValidationBound float64
}

// Result is a compiled kernel and its artifacts. The top-level Optimized /
// VIR / Program / C fields describe the primary (first requested) target;
// Targets holds every requested target, in request order.
type Result struct {
	Kernel    *kernel.Lifted // the lifted specification
	Optimized *expr.Expr     // extracted DSL program (primary target)
	VIR       *vir.Program   // optimized low-level IR (primary target)
	Program   *isa.Program   // assembly (nil when the primary target has no backend)
	C         string         // C-with-intrinsics text (primary target)
	Targets   []TargetResult // per-target artifacts, request order

	Saturation egraph.Report    // equality-saturation statistics (Table 1)
	Trace      *telemetry.Trace // spans, gauges, and the compile's time and allocation (Table 1)
	Cost       float64          // abstract cost of the extracted program
	Validated  bool             // set when Options.Validate passed
}

// Lift lifts a kernel written in the imperative text language.
func Lift(src string) (*kernel.Lifted, error) {
	k, err := frontend.Parse(src)
	if err != nil {
		return nil, err
	}
	return frontend.Lift(k)
}

// CompileSource compiles a kernel written in the imperative text language.
func CompileSource(src string, opts Options) (*Result, error) {
	return CompileSourceContext(context.Background(), src, opts)
}

// CompileSourceContext is CompileSource under a caller context; see
// CompileContext. The lift stage appears as an extra span in the trace.
func CompileSourceContext(ctx context.Context, src string, opts Options) (*Result, error) {
	return compile(ctx, &compileState{opts: opts.withDefaults(), src: src})
}

// Compile runs the full Diospyros pipeline on a lifted kernel.
func Compile(l *kernel.Lifted, opts Options) (*Result, error) {
	return CompileContext(context.Background(), l, opts)
}

// CompileContext runs the full Diospyros pipeline on a lifted kernel under
// a caller-supplied context. Cancelling the context aborts the compile at
// the next stage boundary — and, during equality saturation, within one
// iteration — returning an error wrapping the context's cancellation cause
// (context.Cause), alongside a partial Result whose Trace records how far
// the compile got. Options.Timeout still bounds only the saturation stage
// (internally a context deadline); when it expires the partially saturated
// e-graph is extracted as before, so budget-limited compiles (Figure 6)
// keep producing code.
func CompileContext(ctx context.Context, l *kernel.Lifted, opts Options) (*Result, error) {
	return compile(ctx, &compileState{opts: opts.withDefaults(), lifted: l})
}

// compile drives the staged pipeline and assembles the Result with its
// telemetry trace. On failure the Result is partial but still carries the
// trace (and any saturation gauges recorded before the failing stage), so
// callers — the serve layer in particular — can report and aggregate
// telemetry for failed and aborted compiles too.
func compile(ctx context.Context, st *compileState) (*Result, error) {
	targets, err := resolveTargets(st.opts)
	if err != nil {
		return nil, fmt.Errorf("diospyros: %w", err)
	}
	st.targets = targets
	rec := telemetry.NewRecorder()
	runErr := compilePipeline().Run(ctx, st, rec)
	rec.Set(func(t *telemetry.Trace) {
		t.Ingest = st.ingest
		t.Iterations = st.report.Iters
		t.StopReason = string(st.report.Reason)
		if st.report.PeakFootprint.Total > 0 {
			// The memory record attaches before the error branch so aborted
			// and failed compiles still report how big the e-graph got;
			// rec.Finish fills its heap fields.
			t.Memory = memoryTraceFromReport(st.report)
		}
		if st.opts.Journal != nil && len(st.extractors) > 0 && st.extractors[0] != nil {
			t.Extraction = extractionTrace(st.extractors[0], st.root)
		}
	})
	if len(st.perTarget) > 0 && st.perTarget[0].VIR != nil {
		rec.Count("vir.instrs", int64(len(st.perTarget[0].VIR.Instrs)))
	}
	if runErr != nil {
		// A watchdog abort arrives as the context-cancellation cause; name
		// it in the trace so aborts are distinguishable from plain
		// cancellations both here and in aggregated metrics.
		var abort *telemetry.AbortError
		if errors.As(runErr, &abort) {
			rec.Set(func(t *telemetry.Trace) { t.StopReason = "aborted:" + abort.Reason })
		}
		trace := rec.Finish()
		return &Result{
			Kernel:     st.lifted,
			Saturation: st.report,
			Trace:      trace,
		}, fmt.Errorf("diospyros: %w", runErr)
	}
	primary := st.perTarget[0]
	if st.opts.Explain {
		e := buildExplanation(st.g, st.extractors[0], st.root, primary.VIR)
		rec.Set(func(t *telemetry.Trace) { t.Explanation = e })
		pn, pu := st.g.ProvenanceStats()
		rec.Count("provenance.nodes", int64(pn))
		rec.Count("provenance.unions", int64(pu))
	}
	trace := rec.Finish()

	return &Result{
		Kernel:     st.lifted,
		Optimized:  primary.Optimized,
		VIR:        primary.VIR,
		Program:    primary.Program,
		C:          primary.C,
		Targets:    st.perTarget,
		Saturation: st.report,
		Trace:      trace,
		Cost:       primary.Cost,
		Validated:  primary.Validated,
	}, nil
}

// resolveTargets materializes opts.Targets from the registry, in request
// order, deduplicated by name; an empty list means isa.Default().
func resolveTargets(opts Options) ([]*isa.Target, error) {
	names := opts.Targets
	if len(names) == 0 {
		return []*isa.Target{isa.Default()}, nil
	}
	seen := map[string]bool{}
	out := make([]*isa.Target, 0, len(names))
	for _, name := range names {
		t, err := isa.LookupTarget(name)
		if err != nil {
			return nil, err
		}
		if seen[t.Name] {
			continue
		}
		seen[t.Name] = true
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, errors.New("no targets requested")
	}
	return out, nil
}

// ErrNoBackend reports that a compilation produced no runnable assembly for
// the requested target (a target registered with HasAssembly false). Match
// it with errors.Is; the concrete *NoBackendError names the target.
var ErrNoBackend = errors.New("diospyros: no assembly backend")

// NoBackendError is the concrete error behind ErrNoBackend.
type NoBackendError struct {
	Target string // registry name of the backend-less target
}

// Error names the backend-less target.
func (e *NoBackendError) Error() string {
	return fmt.Sprintf("diospyros: target %s has no assembly backend", e.Target)
}

// Unwrap makes errors.Is(err, ErrNoBackend) succeed.
func (e *NoBackendError) Unwrap() error { return ErrNoBackend }

// Run executes the primary target's compiled program on the simulator.
func (r *Result) Run(inputs map[string][]float64, funcs map[string]func([]float64) float64) (map[string][]float64, *sim.Result, error) {
	if r.Program == nil {
		name := isa.Default().Name
		if len(r.Targets) > 0 {
			name = r.Targets[0].Target
		}
		return nil, nil, &NoBackendError{Target: name}
	}
	return codegen.Execute(r.Program, inputs, r.Kernel.Inputs, r.Kernel.Outputs, funcs)
}

// RunTarget executes the named target's compiled program on the simulator.
func (r *Result) RunTarget(target string, inputs map[string][]float64, funcs map[string]func([]float64) float64) (map[string][]float64, *sim.Result, error) {
	for i := range r.Targets {
		tr := &r.Targets[i]
		if tr.Target != target {
			continue
		}
		if tr.Program == nil {
			return nil, nil, &NoBackendError{Target: target}
		}
		return codegen.Execute(tr.Program, inputs, r.Kernel.Inputs, r.Kernel.Outputs, funcs)
	}
	return nil, nil, fmt.Errorf("diospyros: result has no target %q", target)
}
