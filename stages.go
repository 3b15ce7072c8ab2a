package diospyros

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"diospyros/internal/codegen"
	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/extract"
	"diospyros/internal/frontend"
	"diospyros/internal/isa"
	"diospyros/internal/kernel"
	"diospyros/internal/lower"
	"diospyros/internal/pipeline"
	"diospyros/internal/rules"
	"diospyros/internal/validate"
	"diospyros/internal/vir"
)

// Stage names of the compile pipeline, in execution order. They label
// telemetry spans in Result.Trace and prefix stage errors.
const (
	StageLift     = "lift"
	StageSaturate = "saturate"
	StageExtract  = "extract"
	StageLower    = "lower"
	StageCodegen  = "codegen"
	StageSimulate = "simulate"
	StageValidate = "validate"
)

// compileState is the shared state threaded through the compile pipeline.
// Each stage reads the fields of earlier stages and fills in its own. The
// per-target stages (extract through validate) iterate over targets/
// perTarget; the first target is the primary one Result describes.
type compileState struct {
	opts Options

	targets []*isa.Target // resolved before the pipeline runs

	src    string         // kernel source text ("" when lifted directly)
	lifted *kernel.Lifted // after lift

	g          *egraph.EGraph // after saturate
	root       egraph.ClassID
	ingest     time.Duration // saturate's AddExpr of the spec
	report     egraph.Report
	extractors []*extract.Extractor // after extract, one per target
	perTarget  []TargetResult       // filled in stage by stage
}

// compilePipeline assembles the paper's five-stage pipeline. The lift
// stage is skipped when the caller hands over an already-lifted kernel;
// validation is skipped unless requested.
func compilePipeline() *pipeline.Pipeline[*compileState] {
	return pipeline.New(
		pipeline.Stage[*compileState]{
			Name: StageLift,
			Skip: func(st *compileState) bool { return st.lifted != nil },
			Run:  stageLift,
		},
		pipeline.Stage[*compileState]{Name: StageSaturate, Run: stageSaturate},
		pipeline.Stage[*compileState]{Name: StageExtract, Run: stageExtract},
		pipeline.Stage[*compileState]{Name: StageLower, Run: stageLower},
		pipeline.Stage[*compileState]{Name: StageCodegen, Run: stageCodegen},
		pipeline.Stage[*compileState]{
			Name: StageSimulate,
			Skip: func(st *compileState) bool { return len(st.targets) < 2 },
			Run:  stageSimulate,
		},
		pipeline.Stage[*compileState]{
			Name: StageValidate,
			Skip: func(st *compileState) bool { return !st.opts.Validate },
			Run:  stageValidate,
		},
	)
}

// stageLift parses and symbolically evaluates kernel source (§3.1).
func stageLift(ctx context.Context, st *compileState) error {
	k, err := frontend.Parse(st.src)
	if err != nil {
		return err
	}
	st.lifted, err = frontend.LiftContext(ctx, k)
	return err
}

// RuleSet returns the rewrite rules a compile under opts saturates with.
// One rule set covers every requested target: a chunk rule per distinct
// vector width populates the shared e-graph with all decompositions at
// once (per-target extraction later picks one via the cost model), and a
// target list without a vector target gets no vector rule. The user's
// ExtraRules follow the built-in rules; an unknown target or a malformed
// extra rule is an error.
func RuleSet(opts Options) ([]egraph.Rewrite, error) {
	targets, err := resolveTargets(opts)
	if err != nil {
		return nil, err
	}
	// Config.Rules ignores width 1 (scalar), duplicates and order.
	var cfg rules.Config
	if !opts.DisableVectorRules {
		for _, t := range targets {
			cfg.Widths = append(cfg.Widths, t.Width)
		}
	}
	ruleSet := cfg.Rules()
	extra := make(map[string]bool, len(opts.ExtraRules))
	for i, r := range opts.ExtraRules {
		// Rule rows and Backoff bans are keyed by name, so names are unique.
		switch {
		case r.Name == "":
			return nil, fmt.Errorf("extra rule %d (%s => %s) has no name", i, r.LHS, r.RHS)
		case rules.Builtin(r.Name):
			return nil, fmt.Errorf("extra rule %q repeats a built-in rule's name", r.Name)
		case extra[r.Name]:
			return nil, fmt.Errorf("extra rule %q repeats an earlier extra rule's name", r.Name)
		}
		extra[r.Name] = true
		rw, err := egraph.ParseRewrite(r.Name, r.LHS, r.RHS)
		if err != nil {
			return nil, err
		}
		ruleSet = append(ruleSet, rw)
	}
	return ruleSet, nil
}

// stageSaturate runs equality saturation (§3.2–3.3). Options.Timeout
// bounds only this stage, expressed as a context deadline inside
// egraph.RunContext; hitting it is not an error (partial e-graphs still
// extract, the Figure 6 behavior). External cancellation is.
func stageSaturate(ctx context.Context, st *compileState) error {
	ruleSet, err := RuleSet(st.opts)
	if err != nil {
		return err
	}
	start := time.Now()
	st.g = egraph.New()
	st.root = st.g.AddExpr(st.lifted.Spec)
	st.ingest = time.Since(start)
	if st.opts.Explain {
		// Enabled after the spec is added so input nodes stay unattributed
		// and every justified node traces back to a rewrite.
		st.g.EnableProvenance()
	}
	limits := egraph.Limits{
		MaxNodes:      st.opts.NodeLimit,
		MaxIterations: st.opts.MaxIterations,
		Timeout:       st.opts.Timeout,
		Progress:      st.opts.Progress,
		Journal:       st.opts.Journal,
	}
	if st.opts.UseBackoff {
		limits.Backoff = &egraph.Backoff{}
	}
	if st.opts.Journal != nil {
		// Arm the best-cost trajectory: after each iteration the journal
		// samples what extraction would pay for the root right now, using
		// the same model the extract stage will use.
		model := resolveCostModel(st.opts, st.targets[0])
		st.opts.Journal.SampleCost(st.root,
			func(g *egraph.EGraph, root egraph.ClassID) (float64, bool) {
				c := extract.New(g, model).Cost(root)
				if math.IsInf(c, 0) {
					return 0, false
				}
				return c, true
			})
	}
	st.report = egraph.RunContext(ctx, st.g, ruleSet, limits)
	if st.report.Reason == egraph.StopCancelled {
		// Prefer the cancellation cause: a watchdog abort
		// (*telemetry.AbortError) stays distinguishable from a plain
		// cancel or deadline all the way up the error chain.
		if err := context.Cause(ctx); err != nil {
			return err
		}
		return context.Canceled
	}
	return nil
}

// resolveCostModel materializes the extraction cost model for one target:
// the explicit override, the scalar-ablation model, or the target-derived
// Diospyros data-movement model (width-gated so wrong-width decompositions
// are unextractable), with per-op overrides applied on top.
func resolveCostModel(opts Options, t *isa.Target) cost.Model {
	model := opts.CostModel
	if model == nil {
		if opts.DisableVectorRules {
			model = cost.ScalarOnly{}
		} else {
			model = cost.ForTarget(t)
		}
	}
	if len(opts.OpCost) > 0 {
		model = cost.Overrides{Base: model, PerOp: opts.OpCost}
	}
	return model
}

// stageExtract picks the cheapest program from the e-graph (§3.4), once per
// target: the saturated e-graph is shared, the cost model is not.
func stageExtract(_ context.Context, st *compileState) error {
	st.extractors = make([]*extract.Extractor, len(st.targets))
	st.perTarget = make([]TargetResult, len(st.targets))
	for i, t := range st.targets {
		ex := extract.New(st.g, resolveCostModel(st.opts, t))
		optimized, err := ex.Expr(st.root)
		if err != nil {
			return fmt.Errorf("extraction failed for %s: %w", t, err)
		}
		st.extractors[i] = ex
		st.perTarget[i] = TargetResult{
			Target:    t.Name,
			Width:     t.Width,
			Optimized: optimized,
			Cost:      ex.Cost(st.root),
		}
	}
	return nil
}

// stageLower lowers each target's extracted program to the vector IR at
// that target's width and runs the backend cleanup (§4): LVN, shuffle
// fusion, DCE, then live-range splitting only when the kernel's register
// pressure exceeds a realistic file (56 of 64 registers, leaving headroom
// for codegen temporaries).
func stageLower(_ context.Context, st *compileState) error {
	for i, t := range st.targets {
		tr := &st.perTarget[i]
		raw, err := lower.Lower(st.lifted.Name, tr.Optimized, t.Width, st.lifted)
		if err != nil {
			return fmt.Errorf("lowering failed for %s: %w", t, err)
		}
		tr.VIR = vir.BoundPressure(vir.Optimize(raw), 56)
	}
	return nil
}

// stageCodegen emits, per target, C-with-intrinsics text and — for targets
// with an assembly backend — simulator assembly.
func stageCodegen(_ context.Context, st *compileState) error {
	for i, t := range st.targets {
		tr := &st.perTarget[i]
		tr.C = codegen.ToC(tr.VIR)
		if t.HasAssembly {
			p, err := codegen.ToISA(tr.VIR, t)
			if err != nil {
				return fmt.Errorf("code generation failed for %s: %w", t, err)
			}
			tr.Program = p
		}
	}
	return nil
}

// stageSimulate runs each target's program on the cycle-level simulator
// with deterministic inputs, recording per-target cycle counts so
// multi-target compiles answer "which machine wins on this kernel" in one
// call. Only runs when more than one target is requested; simulation
// failures (e.g. uninterpreted functions with no binding) leave Cycles 0
// rather than failing the compile.
func stageSimulate(_ context.Context, st *compileState) error {
	inputs := RandomInputs(st.lifted, 1)
	for i := range st.perTarget {
		tr := &st.perTarget[i]
		if tr.Program == nil {
			continue
		}
		if _, sres, err := codegen.Execute(tr.Program, inputs, st.lifted.Inputs, st.lifted.Outputs, nil); err == nil {
			tr.Cycles = sres.Cycles
		}
	}
	return nil
}

// RandomInputs fills every input of l with reproducible random tenths in
// [-10, 10) drawn from seed. It is the one simulation harness: per-target
// cycle counts from a multi-target compile (seed 1), the CLI's -run and
// -report, and diosdiff's simulated cycles all draw their inputs here.
func RandomInputs(l *kernel.Lifted, seed int64) map[string][]float64 {
	r := rand.New(rand.NewSource(seed))
	inputs := map[string][]float64{}
	for _, d := range l.Inputs {
		s := make([]float64, d.Len())
		for i := range s {
			s[i] = float64(int(r.Float64()*200-100)) / 10
		}
		inputs[d.Name] = s
	}
	return inputs
}

// stageValidate runs translation validation (§3.4) on every target's
// extracted program against the lifted specification, which one validator
// evaluates once per point for all targets.
func stageValidate(_ context.Context, st *compileState) error {
	c := validate.NewChecker(st.lifted)
	for i, t := range st.targets {
		tr := &st.perTarget[i]
		bound, err := c.CheckBound(tr.Optimized)
		if err != nil {
			return fmt.Errorf("translation validation failed for %s: %w", t, err)
		}
		tr.Validated, tr.ValidationBound = true, bound
	}
	return nil
}
