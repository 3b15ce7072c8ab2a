// Command diospyros compiles a scalar kernel written in the imperative
// kernel language into vectorized DSP code:
//
//	diospyros [flags] kernel.dios
//
// By default the generated C-with-intrinsics is written to stdout. Flags
// expose the compiler's artifacts and the bundled FG3-lite simulator:
//
//	diospyros -dump-spec kernel.dios     # the lifted specification (a let-bound DAG)
//	diospyros -dump-egraph kernel.dios   # the saturated e-graph (dot)
//	diospyros -dump-vir  kernel.dios     # the optimized vector IR
//	diospyros -dump-asm  kernel.dios     # FG3-lite assembly
//	diospyros -run -seed 7 kernel.dios   # simulate on random inputs
//	diospyros -validate kernel.dios      # translation validation
//	diospyros -no-vector kernel.dios     # §5.6 scalar ablation
//	diospyros -trace kernel.dios         # per-stage pipeline telemetry
//	diospyros -json kernel.dios          # the trace as JSON (no C output)
//	diospyros -explain kernel.dios       # the rule chain justifying the output
//	diospyros -trace-out t.json …        # Chrome trace-event JSON (Perfetto)
//	diospyros -metrics-out m.prom …      # Prometheus text-format metrics
//	diospyros -report r.html …           # self-contained HTML flight report
//	diospyros -ac -backoff …             # AC rules under the backoff scheduler
//	diospyros -targets fg3lite-4,fg3lite-8,scalar kernel.dios
//	                                     # one search, one extraction per target,
//	                                     # with a per-target cost/cycle table
//
// The compile runs under a context cancelled by SIGINT/SIGTERM, so an
// interrupted equality saturation stops within one iteration.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	diospyros "diospyros"
	"diospyros/internal/buildinfo"
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
	"diospyros/internal/telemetry"
)

func main() {
	var (
		out       = flag.String("o", "", "write generated C to this file (default stdout)")
		dumpSpec  = flag.Bool("dump-spec", false, "print the lifted specification and exit")
		dumpDot   = flag.Bool("dump-egraph", false, "print the saturated e-graph in Graphviz dot syntax and exit")
		dumpVIR   = flag.Bool("dump-vir", false, "print the optimized vector IR")
		dumpAsm   = flag.Bool("dump-asm", false, "print FG3-lite assembly")
		doRun     = flag.Bool("run", false, "simulate the kernel on random inputs")
		seed      = flag.Int64("seed", 1, "random seed for -run")
		validate  = flag.Bool("validate", false, "run translation validation")
		noVector  = flag.Bool("no-vector", false, "disable vector rewrite rules (scalar ablation)")
		enableAC  = flag.Bool("ac", false, "add the full associativity/commutativity rules (diospyros.ACRules)")
		backoff   = flag.Bool("backoff", false, "schedule rules with the backoff policy (ban over-matching rules); useful with -ac")
		timeout   = flag.Duration("timeout", 0, "equality saturation timeout (default 180s)")
		nodeLimit = flag.Int("node-limit", 0, "e-graph node limit (default 10,000,000)")
		targets   = flag.String("targets", "", "comma-separated machine targets (e.g. fg3lite-4,fg3lite-8,scalar): one saturation search, one extraction per target; the first is primary")
		stats     = flag.Bool("stats", false, "print compilation statistics to stderr")
		trace     = flag.Bool("trace", false, "print the per-stage pipeline trace to stderr")
		logLevel  = flag.String("log-level", "warn", "structured log level: debug, info, warn, error (debug logs every pipeline stage)")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
		jsonOut   = flag.Bool("json", false, "print the pipeline trace as JSON to stdout instead of C")
		explain   = flag.Bool("explain", false, "record rewrite provenance and print the rule chain justifying the output")
		traceOut  = flag.String("trace-out", "", "write the pipeline trace as Chrome trace-event JSON to this file")
		metricOut = flag.String("metrics-out", "", "write the pipeline trace in Prometheus text format to this file")
		reportOut = flag.String("report", "", "write a self-contained HTML flight report (search, extraction, sim cycles) to this file")
		memProf   = flag.String("mem-profile", "", "write a pprof heap profile captured at the e-graph's node-count peak to this file")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Summary("diospyros"))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: diospyros [flags] kernel.dios")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal(fmt.Errorf("bad -log-level %q", *logLevel))
	}
	if *stats && level > slog.LevelInfo {
		level = slog.LevelInfo // -stats reports through the structured logger
	}
	logger := telemetry.NewLogger(os.Stderr, level, *logJSON)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The logger rides the context, so pipeline stages emit per-stage debug
	// lines tagged with the kernel file being compiled.
	ctx = telemetry.WithLogger(ctx, logger.With("kernel_file", flag.Arg(0)))

	if *dumpSpec {
		if err := writeSpec(os.Stdout, string(src)); err != nil {
			fatal(err)
		}
		return
	}
	opts := diospyros.Options{
		Timeout:            *timeout,
		NodeLimit:          *nodeLimit,
		DisableVectorRules: *noVector,
		UseBackoff:         *backoff,
		Validate:           *validate,
		Explain:            *explain,
	}
	if *enableAC {
		opts.ExtraRules = diospyros.ACRules()
	}
	if *targets != "" {
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				opts.Targets = append(opts.Targets, t)
			}
		}
	}
	if *dumpDot {
		if err := writeEGraph(ctx, os.Stdout, string(src), opts); err != nil {
			fatal(err)
		}
		return
	}
	if *reportOut != "" {
		// The HTML report renders the best-cost trajectory and the
		// extraction decisions, so a report compile runs with the journal on.
		opts.Journal = egraph.NewJournal()
	}
	var profiler *telemetry.MemProfiler
	if *memProf != "" {
		// The runner reports the node count when the saturation ends, with
		// the e-graph at its largest, and the profiler snapshots the heap
		// profile then, so the written profile shows the allocation stacks
		// behind the e-graph's peak.
		profiler = &telemetry.MemProfiler{}
		opts.Progress = &egraph.Progress{OnEnd: profiler.Observe}
	}
	res, err := diospyros.CompileSourceContext(ctx, string(src), opts)
	if profiler != nil {
		snapshot, peak := profiler.Profile()
		if werr := os.WriteFile(*memProf, snapshot, 0o644); werr != nil {
			fatal(werr)
		}
		logger.Info("heap profile written", "file", *memProf, "peak_nodes", peak)
	}
	if err != nil {
		fatal(err)
	}

	if len(res.Targets) > 1 {
		// Multi-target compile: one saturation search, N extractions. The
		// summary table compares the machines; stdout still carries the
		// primary target's C.
		tw := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "target\twidth\tcost\tvir\tasm\tcycles")
		for _, tr := range res.Targets {
			asm := "-"
			if tr.Program != nil {
				asm = fmt.Sprintf("%d", len(tr.Program.Instrs))
			}
			cyc := "-"
			if tr.Cycles > 0 {
				cyc = fmt.Sprintf("%d", tr.Cycles)
			}
			fmt.Fprintf(tw, "%s\t%d\t%.2f\t%d\t%s\t%s\n",
				tr.Target, tr.Width, tr.Cost, len(tr.VIR.Instrs), asm, cyc)
		}
		tw.Flush()
	}
	if *trace {
		fmt.Fprint(os.Stderr, res.Trace.Format())
	}
	if *explain {
		if e := res.Trace.Explanation; e != nil {
			fmt.Fprint(os.Stderr, e.Format())
		}
	}
	if *traceOut != "" {
		raw, err := res.Trace.ChromeTrace(res.Kernel.Name)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*traceOut, raw, 0o644); err != nil {
			fatal(err)
		}
	}
	if *metricOut != "" {
		if err := os.WriteFile(*metricOut, []byte(res.Trace.PrometheusText(res.Kernel.Name)), 0o644); err != nil {
			fatal(err)
		}
	}
	if *reportOut != "" {
		data := telemetry.ReportData{
			Title:    res.Kernel.Name,
			Subtitle: fmt.Sprintf("%s · cost %.2f", flag.Arg(0), res.Cost),
			Trace:    res.Trace,
		}
		// A simulator run supplies the cycle waterfall when the kernel
		// compiled to FG3-lite; a report for an IR-only width still renders
		// the search and extraction sections.
		if res.Program != nil {
			if _, sres, err := res.Run(diospyros.RandomInputs(res.Kernel, *seed), nil); err == nil {
				data.Cycle = diospyros.ReportCycleProfile(sres.Profile)
			} else {
				logger.Warn("report: simulator run failed; omitting cycle waterfall", "err", err)
			}
		}
		f, err := os.Create(*reportOut)
		if err != nil {
			fatal(err)
		}
		if err := telemetry.RenderReport(f, data); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *stats {
		logger.Info("compiled",
			"kernel", res.Kernel.Name,
			"duration", res.Trace.Duration.Round(time.Millisecond),
			"alloc_mb", fmt.Sprintf("%.1f", float64(res.Trace.AllocBytes)/1e6))
		logger.Info("saturation",
			"nodes", res.Saturation.Nodes, "classes", res.Saturation.Classes,
			"iterations", res.Saturation.Iterations, "stopped", string(res.Saturation.Reason))
		logger.Info("extracted", "cost", res.Cost, "vir_instrs", len(res.VIR.Instrs))
		if res.Validated {
			for _, tr := range res.Targets {
				logger.Info("translation validation ok", "target", tr.Target,
					"per_trial_bound", fmt.Sprintf("2^%.1f", math.Log2(tr.ValidationBound)))
			}
		}
	}

	switch {
	case *jsonOut:
		raw, err := res.Trace.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(raw))
		if *out != "" {
			if err := os.WriteFile(*out, []byte(res.C), 0o644); err != nil {
				fatal(err)
			}
		}
	case *dumpVIR:
		fmt.Print(res.VIR.String())
	case *dumpAsm:
		if res.Program == nil {
			fatal(fmt.Errorf("primary target has no assembly backend"))
		}
		fmt.Print(res.Program.Disassemble())
	case *doRun:
		inputs := diospyros.RandomInputs(res.Kernel, *seed)
		outputs, sres, err := res.Run(inputs, nil)
		if err != nil {
			fatal(err)
		}
		var names []string
		for _, d := range res.Kernel.Inputs {
			names = append(names, d.Name)
		}
		for _, n := range names {
			fmt.Printf("input  %s = %v\n", n, inputs[n])
		}
		names = names[:0]
		for _, d := range res.Kernel.Outputs {
			names = append(names, d.Name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("output %s = %v\n", n, outputs[n])
		}
		fmt.Printf("simulated: %d cycles, %d instructions\n", sres.Cycles, sres.Instrs)
	default:
		if *out == "" {
			fmt.Print(res.C)
		} else if err := os.WriteFile(*out, []byte(res.C), 0o644); err != nil {
			fatal(err)
		}
	}
}

// writeSpec lifts src and writes its specification as a let-bound DAG
// (expr.Dump): each shared subterm once, so the text is linear in the
// nodes lift built.
func writeSpec(w io.Writer, src string) error {
	lifted, err := diospyros.Lift(src)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, expr.Dump(lifted.Spec))
	return err
}

// writeEGraph saturates the lifted spec of src with the rule set opts
// selects and prints the e-graph in dot syntax. The search stops after 30
// iterations, at opts.Timeout, and at opts.NodeLimit nodes (100,000 when
// unset, a graph dot can still lay out).
func writeEGraph(ctx context.Context, w io.Writer, src string, opts diospyros.Options) error {
	lifted, err := diospyros.Lift(src)
	if err != nil {
		return err
	}
	ruleSet, err := diospyros.RuleSet(opts)
	if err != nil {
		return err
	}
	lim := egraph.Limits{MaxIterations: 30, MaxNodes: cmp.Or(opts.NodeLimit, 100_000), Timeout: opts.Timeout}
	if opts.UseBackoff {
		lim.Backoff = &egraph.Backoff{}
	}
	g := egraph.New()
	g.AddExpr(lifted.Spec)
	egraph.RunContext(ctx, g, ruleSet, lim)
	_, err = io.WriteString(w, g.ToDot())
	return err
}

// fatal prints err as errorLine renders it and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, errorLine(err))
	os.Exit(1)
}

// errorLine renders err with one "diospyros:" prefix; the library's own
// errors already carry it.
func errorLine(err error) string {
	return "diospyros: " + strings.TrimPrefix(err.Error(), "diospyros: ")
}
