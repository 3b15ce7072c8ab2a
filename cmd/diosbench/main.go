// Command diosbench regenerates every table and figure of the paper's
// evaluation (§5) against the FG3-lite simulated DSP:
//
//	diosbench -all          # everything below, in order
//	diosbench -table1       # Table 1: compile time and memory
//	diosbench -figure5      # Figure 5: kernel speedups vs. baselines
//	diosbench -figure6      # Figure 6: saturation-budget ablation
//	diosbench -motivating   # §2 motivating-example numbers
//	diosbench -expert       # §5.4 expert-kernel comparison
//	diosbench -ablation     # §5.6 vectorization ablation
//	diosbench -cost-ablation # extraction cost-model ablation
//	diosbench -theia        # §5.7 Theia case study
//	diosbench -validate     # translation validation of all 21 kernels
//
// Use -only <substrings> (comma-separated) to restrict kernel-suite
// experiments, and -v for per-kernel progress (structured log lines;
// -log-level debug additionally traces every pipeline stage, -log-json
// switches the lines to JSON). -trace adds the per-kernel
// pipeline stage tables to the Table 1 output; -json emits Table 1 rows
// (with traces) as JSON; -profile prints each kernel's simulated cycle
// breakdown. -trace-out/-metrics-out export all compilation traces as
// Chrome trace-event JSON / Prometheus text, and -bench-json writes the
// -json rows to a file (the CI smoke job's artifact, which cmd/diosdiff
// reads and attributes to rules). One suite pass feeds Table 1, Figure 5,
// the §2 numbers, both ablations and the exports, so each kernel's
// default configuration compiles once; -validate is a pass of its own.
// -mem-profile FILE captures a pprof heap profile at that pass's e-graph
// node-count peak. diosbench gates nothing: the exact per-kernel cycle
// and peak-bytes record is the artifact ledger, testdata/artifacts.golden,
// checked by go test -run TestArtifactLedger. Experiments run under a context cancelled by
// SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	diospyros "diospyros"
	"diospyros/internal/bench"
	"diospyros/internal/buildinfo"
	"diospyros/internal/egraph"
	"diospyros/internal/telemetry"
)

func main() {
	var (
		all        = flag.Bool("all", false, "run every experiment")
		table1     = flag.Bool("table1", false, "Table 1: compile time and memory")
		figure5    = flag.Bool("figure5", false, "Figure 5: kernel speedups")
		figure6    = flag.Bool("figure6", false, "Figure 6: timeout ablation")
		motivating = flag.Bool("motivating", false, "§2 motivating example")
		expertCmp  = flag.Bool("expert", false, "§5.4 expert comparison")
		ablation   = flag.Bool("ablation", false, "§5.6 vectorization ablation")
		costAbl    = flag.Bool("cost-ablation", false, "cost-model design-choice ablation")
		theiaCase  = flag.Bool("theia", false, "§5.7 Theia case study")
		validate   = flag.Bool("validate", false, "translation validation of the suite")
		targets    = flag.String("targets", "", "comma-separated machine targets (e.g. fg3lite-4,fg3lite-8,scalar): compile the suite once per kernel, extract per target, and print a per-kernel cycle table")
		only       = flag.String("only", "", "restrict suite experiments to kernels whose ID contains any comma-separated substring")
		verbose    = flag.Bool("v", false, "per-kernel progress (structured log lines on stderr)")
		logLevel   = flag.String("log-level", "warn", "structured log level: debug, info, warn, error (debug logs every pipeline stage)")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
		timeout    = flag.Duration("timeout", 0, "equality saturation timeout (default: paper's 180s)")
		trace      = flag.Bool("trace", false, "print per-kernel pipeline stage tables with Table 1")
		jsonOut    = flag.Bool("json", false, "emit Table 1 rows (with traces) as JSON")
		profile    = flag.Bool("profile", false, "print per-kernel simulated cycle profiles (hotspots, slots, stalls)")
		traceOut   = flag.String("trace-out", "", "write all kernels' compilation traces as Chrome trace-event JSON to this file")
		metricOut  = flag.String("metrics-out", "", "write all kernels' compilation metrics in Prometheus text format to this file")
		benchJSON  = flag.String("bench-json", "", "write the -json rows (cycles, profiles and traces) to this file")
		memProfile = flag.String("mem-profile", "", "write a pprof heap profile captured at the suite's e-graph node-count peak to this file")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Summary("diosbench"))
		return
	}

	exporting := *traceOut != "" || *metricOut != "" || *benchJSON != "" || *profile || *memProfile != ""
	if !(*all || *table1 || *figure5 || *figure6 || *motivating || *expertCmp ||
		*ablation || *costAbl || *theiaCase || *validate ||
		*targets != "" || exporting) {
		flag.Usage()
		os.Exit(2)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "diosbench: bad -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	if *verbose && level > slog.LevelInfo {
		level = slog.LevelInfo // -v reports progress through the structured logger
	}
	logger := telemetry.NewLogger(os.Stderr, level, *logJSON)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Pipeline stages read the logger off the context, so -log-level debug
	// traces every stage of every kernel compile.
	ctx = telemetry.WithLogger(ctx, logger)

	opts := diospyros.Options{Timeout: *timeout}
	progress := func(string) {}
	if *verbose {
		progress = func(s string) { logger.Info("progress", "detail", s) }
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "diosbench:", err)
		os.Exit(1)
	}

	// One suite pass serves Table 1, Figure 5, the §2 numbers, both
	// ablations and the exports; the baselines run only when a consumer
	// of their cycles asked for it.
	needF5 := *all || *figure5 || *motivating
	baselines := needF5 || *ablation || *costAbl
	var rows []bench.Row
	if baselines || *table1 || exporting {
		if needF5 {
			fmt.Println("== Figure 5: compiling and simulating the 21-kernel suite ==")
		}
		pass := bench.Options{Opts: opts, Only: *only, Progress: progress, Context: ctx}
		var profiler *telemetry.MemProfiler
		if *memProfile != "" {
			// One Progress feeds every kernel's saturation run in turn, so a
			// single profiler captures the heap at the suite-wide node peak.
			profiler = &telemetry.MemProfiler{}
			pass.Opts.Progress = &egraph.Progress{OnEnd: profiler.Observe}
		}
		var err error
		if baselines {
			rows, err = bench.Figure5(pass)
		} else {
			rows, err = bench.Table1(pass)
		}
		if profiler != nil {
			snapshot, peak := profiler.Profile()
			if werr := os.WriteFile(*memProfile, snapshot, 0o644); werr != nil {
				fail(werr)
			}
			fmt.Fprintf(os.Stderr, "diosbench: heap profile at %d-node peak written to %s\n", peak, *memProfile)
		}
		if err != nil {
			fail(err)
		}
	}

	if *all || *table1 || exporting {
		switch {
		case *jsonOut:
			raw, err := bench.Table1JSON(rows)
			if err != nil {
				fail(err)
			}
			fmt.Println(string(raw))
		case *all || *table1:
			fmt.Println("== Table 1 ==")
			fmt.Println(bench.FormatTable1(rows))
			if *trace {
				fmt.Print(bench.FormatTable1Traces(rows))
			}
		}
		if *profile {
			fmt.Print(bench.FormatCycleProfiles(rows))
		}
		if *traceOut != "" {
			raw, err := telemetry.ChromeTraces(bench.NamedTraces(rows))
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(*traceOut, raw, 0o644); err != nil {
				fail(err)
			}
		}
		if *metricOut != "" {
			text := telemetry.PrometheusTexts(bench.NamedTraces(rows))
			if err := os.WriteFile(*metricOut, []byte(text), 0o644); err != nil {
				fail(err)
			}
		}
		if *benchJSON != "" {
			raw, err := bench.Table1JSON(rows)
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(*benchJSON, raw, 0o644); err != nil {
				fail(err)
			}
		}
	}
	if *all || *figure5 {
		fmt.Println(bench.FormatFigure5(rows))
	}
	if *all || *motivating {
		fmt.Println(bench.FormatMotivating(rows))
	}
	if *all || *figure6 {
		fmt.Println("== Figure 6 ==")
		rows, err := bench.Figure6Timeouts(nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatFigure6(rows))
	}
	if *all || *expertCmp {
		res, err := bench.ExpertContext(ctx, opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatExpert(res))
	}
	if *all || *ablation {
		fmt.Println("== §5.6 ablation: compiling the suite without vector rules ==")
		abl, sum, err := bench.Ablation(rows, bench.Options{Opts: opts, Progress: progress, Context: ctx})
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatAblation(abl, sum))
	}
	if *all || *costAbl {
		fmt.Println("== cost-model ablation: compiling the suite under a uniform cost ==")
		costRows, err := bench.CostModelAblation(rows, bench.Options{Opts: opts, Progress: progress, Context: ctx})
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatCostAblation(costRows))
	}
	if *all || *theiaCase {
		res, err := bench.Theia()
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTheia(res))
	}
	if *targets != "" {
		var names []string
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				names = append(names, t)
			}
		}
		fmt.Printf("== per-target cycles: one search, %d extractions per kernel ==\n", len(names))
		topts := opts
		topts.Targets = names
		trows, err := bench.TargetTable(bench.Options{Opts: topts, Only: *only, Progress: progress, Context: ctx})
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTargetTable(trows))
	}
	if *all || *validate {
		fmt.Println("== translation validation (§3.4) ==")
		start := time.Now()
		vopts := opts
		vopts.Validate = true
		vrows, err := bench.Table1(bench.Options{Opts: vopts, Only: *only, Progress: progress, Context: ctx})
		if err != nil {
			fail(err)
		}
		ok := 0
		for _, r := range vrows {
			if r.Validated {
				ok++
			}
		}
		fmt.Printf("validated %d/%d kernels in %v\n\n", ok, len(vrows), time.Since(start).Round(time.Millisecond))
	}
}
