package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func costOf(c float64) *float64 { return &c }

// sampleTrace builds a deterministic, fully-populated trace exercising
// every exporter field.
func sampleTrace() *Trace {
	return &Trace{
		Stages: []Span{
			{Name: "lift", Start: 0, Duration: 2 * time.Millisecond, AllocBytes: 1 << 20},
			{Name: "saturate", Start: 2 * time.Millisecond, Duration: 10 * time.Millisecond, AllocBytes: 8 << 20},
			{Name: "extract", Start: 12 * time.Millisecond, Duration: time.Millisecond, AllocBytes: 1 << 10},
		},
		Iterations: []IterationGauge{
			{Iteration: 1, Nodes: 100, Classes: 40, Matches: 12, Applied: 9,
				Rules: []RuleStep{
					{Rule: "assoc-add", Matches: 40, Duration: time.Millisecond, BannedUntil: 4, Bans: 1},
					{Rule: "vec-mac", Matches: 12, Applied: 9, NewNodes: 60, Duration: 3 * time.Millisecond},
				},
				Duration: 4 * time.Millisecond, Index: 200 * time.Microsecond, Match: 2 * time.Millisecond,
				Apply: time.Millisecond, Rebuild: 500 * time.Microsecond,
				Bytes: 48 << 10, BestCost: costOf(120)},
			{Iteration: 2, Nodes: 180, Classes: 66, Matches: 3, Applied: 1,
				Rules:    []RuleStep{{Rule: "vec-mac", Matches: 3, Applied: 1, NewNodes: 20}},
				Duration: 6 * time.Millisecond, Index: 300 * time.Microsecond, Match: 3 * time.Millisecond,
				Apply: 1500 * time.Microsecond, Rebuild: time.Millisecond,
				Bytes: 80 << 10, BestCost: costOf(96)},
		},
		Memory: &MemoryTrace{
			PeakBytes:     80 << 10,
			PeakIteration: 2,
			Components: []MemoryComponent{
				{Name: "e-nodes", Entries: 180, Bytes: 40 << 10},
				{Name: "hashcons", Entries: 180, Bytes: 24 << 10},
				{Name: "union-find", Entries: 200, Bytes: 16 << 10},
			},
			HeapPeakBytes: 24 << 20,
			HeapSamples:   3,
			GCCycles:      2,
			GCPauseTotal:  120 * time.Microsecond,
		},
		Counters:   map[string]int64{"provenance.nodes": 10, "vir.instrs": 7},
		StopReason: "saturated",
		Explanation: &Explanation{
			Steps: []ExplanationStep{
				{Rule: "vec-mac", Kind: KindVectorization, Iteration: 1, Nodes: 3, Example: "(VecMAC c1 c2 c3)"},
				{Rule: "lower-shuffle", Kind: KindShuffle, Nodes: 2, Example: "%1 = shuffle %0, [0 0 3 3]"},
			},
			InputNodes:     8,
			RewrittenNodes: 5,
		},
		Duration:   14 * time.Millisecond,
		AllocBytes: 10 << 20,
	}
}

// chromeParents checks that the complete events of a Chrome trace nest
// properly — on each (pid, tid) lane, every X event lies inside the
// nearest earlier event that encloses it, or overlaps none — and returns
// each event's parent name ("" at top level), keyed "tid/name".
func chromeParents(t *testing.T, events []map[string]any) map[string]string {
	t.Helper()
	type slice struct {
		name       string
		start, end float64
	}
	lanes := map[[2]float64][]slice{}
	for _, ev := range events {
		if ev["ph"] != "X" {
			continue
		}
		ts, dur := ev["ts"].(float64), ev["dur"].(float64)
		lane := [2]float64{ev["pid"].(float64), ev["tid"].(float64)}
		lanes[lane] = append(lanes[lane], slice{ev["name"].(string), ts, ts + dur})
	}
	const eps = 1e-3 // µs; float rounding of ts+dur
	parents := map[string]string{}
	for lane, ss := range lanes {
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].start != ss[j].start {
				return ss[i].start < ss[j].start
			}
			return ss[i].end > ss[j].end
		})
		var stack []slice
		for _, s := range ss {
			for len(stack) > 0 && s.start >= stack[len(stack)-1].end-eps {
				stack = stack[:len(stack)-1]
			}
			key := fmt.Sprintf("%g/%s", lane[1], s.name)
			parents[key] = ""
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if s.end > top.end+eps {
					t.Errorf("lane %v: %s [%g, %g] straddles %s [%g, %g]",
						lane, s.name, s.start, s.end, top.name, top.start, top.end)
				}
				parents[key] = top.name
			}
			stack = append(stack, s)
		}
	}
	return parents
}

// TestChromeTraceStructure validates the -trace-out artifact structurally:
// the JSON-object form with a traceEvents array of well-formed events —
// what Perfetto and chrome://tracing require to load the file — on one
// lane whose slices nest as the phase path does: iterations under
// saturate, loop steps under their iteration.
func TestChromeTraceStructure(t *testing.T) {
	raw, err := sampleTrace().ChromeTrace("matmul2")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	var completes, metas, instants int
	names := map[string]bool{}
	for _, ev := range f.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		names[name] = true
		if name == "" {
			t.Errorf("event without name: %v", ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Errorf("event without pid: %v", ev)
		}
		switch ph {
		case "X":
			completes++
			ts, tsOK := ev["ts"].(float64)
			dur, durOK := ev["dur"].(float64)
			if !tsOK || !durOK || ts < 0 || dur <= 0 {
				t.Errorf("complete event with bad ts/dur: %v", ev)
			}
		case "M":
			metas++
			args, _ := ev["args"].(map[string]any)
			if _, ok := args["name"].(string); !ok {
				t.Errorf("metadata event without args.name: %v", ev)
			}
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", ph)
		}
	}
	// 3 stages + 2 iterations + 2×4 loop steps complete events; process
	// and thread name; one counters instant.
	if completes != 13 || metas != 2 || instants != 1 {
		t.Errorf("events = %d X, %d M, %d i; want 13, 2, 1", completes, metas, instants)
	}
	for _, want := range []string{"lift", "saturate", "extract", "iteration 1", "iteration 2",
		"index", "match", "apply", "rebuild", "counters"} {
		if !names[want] {
			t.Errorf("missing event %q", want)
		}
	}
	parents := chromeParents(t, f.TraceEvents)
	for child, want := range map[string]string{
		"1/lift": "", "1/saturate": "", "1/iteration 1": "saturate", "1/iteration 2": "saturate",
		"1/rebuild": "iteration 2", "1/extract": "",
	} {
		if got, ok := parents[child]; !ok || got != want {
			t.Errorf("parent of %s = %q (present %v), want %q", child, got, ok, want)
		}
	}
}

func TestChromeTracesMultiKernelPids(t *testing.T) {
	raw, err := ChromeTraces([]NamedTrace{
		{Name: "a", Trace: sampleTrace()},
		{Name: "b", Trace: sampleTrace()},
	})
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	pids := map[float64]bool{}
	for _, ev := range f.TraceEvents {
		pids[ev["pid"].(float64)] = true
	}
	if !pids[1] || !pids[2] || len(pids) != 2 {
		t.Errorf("pids = %v, want {1, 2}", pids)
	}
}

// TestChromeTracesRequestLanes checks the server-request form: traces
// carrying a RequestID share one "diosserve" process, each on its own
// single, properly nested lane, with timestamps shifted by the request's
// epoch — the shape that keeps concurrent compiles from interleaving.
func TestChromeTracesRequestLanes(t *testing.T) {
	raw, err := ChromeTraces([]NamedTrace{
		{Name: "a", RequestID: "r00000001", Trace: sampleTrace()},
		{Name: "b", RequestID: "r00000002", Epoch: 5 * time.Millisecond, Trace: sampleTrace()},
	})
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	pids := map[float64]bool{}
	laneTids := map[string]float64{} // request label -> tid
	liftTs := map[float64]float64{}  // tid -> lift stage start
	processes := 0
	for _, ev := range f.TraceEvents {
		pids[ev["pid"].(float64)] = true
		name := ev["name"].(string)
		switch {
		case name == "process_name":
			processes++
			if got := ev["args"].(map[string]any)["name"]; got != "diosserve" {
				t.Errorf("process name = %v, want diosserve", got)
			}
		case name == "thread_name":
			lane := ev["args"].(map[string]any)["name"].(string)
			if _, dup := laneTids[lane]; dup {
				t.Errorf("lane %q named twice", lane)
			}
			laneTids[lane] = ev["tid"].(float64)
		case name == "lift":
			liftTs[ev["tid"].(float64)] = ev["ts"].(float64)
		}
	}
	if len(pids) != 1 || !pids[1] {
		t.Errorf("request traces spread over pids %v, want shared pid 1", pids)
	}
	if processes != 1 {
		t.Errorf("process_name emitted %d times, want once", processes)
	}
	ta, tb := laneTids["r00000001 a"], laneTids["r00000002 b"]
	if len(laneTids) != 2 || ta == 0 || tb == 0 || ta == tb {
		t.Fatalf("want one distinct lane per request, got %v", laneTids)
	}
	for _, ev := range f.TraceEvents {
		if tid := ev["tid"].(float64); ev["ph"] != "M" && tid != ta && tid != tb {
			t.Errorf("event %v off the request lanes", ev)
		}
	}
	parents := chromeParents(t, f.TraceEvents)
	for _, tid := range []float64{ta, tb} {
		if got := parents[fmt.Sprintf("%g/rebuild", tid)]; got != "iteration 2" {
			t.Errorf("lane %g: rebuild nested under %q, want iteration 2", tid, got)
		}
	}
	// Request b started 5 ms after the common epoch: its lift stage lands
	// at 5000 µs while a's sits at 0.
	if liftTs[ta] != 0 || liftTs[tb] != 5000 {
		t.Errorf("lift starts = %v/%v µs, want 0/5000", liftTs[ta], liftTs[tb])
	}
}

func TestPrometheusTextFormat(t *testing.T) {
	out := PrometheusTexts([]NamedTrace{
		{Name: "k1", Trace: sampleTrace()},
		{Name: "k2", Trace: sampleTrace()},
	})
	// Each family's HELP/TYPE header appears exactly once even with two
	// kernels, and every sample carries its kernel label.
	for _, fam := range []string{
		"diospyros_phase_seconds",
		"diospyros_phase_alloc_bytes",
		"diospyros_saturation_nodes",
		"diospyros_counter",
	} {
		if n := strings.Count(out, "# HELP "+fam+" "); n != 1 {
			t.Errorf("family %s has %d HELP lines, want 1", fam, n)
		}
		if n := strings.Count(out, "# TYPE "+fam+" gauge"); n != 1 {
			t.Errorf("family %s has %d TYPE lines, want 1", fam, n)
		}
	}
	for _, want := range []string{
		`diospyros_phase_seconds{kernel="k1",path="compile"} 0.014`,
		`diospyros_phase_seconds{kernel="k2",path="compile.saturate"} 0.01`,
		`diospyros_phase_seconds{kernel="k1",path="compile.saturate.rebuild"} 0.0015`,
		`diospyros_phase_alloc_bytes{kernel="k1",path="compile.saturate"} 8388608`,
		`diospyros_saturation_iterations{kernel="k1"} 2`,
		`diospyros_counter{kernel="k1",name="vir.instrs"} 7`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing sample %q in:\n%s", want, out)
		}
	}
	// The saturation-loop steps carry no allocation reading.
	if strings.Contains(out, `diospyros_phase_alloc_bytes{kernel="k1",path="compile.saturate.`) {
		t.Error("loop steps emitted an alloc sample")
	}
	// Every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "diospyros_") || !strings.Contains(line, " ") {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	tr := &Trace{Counters: map[string]int64{`odd"name\with` + "\nstuff": 1}}
	out := tr.PrometheusText("k")
	want := `diospyros_counter{kernel="k",name="odd\"name\\with\nstuff"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("escaped sample %q missing in:\n%s", want, out)
	}
}

func TestExplanationClassifyRule(t *testing.T) {
	cases := map[string]string{
		"vec-lanewise":  KindVectorization,
		"vec-mac":       KindVectorization,
		"list-chunk":    KindChunking,
		"const-fold":    KindConstFold,
		"lower-shuffle": KindShuffle,
		"lower-select":  KindShuffle,
		"assoc-add":     KindReassociation,
		"comm-mul":      KindReassociation,
		"add-0-r":       KindSimplify,
		"user-rule":     KindSimplify,
	}
	for rule, want := range cases {
		if got := ClassifyRule(rule); got != want {
			t.Errorf("ClassifyRule(%q) = %q, want %q", rule, got, want)
		}
	}
}

func TestExplanationSortAndFormat(t *testing.T) {
	e := &Explanation{Steps: []ExplanationStep{
		{Rule: "lower-shuffle", Kind: KindShuffle, Iteration: 0, Nodes: 2},
		{Rule: "vec-mac", Kind: KindVectorization, Iteration: 2, Nodes: 1},
		{Rule: "list-chunk", Kind: KindChunking, Iteration: 1, Nodes: 4},
	}, InputNodes: 3, RewrittenNodes: 5}
	e.Sort()
	if got := e.Rules(); got[0] != "list-chunk" || got[1] != "vec-mac" || got[2] != "lower-shuffle" {
		t.Fatalf("sorted rules = %v; want saturation order then lowering last", got)
	}
	if !e.HasKind(KindShuffle) || e.HasKind(KindConstFold) {
		t.Error("HasKind misreports")
	}
	out := e.Format()
	if !strings.Contains(out, "5 extracted e-nodes justified by rewrites, 3 from the input program") {
		t.Errorf("missing summary header:\n%s", out)
	}
	if !strings.Contains(out, "\n   -  lower-shuffle") {
		t.Errorf("lowering step should render iteration as '-':\n%s", out)
	}
}

// TestRecorderCountConcurrent exercises the documented concurrency
// contract: Count may be called from many goroutines (run under -race in
// CI).
func TestRecorderCountConcurrent(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec.Count("shared", 1)
			}
		}()
	}
	wg.Wait()
	if got := rec.Finish().Counters["shared"]; got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

// TestRecorderConcurrentSpans exercises the full concurrency contract:
// spans, counters, and setters racing from many goroutines (run under
// -race in CI). Servers share one recorder across request handlers, so
// every method must be safe, not just Count.
func TestRecorderConcurrentSpans(t *testing.T) {
	rec := NewRecorder()
	var wg sync.WaitGroup
	const workers, spans = 8, 50
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				sp := rec.StartSpan("stage")
				rec.Count("spans", 1)
				sp.End()
			}
			if w == 0 {
				rec.Set(func(t *Trace) {
					t.StopReason = "saturated"
					t.Iterations = []IterationGauge{{Iteration: 1}}
				})
			}
		}()
	}
	wg.Wait()
	tr := rec.Finish()
	if len(tr.Stages) != workers*spans {
		t.Fatalf("recorded %d spans, want %d", len(tr.Stages), workers*spans)
	}
	if tr.Counters["spans"] != workers*spans || tr.StopReason != "saturated" {
		t.Fatalf("counters/stop reason lost: %d %q", tr.Counters["spans"], tr.StopReason)
	}
}

func TestTraceFormatTotalShareAndLongNames(t *testing.T) {
	tr := &Trace{
		Stages: []Span{
			{Name: "a-stage-with-a-very-long-name", Duration: 30 * time.Millisecond, AllocBytes: 1e6},
			{Name: "short", Duration: 10 * time.Millisecond, AllocBytes: 1e6},
		},
		Counters: map[string]int64{
			"a": 1,
			"a-counter-name-longer-than-24-characters": 2,
		},
		Duration:   40 * time.Millisecond,
		AllocBytes: 2e6,
	}
	out := tr.Format()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")

	// The compile row carries the whole share (100.0%), aligned with the
	// stage rows despite the long stage name.
	var totalLine, longStageLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "compile ") {
			totalLine = l
		}
		if strings.HasPrefix(l, "compile.a-stage-with-a-very-long-name") {
			longStageLine = l
		}
	}
	if !strings.HasSuffix(totalLine, "100.0%") {
		t.Errorf("compile row lacks share column: %q", totalLine)
	}
	if strings.Index(totalLine, "100.0%")+len("100.0%") != len(totalLine) ||
		len(totalLine) != len(longStageLine) {
		t.Errorf("compile row misaligned with stage rows:\n%q\n%q", longStageLine, totalLine)
	}

	// Counter values align in one column even when a name exceeds the old
	// 24-char pad.
	var counterCols []int
	for _, l := range lines {
		if strings.HasPrefix(l, "counter ") {
			counterCols = append(counterCols, strings.LastIndex(l, " "))
		}
	}
	if len(counterCols) != 2 || counterCols[0] != counterCols[1] {
		t.Errorf("counter columns misaligned (%v):\n%s", counterCols, out)
	}
}
