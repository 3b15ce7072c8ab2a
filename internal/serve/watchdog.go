package serve

import (
	"context"
	"time"

	diospyros "diospyros"
	"diospyros/internal/egraph"
	"diospyros/internal/telemetry"
)

// watchPoll is the tick of the compile loop: the watchdog's sample, the
// live gauges and, for a streamed compile, the SSE relay all run on it.
// Saturation iterations on real kernels take milliseconds to seconds, so
// 10 ms keeps both the budgets and the stream prompt without measurable
// polling load.
const watchPoll = 10 * time.Millisecond

// watch runs one admitted compile and returns its outcome. The compile
// runs on its own goroutine; the handler's goroutine runs one loop on one
// ticker until it returns. Each tick samples the compile's live e-graph
// gauges (egraph.Progress), keeps diospyros_serve_watchdog_nodes,
// diospyros_serve_egraph_bytes and the diospyros_serve_heap_highwater_bytes
// high-water mark fresh, and is the saturation watchdog: once the
// node-count or heap-byte budget is exceeded it cancels the compile's
// context with a *telemetry.AbortError cause (Config.RequestTimeout, not
// the watchdog, bounds the wall clock). The abort reason then surfaces in
// the trace's StopReason ("aborted:<reason>") and in
// diospyros_serve_saturation_aborts_total. For a streamed compile (sse
// non-nil) each tick also relays the journal's new iteration gauges and
// sends the keep-alives.
//
// The sampler runs even with every budget disabled — the live gauges are
// observability in their own right — and the per-compile gauges read zero
// before and after, so /metrics never reports a finished compile as live.
func (s *Server) watch(ctx context.Context, cancel context.CancelCauseFunc, src string, opts diospyros.Options, sse *sseRelay) (*diospyros.Result, error) {
	prog := &egraph.Progress{}
	opts.Progress = prog
	type outcome struct {
		res *diospyros.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.compile(ctx, src, opts)
		done <- outcome{res, err}
	}()

	s.setLiveGauges(0, 0)
	defer s.setLiveGauges(0, 0)
	log := telemetry.LoggerFrom(ctx)
	start := time.Now()
	tick := time.NewTicker(watchPoll)
	defer tick.Stop()
	for {
		select {
		case out := <-done:
			sse.relay()
			return out.res, out.err
		case <-tick.C:
		}
		sse.relay()
		sse.heartbeat()
		snap := prog.Snapshot()
		s.setLiveGauges(snap.Nodes, snap.Bytes)
		heap := telemetry.HeapInUse()
		s.reg.GaugeMax("diospyros_serve_heap_highwater_bytes",
			"High-water mark of the process's live heap (runtime/metrics).",
			nil, float64(heap))
		var reason string
		switch {
		case ctx.Err() != nil: // already stopping; the compile will return
			continue
		case s.cfg.WatchdogNodes > 0 && snap.Nodes > s.cfg.WatchdogNodes:
			reason = "node-budget"
		case s.cfg.WatchdogHeap > 0 && int64(heap) > s.cfg.WatchdogHeap:
			reason = "heap-budget"
		default:
			continue
		}
		log.Warn("saturation watchdog firing",
			"reason", reason, "iteration", snap.Iteration,
			"nodes", snap.Nodes, "classes", snap.Classes,
			"egraph_bytes", snap.Bytes, "heap_bytes", heap,
			"elapsed", time.Since(start))
		cancel(&telemetry.AbortError{Reason: reason})
	}
}

// observeCompile folds one finished compile's trace into the live registry
// (latency histograms, e-graph high-water marks, stop reasons, the peak
// footprint histogram) and raises the serve heap high-water gauge with the
// compile's own heap peak, read at each of its stage boundaries, which can
// catch a compile shorter than one tick. A longer compile's peak inside a
// stage is the tick's to catch.
func (s *Server) observeCompile(trace *telemetry.Trace) {
	s.reg.ObserveTrace(trace)
	if trace != nil && trace.Memory != nil && trace.Memory.HeapPeakBytes > 0 {
		s.reg.GaugeMax("diospyros_serve_heap_highwater_bytes",
			"High-water mark of the process's live heap (runtime/metrics).",
			nil, float64(trace.Memory.HeapPeakBytes))
	}
}

// setLiveGauges publishes the running compile's sampled node count and
// logical e-graph bytes.
func (s *Server) setLiveGauges(nodes int, bytes int64) {
	s.reg.GaugeSet("diospyros_serve_watchdog_nodes",
		"E-graph nodes of the most recently sampled running compile (0 when idle).",
		nil, float64(nodes))
	s.reg.GaugeSet("diospyros_serve_egraph_bytes",
		"Logical e-graph footprint of the most recently sampled running compile (0 when idle).",
		nil, float64(bytes))
}

func traceOf(res *diospyros.Result) *telemetry.Trace {
	if res == nil {
		return nil
	}
	return res.Trace
}
