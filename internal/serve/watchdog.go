package serve

import (
	"context"
	"log/slog"
	"time"

	"diospyros/internal/egraph"
	"diospyros/internal/telemetry"
)

// startWatchdog launches the per-request saturation watchdog: a goroutine
// that samples the compile's live e-graph gauges (egraph.Progress) every
// WatchdogPoll and aborts the compile — by cancelling its context with a
// *telemetry.AbortError cause — when the node-count or heap-byte budget is
// exceeded (Config.RequestTimeout bounds the wall clock). The abort reason
// then surfaces in the response trace's StopReason ("aborted:<reason>")
// and in the diospyros_serve_saturation_aborts_total counter.
//
// While it runs, the watchdog keeps two live gauges fresh:
// diospyros_serve_watchdog_nodes (the sampled compile's node count) and
// diospyros_serve_egraph_bytes (its logical footprint), plus the
// diospyros_serve_heap_highwater_bytes high-water mark of the process's
// live heap. The per-compile gauges are reset to zero in the stop path so
// /metrics never reports a finished compile as live.
//
// The returned stop function halts the watchdog; it is idempotent and must
// be called once the compile returns. The sampler runs even with every
// budget disabled — the live gauges are observability in their own right —
// and budgets only add the abort check on top.
func (s *Server) startWatchdog(ctx context.Context, prog *egraph.Progress, cancel context.CancelCauseFunc, log *slog.Logger) (stop func()) {
	// Publish the live gauges immediately so even compiles faster than one
	// poll interval leave the families present on /metrics.
	s.setLiveGauges(0, 0)
	stopped := make(chan struct{})
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		ticker := time.NewTicker(s.cfg.WatchdogPoll)
		defer ticker.Stop()
		for {
			select {
			case <-stopped:
				return
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			snap := prog.Snapshot()
			s.setLiveGauges(snap.Nodes, snap.Bytes)
			heap := telemetry.HeapInUse()
			s.reg.GaugeMax("diospyros_serve_heap_highwater_bytes",
				"High-water mark of the process's live heap (runtime/metrics).",
				nil, float64(heap))
			var reason string
			switch {
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
			return
		}
	}()
	return func() {
		select {
		case <-stopped:
		default:
			close(stopped)
		}
		<-done
		// The compile is over: its node count and footprint are no longer
		// live, so zero the gauges instead of freezing the last sample.
		s.setLiveGauges(0, 0)
	}
}

// observeCompile folds one finished compile's trace into the live registry
// (latency histograms, e-graph high-water marks, stop reasons, the peak
// footprint histogram) and raises the serve heap high-water gauge with the
// compile's own heap peak, read at each of its stage boundaries, which can
// catch a compile shorter than one watchdog poll. A longer compile's peak
// inside a stage is the watchdog poll's to catch.
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
