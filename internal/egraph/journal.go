package egraph

import (
	"sync"

	"diospyros/internal/telemetry"
)

// The search flight recorder's live relay. A Journal is an append-only list
// of a run's iteration gauges — the same records Report.Iters collects,
// rule rows included — that other goroutines may read while the run is
// still writing (diosserve's SSE stream polls GaugesSince). It also holds
// the optional best-cost sampler, whose result lands in each gauge's
// BestCost. The runner appends to it only when Limits.Journal is non-nil.

// costSampleMaxNodes caps the graph size at which the per-iteration cost
// sampler still runs: sampling performs a full extraction fixpoint, which
// is linear in e-nodes per pass and would dominate huge searches.
const costSampleMaxNodes = 200_000

// Journal relays a saturation run's gauges to concurrent readers. All
// methods are safe for concurrent use and nil-receiver safe, so the runner
// records unconditionally through a nil journal at no cost beyond the nil
// check.
type Journal struct {
	mu     sync.Mutex
	gauges []telemetry.IterationGauge

	costRoot ClassID
	costFn   func(*EGraph, ClassID) (float64, bool)
}

// NewJournal creates an empty journal.
func NewJournal() *Journal { return &Journal{} }

// SampleCost arms the per-iteration best-cost trajectory: after each
// completed iteration's rebuild the runner calls fn for root and records
// the result as the gauge's BestCost. fn typically runs an extraction
// fixpoint, so sampling is skipped once the graph exceeds 200k nodes to
// keep recorder overhead bounded.
func (j *Journal) SampleCost(root ClassID, fn func(g *EGraph, root ClassID) (float64, bool)) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.costRoot, j.costFn = root, fn
	j.mu.Unlock()
}

// append publishes one completed gauge. The runner never mutates a gauge
// (or its Rules) after appending it, so readers may share its rows.
func (j *Journal) append(g telemetry.IterationGauge) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.gauges = append(j.gauges, g)
	j.mu.Unlock()
}

// GaugesSince returns the gauges after the first n, in iteration order.
// Streaming readers pass the number of gauges they have already seen.
func (j *Journal) GaugesSince(n int) []telemetry.IterationGauge {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if n >= len(j.gauges) {
		return nil
	}
	return append([]telemetry.IterationGauge(nil), j.gauges[n:]...)
}

// sampleCost returns the armed root's best cost on g, or nil when the
// sampler is not armed, the graph is too large, or the root has no finite
// cost.
func (j *Journal) sampleCost(g *EGraph) *float64 {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	root, fn := j.costRoot, j.costFn
	j.mu.Unlock()
	if fn == nil || g.NumNodes() > costSampleMaxNodes {
		return nil
	}
	if c, ok := fn(g, root); ok {
		return &c
	}
	return nil
}
