package egraph

import "sync/atomic"

// Progress is a concurrently readable snapshot of a running saturation:
// the current iteration, the e-graph's node/class counts, and its logical
// footprint in bytes, published by RunContext as the run advances (each
// iteration start, each rebuild, and every ctxCheckInterval applies). It
// exists for watchdogs — a goroutine outside the run can poll Snapshot and
// cancel the run's context when a node, heap, or wall-clock budget is
// exceeded, without touching the (unlocked) e-graph itself. All fields are
// atomics; the zero value is ready to use.
type Progress struct {
	iteration atomic.Int64
	nodes     atomic.Int64
	classes   atomic.Int64
	bytes     atomic.Int64
}

// ProgressSnapshot is one consistent-enough read of a Progress: the four
// values are loaded independently, which is fine for budget checks.
type ProgressSnapshot struct {
	Iteration int // 1-based; 0 before the first iteration starts
	Nodes     int
	Classes   int
	// Bytes is the e-graph's logical footprint (FootprintBytes) at the
	// last publish.
	Bytes int64
}

// Snapshot returns the most recently published state. Safe to call from
// any goroutine, including while the run mutates the e-graph.
func (p *Progress) Snapshot() ProgressSnapshot {
	return ProgressSnapshot{
		Iteration: int(p.iteration.Load()),
		Nodes:     int(p.nodes.Load()),
		Classes:   int(p.classes.Load()),
		Bytes:     p.bytes.Load(),
	}
}

// publish records the run's current state. Called only by RunContext's
// goroutine; nil-safe so the runner needs no branches at publish sites.
func (p *Progress) publish(iteration, nodes, classes int, bytes int64) {
	if p == nil {
		return
	}
	p.iteration.Store(int64(iteration))
	p.nodes.Store(int64(nodes))
	p.classes.Store(int64(classes))
	p.bytes.Store(bytes)
}
