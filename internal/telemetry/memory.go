package telemetry

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// The memory axis of the telemetry spine. MemoryTrace is the per-compile
// memory record attached to Trace.Memory: the e-graph's peak logical
// footprint (per-component breakdown, computed by the egraph package's
// incremental accounting and converted by the root package) and the
// whole-process heap/GC figures of the Recorder's readings, one
// runtime.ReadMemStats at each stage boundary (telemetry.go). MemProfiler
// additionally captures a pprof heap profile at the e-graph's node-count
// peak (the -mem-profile CLI flag), and HeapInUse is the serve watchdog's
// live-heap probe.

// MemoryComponent is one named component of the e-graph footprint breakdown
// (e-nodes, hashcons, symbols, union-find, classes, parents, provenance).
type MemoryComponent struct {
	Name    string `json:"name"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// MemoryTrace is the memory record of one compilation.
type MemoryTrace struct {
	// PeakBytes is the e-graph's peak logical footprint over the run, and
	// PeakIteration the 1-based saturation iteration where it occurred.
	PeakBytes     int64 `json:"peak_bytes"`
	PeakIteration int   `json:"peak_iteration,omitempty"`
	// Components breaks PeakBytes down per data structure, at the peak.
	Components []MemoryComponent `json:"components,omitempty"`
	// HeapPeakBytes is the largest heap (runtime.MemStats.HeapAlloc, the
	// same quantity as runtime/metrics /memory/classes/heap/objects:bytes)
	// the Recorder read at the compile's stage boundaries; HeapSamples
	// counts those readings. HeapAlloc includes garbage not yet collected,
	// so a reading falls anywhere between the live heap and the GC's heap
	// goal, and a peak inside a stage is missed: on the largest suite
	// kernels this peak runs 0–11% (median) below that of a 5 ms poll,
	// up to about a third in a single compile (EXPERIMENTS.md "Measuring
	// the one memory probe").
	HeapPeakBytes uint64 `json:"heap_peak_bytes,omitempty"`
	HeapSamples   int    `json:"heap_samples,omitempty"`
	// GCCycles and GCPauseTotal cover the compile's window: completed GC
	// cycles and the total stop-the-world pause accumulated during it.
	GCCycles     uint64        `json:"gc_cycles,omitempty"`
	GCPauseTotal time.Duration `json:"gc_pause_total_ns,omitempty"`
}

// Format renders the memory record as a small human-readable table.
func (m *MemoryTrace) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "e-graph peak: %.2f MB at iteration %d\n",
		float64(m.PeakBytes)/1e6, m.PeakIteration)
	if len(m.Components) > 0 {
		nameW := len("component")
		for _, c := range m.Components {
			if len(c.Name) > nameW {
				nameW = len(c.Name)
			}
		}
		fmt.Fprintf(&b, "%-*s %12s %10s\n", nameW, "component", "entries", "bytes")
		for _, c := range m.Components {
			fmt.Fprintf(&b, "%-*s %12d %7.2f MB\n", nameW, c.Name, c.Entries,
				float64(c.Bytes)/1e6)
		}
	}
	if m.HeapPeakBytes > 0 {
		fmt.Fprintf(&b, "heap peak: %.2f MB over %d samples, %d GC cycles, %v paused\n",
			float64(m.HeapPeakBytes)/1e6, m.HeapSamples, m.GCCycles,
			m.GCPauseTotal.Round(time.Microsecond))
	}
	return b.String()
}

// memProfileDebounce bounds how often the MemProfiler re-captures the heap
// profile after a new node-count high-water mark: profiles are ~100KB-ish
// and capture walks all live allocations, so chasing every publish would
// distort the run it is observing.
const memProfileDebounce = 250 * time.Millisecond

// MemProfiler watches a node-count probe and keeps the pprof heap profile
// captured nearest the count's peak — the allocation stacks behind the
// e-graph's largest extent, which is what the memory-layout work needs to
// see. Create with StartMemProfiler; Stop returns the profile bytes.
type MemProfiler struct {
	nodes    func() int
	stop     chan struct{}
	done     chan struct{}
	mu       sync.Mutex
	peak     int
	lastCap  time.Time
	snapshot []byte
}

// StartMemProfiler begins polling nodes() on the interval (<= 0 uses 10ms),
// capturing the heap profile whenever the count reaches a new high-water
// mark (debounced). nodes is typically egraph.Progress.Snapshot().Nodes.
func StartMemProfiler(nodes func() int, interval time.Duration) *MemProfiler {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	p := &MemProfiler{nodes: nodes, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.poll()
			}
		}
	}()
	return p
}

// poll captures the heap profile if the node count set a new high-water
// mark and the debounce window has passed.
func (p *MemProfiler) poll() {
	n := p.nodes()
	p.mu.Lock()
	due := n > p.peak && time.Since(p.lastCap) >= memProfileDebounce
	if n > p.peak {
		p.peak = n
	}
	p.mu.Unlock()
	if due {
		p.capture()
	}
}

// capture snapshots the pprof heap profile.
func (p *MemProfiler) capture() {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		return
	}
	p.mu.Lock()
	p.snapshot = buf.Bytes()
	p.lastCap = time.Now()
	p.mu.Unlock()
}

// Stop ends polling and returns the captured profile (the one nearest the
// node-count peak), along with that peak. A run too short for any poll
// still returns a final capture, so the profile is never empty.
func (p *MemProfiler) Stop() (profile []byte, peakNodes int) {
	close(p.stop)
	<-p.done
	p.mu.Lock()
	empty := p.snapshot == nil
	p.mu.Unlock()
	if empty {
		p.capture()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshot, p.peak
}

// HeapInUse returns the process's current live-heap bytes via
// runtime/metrics — the cheap probe the serve watchdog polls against its
// heap budget between compiles' Progress samples.
func HeapInUse() uint64 {
	buf := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(buf)
	return buf[0].Value.Uint64()
}
