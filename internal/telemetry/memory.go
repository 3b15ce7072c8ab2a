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

// MemProfiler keeps the pprof heap profile captured at the end of the
// saturation run with the most e-nodes: the allocation stacks behind the
// largest graph, which is what the memory-layout work needs to see. Set
// Observe as the run's egraph.Progress.OnEnd, so the runner reports each
// run's final node count; a profile costs milliseconds, so it is taken at
// most once per run, and only for a new high. Profile returns the
// profile. The zero value is ready to use, and one profiler may watch
// several runs in turn or at once.
type MemProfiler struct {
	mu       sync.Mutex
	peak     int
	snapshot []byte
}

// Observe captures the heap profile if nodes, a run's final node count, is
// a new high.
func (p *MemProfiler) Observe(nodes int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if nodes <= p.peak {
		return
	}
	p.peak = nodes
	if b := heapProfile(); b != nil {
		p.snapshot = b
	}
}

// Profile returns the profile captured at the node-count peak, and that
// peak. If no run ended, it captures the heap now, so the profile is
// never empty.
func (p *MemProfiler) Profile() (profile []byte, peakNodes int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.snapshot == nil {
		p.snapshot = heapProfile()
	}
	return p.snapshot, p.peak
}

// heapProfile returns the pprof heap profile, or nil if it cannot be
// written.
func heapProfile() []byte {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		return nil
	}
	return buf.Bytes()
}

// HeapInUse returns the process's current live-heap bytes via
// runtime/metrics — the cheap probe the serve watchdog polls against its
// heap budget between compiles' Progress samples.
func HeapInUse() uint64 {
	buf := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(buf)
	return buf[0].Value.Uint64()
}
