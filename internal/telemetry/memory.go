package telemetry

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// The memory axis of the telemetry spine. MemoryTrace is the per-compile
// memory record attached to Trace.Memory: the e-graph's peak logical
// footprint (per-component breakdown, computed by the egraph package's
// incremental accounting and converted by the root package) and
// whole-process heap/GC samples from a runtime/metrics-based HeapSampler.
// MemProfiler additionally captures a pprof heap profile at the e-graph's
// node-count peak (the -mem-profile CLI flag).

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
	// HeapPeakBytes is the largest live-heap sample (runtime/metrics
	// /memory/classes/heap/objects:bytes) observed while the pipeline ran;
	// HeapSamples counts the observations behind it.
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

// heapSampleInterval is the HeapSampler's default polling period: coarse
// enough to be invisible in compile time, fine enough to catch the heap
// high-water of sub-second compiles (which also get the start/stop samples).
const heapSampleInterval = 5 * time.Millisecond

// heapMetrics are the runtime/metrics samples the HeapSampler polls.
var heapMetrics = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
}

// HeapSampler polls the Go runtime's live-heap size and GC cycle count on
// an interval while a compile runs, via the cheap runtime/metrics interface
// (no stop-the-world ReadMemStats in the loop; MemStats is read only at
// Start and Stop for the pause-time delta). Create with StartHeapSampler,
// collect with Stop.
type HeapSampler struct {
	mu       sync.Mutex
	peak     uint64
	samples  int
	startGC  uint64
	endGC    uint64
	pauseIn  uint64 // PauseTotalNs at Start
	pauseOut uint64 // PauseTotalNs at Stop
	stop     chan struct{}
	done     chan struct{}
}

// StartHeapSampler begins sampling on the given interval (<= 0 uses the
// 5ms default). Call Stop to end sampling and read the results.
func StartHeapSampler(interval time.Duration) *HeapSampler {
	if interval <= 0 {
		interval = heapSampleInterval
	}
	s := &HeapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.pauseIn = ms.PauseTotalNs
	s.startGC = s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

// sample reads the heap metrics once, folding the live-heap value into the
// peak; it returns the current GC cycle count.
func (s *HeapSampler) sample() uint64 {
	buf := make([]metrics.Sample, len(heapMetrics))
	for i, name := range heapMetrics {
		buf[i].Name = name
	}
	metrics.Read(buf)
	heap := buf[0].Value.Uint64()
	gc := buf[1].Value.Uint64()
	s.mu.Lock()
	if heap > s.peak {
		s.peak = heap
	}
	s.samples++
	s.mu.Unlock()
	return gc
}

// Stop ends sampling (taking one final sample so even instant compiles get
// a reading) and returns the heap peak, sample count, GC cycles completed
// during the window, and total GC pause accumulated in it. Stop is
// idempotent in effect but must be called exactly once; the sampler must
// not be used afterwards.
func (s *HeapSampler) Stop() (peak uint64, samples int, gcCycles uint64, gcPause time.Duration) {
	close(s.stop)
	<-s.done
	s.endGC = s.sample()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.pauseOut = ms.PauseTotalNs
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak, s.samples, s.endGC - s.startGC, time.Duration(s.pauseOut - s.pauseIn)
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
