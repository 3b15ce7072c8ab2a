package telemetry

import (
	"sync"
	"testing"
)

// TestMemProfilerKeepsPeak feeds one MemProfiler from several goroutines at
// once, as concurrent saturation runs sharing one Progress would, and
// checks it keeps the highest count with a profile taken for it. A
// profiler that saw no count still returns a profile.
func TestMemProfilerKeepsPeak(t *testing.T) {
	var idle MemProfiler
	if profile, peak := idle.Profile(); len(profile) == 0 || peak != 0 {
		t.Fatalf("idle profiler: %d-byte profile at peak %d, want a profile at 0", len(profile), peak)
	}
	var p MemProfiler
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 1; n <= 10; n++ {
				p.Observe(n*4 + g)
			}
		}(g)
	}
	wg.Wait()
	if profile, peak := p.Profile(); len(profile) == 0 || peak != 43 {
		t.Fatalf("%d-byte profile at peak %d, want a profile at 43", len(profile), peak)
	}
}
