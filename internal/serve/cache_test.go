package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	diospyros "diospyros"
	"diospyros/internal/kernel"
	"diospyros/internal/telemetry"
)

func TestCacheKeyNormalization(t *testing.T) {
	base := compileCacheKey("kernel k(a[4]) -> (o[4]) {\n  o[0] = a[0];\n}", diospyros.Options{})
	for name, src := range map[string]string{
		"crlf":            "kernel k(a[4]) -> (o[4]) {\r\n  o[0] = a[0];\r\n}",
		"trailing spaces": "kernel k(a[4]) -> (o[4]) {  \n  o[0] = a[0];\t\n}",
		"trailing blanks": "kernel k(a[4]) -> (o[4]) {\n  o[0] = a[0];\n}\n\n\n",
	} {
		if got := compileCacheKey(src, diospyros.Options{}); got != base {
			t.Errorf("%s: key %s differs from base %s", name, got, base)
		}
	}
	if got := compileCacheKey("kernel k2(a[4]) -> (o[4]) {\n  o[0] = a[0];\n}", diospyros.Options{}); got == base {
		t.Error("different source produced the same key")
	}
	if got := compileCacheKey("kernel k(a[4]) -> (o[4]) {\n  o[0] = a[0];\n}",
		diospyros.Options{DisableVectorRules: true}); got == base {
		t.Error("output-affecting option did not change the key")
	}
}

func TestCanonicalOptionsOrderIndependent(t *testing.T) {
	a := canonicalOptions(diospyros.Options{OpCost: map[string]float64{"x": 1, "y": 2, "z": 3}})
	for i := 0; i < 10; i++ {
		if b := canonicalOptions(diospyros.Options{OpCost: map[string]float64{"z": 3, "x": 1, "y": 2}}); b != a {
			t.Fatalf("OpCost rendering depends on map order:\n%s\nvs\n%s", a, b)
		}
	}
}

// fakeResult builds a Result whose resultSize is dominated by n bytes of C.
func fakeResult(n int) *diospyros.Result {
	return &diospyros.Result{
		Kernel: &kernel.Lifted{Name: "stub"},
		C:      strings.Repeat("x", n),
		Trace:  &telemetry.Trace{},
	}
}

func TestCacheLRUEviction(t *testing.T) {
	res := fakeResult(1 << 10)
	budget := 3 * resultSize(res) // room for three entries
	c := newCompileCache(budget)
	store := func(key string) int {
		_, fl, state := c.acquire(key)
		if state != cacheLeader {
			t.Fatalf("acquire(%s) = %v, want leader", key, state)
		}
		return c.finish(key, fl, res)
	}
	for _, k := range []string{"a", "b", "c"} {
		if ev := store(k); ev != 0 {
			t.Fatalf("storing %s evicted %d entries under budget", k, ev)
		}
	}
	// Refresh "a" so "b" is now the least recently used.
	if _, _, state := c.acquire("a"); state != cacheHit {
		t.Fatal("a missing before eviction")
	}
	if ev := store("d"); ev != 1 {
		t.Fatalf("storing d evicted %d entries, want 1", ev)
	}
	if _, _, state := c.acquire("b"); state == cacheHit {
		t.Error("b survived eviction despite being LRU")
	}
	if _, _, state := c.acquire("a"); state != cacheHit {
		t.Error("recently used a was evicted")
	}
	if got := c.sizeBytes(); got > budget {
		t.Errorf("cache holds %d bytes, budget %d", got, budget)
	}
	// An entry larger than the whole budget is served but never stored.
	huge := fakeResult(int(budget))
	_, fl, _ := c.acquire("huge")
	c.finish("huge", fl, huge)
	if _, _, state := c.acquire("huge"); state == cacheHit {
		t.Error("over-budget entry was stored")
	}
}

// TestCacheHitOnRepeatCompile is the acceptance criterion end to end: the
// second identical POST /compile is served from the cache with the same
// artifacts, and the /metrics counters record one miss then one hit.
func TestCacheHitOnRepeatCompile(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp1, cr1 := postCompile(t, ts.URL, dotprod, "text/plain")
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first compile: %d (%s)", resp1.StatusCode, cr1.Error)
	}
	if got := resp1.Header.Get("X-Dios-Cache"); got != "miss" {
		t.Fatalf("first compile X-Dios-Cache = %q, want miss", got)
	}

	resp2, cr2 := postCompile(t, ts.URL, dotprod, "text/plain")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second compile: %d (%s)", resp2.StatusCode, cr2.Error)
	}
	if got := resp2.Header.Get("X-Dios-Cache"); got != "hit" {
		t.Fatalf("second compile X-Dios-Cache = %q, want hit", got)
	}
	if cr2.C != cr1.C || cr2.Assembly != cr1.Assembly || cr2.Cost != cr1.Cost {
		t.Error("cached response artifacts differ from the compiled ones")
	}
	if cr2.RequestID == cr1.RequestID || cr2.RequestID == "" {
		t.Errorf("request IDs not distinct: %q vs %q", cr1.RequestID, cr2.RequestID)
	}

	metrics := scrape(t, ts.URL)
	for _, want := range []string{
		"diospyros_serve_cache_hits_total 1",
		"diospyros_serve_cache_misses_total 1",
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("missing %q in metrics:\n%s", want, metrics)
		}
	}

	// A representation-only change (CRLF) still hits.
	resp3, _ := postCompile(t, ts.URL, strings.ReplaceAll(dotprod, "\n", "\r\n"), "text/plain")
	if got := resp3.Header.Get("X-Dios-Cache"); got != "hit" {
		t.Errorf("CRLF re-encoding missed the cache: X-Dios-Cache = %q", got)
	}
}

// TestCacheHitAcrossTargetSpellings pins that the cache keys on the
// targets a compile resolves, not on how the request spelled them: a plain
// request (default target), a JSON request naming that target, and one
// naming it twice compile identically and so share one entry.
func TestCacheHitAcrossTargetSpellings(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, cr := postCompile(t, ts.URL, dotprod, "text/plain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain compile: %d (%s)", resp.StatusCode, cr.Error)
	}
	if got := resp.Header.Get("X-Dios-Cache"); got != "miss" {
		t.Fatalf("plain compile X-Dios-Cache = %q, want miss", got)
	}
	for _, targets := range [][]string{{"fg3lite-4"}, {"fg3lite-4", "fg3lite-4"}} {
		body, _ := json.Marshal(CompileRequest{Source: dotprod, Targets: targets})
		resp, got := postCompile(t, ts.URL, string(body), "application/json")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: status %d (%s)", targets, resp.StatusCode, got.Error)
		}
		if h := resp.Header.Get("X-Dios-Cache"); h != "hit" {
			t.Errorf("%v after a plain request: X-Dios-Cache = %q, want hit", targets, h)
		}
		if got.C != cr.C || got.Assembly != cr.Assembly {
			t.Errorf("%v: cached artifacts differ from the plain compile's", targets)
		}
	}
}

// cacheStateWriter records, at the moment the handler starts its reply,
// whether the compile cache already stores key and has no flight open.
type cacheStateWriter struct {
	*httptest.ResponseRecorder
	c              *compileCache
	key            string
	stored, closed bool
}

func (w *cacheStateWriter) WriteHeader(code int) {
	w.c.mu.Lock()
	_, w.stored = w.c.entries[w.key]
	w.closed = len(w.c.flights) == 0
	w.c.mu.Unlock()
	w.ResponseRecorder.WriteHeader(code)
}

// TestCacheLeaderPublishesBeforeReply pins the leader's ordering: its
// result is in the cache and its flight closed before any byte of the
// reply, so a client repeating the request right after reading a miss is
// always served a hit, never a coalesced wait on the finished flight.
func TestCacheLeaderPublishesBeforeReply(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.compileFn = func(context.Context, string, diospyros.Options) (*diospyros.Result, error) {
		return fakeResult(64), nil
	}
	for i := 0; i < 20; i++ {
		src := fmt.Sprintf("%s\n// variant %d", dotprod, i)
		w := &cacheStateWriter{ResponseRecorder: httptest.NewRecorder(), c: s.cache,
			key: compileCacheKey(src, diospyros.Options{})}
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/compile", strings.NewReader(src)))
		if w.Code != http.StatusOK || w.Header().Get("X-Dios-Cache") != "miss" {
			t.Fatalf("variant %d: status %d, X-Dios-Cache %q, want 200 miss",
				i, w.Code, w.Header().Get("X-Dios-Cache"))
		}
		if !w.stored || !w.closed {
			t.Fatalf("variant %d: at reply time stored=%v flight closed=%v, want both",
				i, w.stored, w.closed)
		}
		if resp, _ := postCompile(t, ts.URL, src, "text/plain"); resp.Header.Get("X-Dios-Cache") != "hit" {
			t.Fatalf("variant %d: sequential repeat X-Dios-Cache = %q, want hit",
				i, resp.Header.Get("X-Dios-Cache"))
		}
	}
}

// TestCacheCoalescesConcurrentCompiles is the singleflight race test (run
// under -race in CI): 8 concurrent identical requests plus 8 distinct ones
// produce exactly one compile per distinct key, with the identical group
// resolved as one miss and seven coalesced/hit responses.
func TestCacheCoalescesConcurrentCompiles(t *testing.T) {
	var (
		mu       sync.Mutex
		compiles = map[string]int{}
		release  = make(chan struct{})
		entered  atomic.Int64
	)
	s, ts := newTestServer(t, Config{Workers: 16, QueueDepth: 64})
	s.compileFn = func(ctx context.Context, src string, _ diospyros.Options) (*diospyros.Result, error) {
		mu.Lock()
		compiles[src]++
		mu.Unlock()
		entered.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return fakeResult(64), nil
	}

	const identical = 8
	const distinct = 8
	headers := make([]string, identical+distinct)
	var wg sync.WaitGroup
	for i := 0; i < identical+distinct; i++ {
		i := i
		src := dotprod
		if i >= identical {
			src = fmt.Sprintf("%s\n// variant %d", dotprod, i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, cr := postCompile(t, ts.URL, src, "text/plain")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d (%s)", i, resp.StatusCode, cr.Error)
			}
			headers[i] = resp.Header.Get("X-Dios-Cache")
		}()
	}
	// Hold every leader inside compileFn until all 9 distinct keys have
	// entered — by then the 7 followers are either waiting on the identical
	// flight or will land on the stored entry afterwards.
	deadline := time.Now().Add(10 * time.Second)
	for entered.Load() < distinct+1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d compiles entered", entered.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(compiles) != distinct+1 {
		t.Fatalf("%d distinct compiles ran, want %d", len(compiles), distinct+1)
	}
	for src, n := range compiles {
		if n != 1 {
			t.Errorf("key compiled %d times, want exactly 1:\n%s", n, src)
		}
	}
	var miss, shared int
	for _, h := range headers[:identical] {
		switch h {
		case "miss":
			miss++
		case "coalesced", "hit":
			shared++
		default:
			t.Errorf("identical request header = %q", h)
		}
	}
	if miss != 1 || shared != identical-1 {
		t.Errorf("identical group: %d miss + %d shared, want 1 + %d (headers %v)",
			miss, shared, identical-1, headers[:identical])
	}
	for i, h := range headers[identical:] {
		if h != "miss" {
			t.Errorf("distinct request %d header = %q, want miss", i, h)
		}
	}
}

// TestCacheLeaderFailureReleasesFollowers: when the leader's compile
// fails, waiting followers fall back to compiling for themselves instead
// of inheriting the failure or deadlocking.
func TestCacheLeaderFailureReleasesFollowers(t *testing.T) {
	var calls atomic.Int64
	entered := make(chan struct{}, 1)
	s, ts := newTestServer(t, Config{Workers: 2})
	s.compileFn = func(ctx context.Context, _ string, _ diospyros.Options) (*diospyros.Result, error) {
		if calls.Add(1) == 1 {
			entered <- struct{}{}
			time.Sleep(50 * time.Millisecond)
			return nil, fmt.Errorf("transient failure")
		}
		return fakeResult(64), nil
	}

	errc := make(chan int, 1)
	go func() {
		resp, _ := postCompile(t, ts.URL, dotprod, "text/plain")
		errc <- resp.StatusCode
	}()
	<-entered // leader is in flight and will fail
	resp, cr := postCompile(t, ts.URL, dotprod, "text/plain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower fallback failed: %d (%s)", resp.StatusCode, cr.Error)
	}
	if got := <-errc; got != http.StatusBadRequest {
		t.Errorf("leader status = %d, want 400", got)
	}
	if calls.Load() != 2 {
		t.Errorf("%d compiles ran, want 2 (leader + fallback)", calls.Load())
	}
}

// TestStreamingBypassesCache: SSE compiles replay the live flight recorder
// and must never be served from (or stored into) the cache.
func TestStreamingBypassesCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if resp, _ := postCompile(t, ts.URL, dotprod, "text/plain"); resp.Header.Get("X-Dios-Cache") != "miss" {
		t.Fatal("priming compile was not a miss")
	}

	req, _ := http.NewRequest("POST", ts.URL+"/compile", strings.NewReader(dotprod))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Dios-Cache"); got != "" {
		t.Errorf("streaming compile got X-Dios-Cache = %q, want none", got)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Errorf("Content-Type = %q", ct)
	}
}
