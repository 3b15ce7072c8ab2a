package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"diospyros/internal/loadgen"
)

// serveClients is the closed loop's client count on serve-mix; each client
// keeps one request in flight over its own connection.
const serveClients = 2

// serveMisses weights the salted requests of one serve-mix cycle per mix
// kernel. A salt is a unique trailing comment, so a salted request misses
// the cache and compiles; every kernel is also requested once unsalted, a
// cache hit. Sorted by latency, a cycle is 8 fast requests (the hits and
// the three small misses), 6 fir8 misses and 4 qr3 misses: p50 falls inside
// the fir8 block and p90 inside the qr3 block, never on the edge between two
// kernels, which is what makes the percentiles repeat from run to run.
var serveMisses = map[string]int{"matmul2x2": 1, "matmul2x3": 1, "dot8": 1, "fir8": 6, "qr3": 4}

// mixWorkload compiles loadgen.BuiltinMix offline with the server's default
// options; its verified artifacts are what every served reply must equal.
var mixWorkload = compileWorkload{
	cases: func(_ string, seed int64) ([]kernelCase, []int, error) {
		r := rand.New(rand.NewSource(seed))
		var cases []kernelCase
		var pass []int
		for i, k := range loadgen.BuiltinMix() {
			c, err := sourceCase(k.Name, k.Source, r)
			if err != nil {
				return nil, nil, err
			}
			cases = append(cases, c)
			pass = append(pass, i)
		}
		return cases, pass, nil
	},
}

// server is a running compile service.
type server struct {
	url string
	// stop shuts the server down, waits for it to exit, and returns its
	// peak resident set size.
	stop func() (peakRSSMB float64)
}

type startServer func(ctx context.Context) (*server, error)

// serveCacheBytes is the server's compile-cache budget. The cache charges
// an entry for its response text, not for the lifted kernel and IR the
// cached Result also holds, so at the default 64 MiB the server's memory
// grows through a whole 20 s run and peak_rss_mb would measure the run's
// length. At this budget the cache fills in the first seconds, and the rest
// of the run inserts and evicts at a steady size.
const serveCacheBytes = 4 << 20

// serveProcess starts bin (a diosserve build) on a free loopback port with
// default flags but for the cache budget, and waits until it is ready.
func serveProcess(bin string) startServer {
	return func(ctx context.Context) (*server, error) {
		if bin == "" {
			return nil, errors.New("serve-mix needs -serve-bin (benchmark/run.sh builds it)")
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		l.Close()
		// Request logs go to the null device.
		cmd := exec.Command(bin, "-addr", addr, "-cache-bytes", strconv.Itoa(serveCacheBytes))
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		var once sync.Once
		var rss float64
		srv := &server{url: "http://" + addr, stop: func() float64 {
			once.Do(func() {
				_ = cmd.Process.Signal(syscall.SIGTERM)
				exited := make(chan struct{})
				go func() { _ = cmd.Wait(); close(exited) }()
				select {
				case <-exited:
				case <-time.After(15 * time.Second):
					_ = cmd.Process.Kill()
					<-exited
				}
				if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
					rss = float64(ru.Maxrss) * 1024 / 1e6
				}
			})
			return rss
		}}
		if err := waitReady(ctx, srv.url); err != nil {
			srv.stop()
			return nil, err
		}
		return srv, nil
	}
}

func waitReady(ctx context.Context, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return fmt.Errorf("server at %s never became ready", url)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// serveRig is a set-up serve-mix: the offline artifacts and a warm server.
type serveRig struct {
	set *compileSet
	srv *server
}

// runServe runs serve-mix: a closed loop of serveClients clients against a
// compile server, each reply checked against the offline artifact.
func runServe(ctx context.Context, cfg runConfig, start startServer) (*result, error) {
	res := newResult()
	client := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients},
	}
	defer client.CloseIdleConnections()

	rig, setupS, err := setUpRounds(func() (serveRig, error) {
		set, err := mixWorkload.setUp(ctx, cfg)
		if err != nil {
			return serveRig{}, err
		}
		for i, g := range set.golden {
			if g == nil {
				return serveRig{}, fmt.Errorf("offline compile of %s: %w", set.cases[i].name, set.errs[i])
			}
		}
		srv, err := start(ctx)
		if err != nil {
			return serveRig{}, err
		}
		for i := range set.cases { // one warm request per kernel fills the cache
			if o := request(ctx, client, srv.url, set, i, ""); o.err != nil {
				srv.stop()
				return serveRig{}, fmt.Errorf("warm request: %w", o.err)
			}
		}
		return serveRig{set, srv}, nil
	}, func(r serveRig) { r.srv.stop() })
	if err != nil {
		return nil, err
	}
	defer rig.srv.stop()

	loadCfg := cfg
	if cfg.trace {
		loadCfg.seconds /= 2 // the other half goes to the traced layer passes
	}
	alloc0, err := serverTotalAlloc(ctx, client, rig.srv.url)
	if err != nil {
		return nil, err
	}
	sv, lat, pr, elapsed := load(ctx, client, rig, loadCfg, res)
	alloc1, err := serverTotalAlloc(ctx, client, rig.srv.url)
	if err != nil {
		return nil, err
	}
	rss := rig.srv.stop()
	if cfg.trace {
		res.Detail["raw.setup_s"] = setupS
		return res, runLayers(ctx, rig.set, loadCfg, res, sv)
	}

	res.set("alloc_mb_per_op", "MB", float64(alloc1-alloc0)/1e6/float64(sv.requests))
	res.set("peak_rss_mb", "MB", rss)
	var all, medians []float64
	for _, class := range sortedKeys(lat) {
		xs := lat[class]
		all = append(all, xs...)
		medians = append(medians, median(xs))
		res.Kernels = append(res.Kernels, latencyRow(class, xs, nil))
	}
	setTimings(res, pr, setupS, float64(sv.ok)/elapsed, all, medians)
	rig.set.report(res)
	sv.report(func(name, _ string, v float64) { res.Detail[name] = v })
	return res, ctx.Err()
}

// serveStats are the serve-layer numbers of one load run.
type serveStats struct {
	requests, ok, hits, misses, coalesced, sheds int
	phases                                       map[string][]float64 // ms per request, from X-Dios-Server-Timing
}

// report passes the serve.* per-layer metrics to set; all are zero when s
// is empty, as on the compile workloads, which bypass the server.
func (s *serveStats) report(set func(name, unit string, v float64)) {
	p90 := func(phase string) float64 {
		v, _ := percentile(s.phases[phase], 0.9)
		return v
	}
	set("serve.queue_ms_p90", "ms", p90("queue"))
	set("serve.compile_ms_p90", "ms", p90("compile"))
	set("serve.serialize_ms_p90", "ms", p90("serialize"))
	hitRatio, shedFrac := 0.0, 0.0
	if mediated := s.hits + s.misses + s.coalesced; mediated > 0 {
		hitRatio = float64(s.hits+s.coalesced) / float64(mediated)
	}
	if s.requests > 0 {
		shedFrac = float64(s.sheds) / float64(s.requests)
	}
	set("serve.cache_hit_ratio", "ratio", hitRatio)
	set("serve.coalesced", "count", float64(s.coalesced))
	set("serve.shed_frac", "ratio", shedFrac)
}

// slot is one request of a serve-mix cycle.
type slot struct {
	kernel int
	salted bool
}

// serveProbeGap is how often serve-mix pauses its clients to run the
// calibration probe, which must run on a quiet machine, not beside the
// server; probeBurst is how many probes each pause runs.
const (
	serveProbeGap = time.Second
	probeBurst    = 5
)

// load drives the server until cfg says enough, handing out whole cycles
// of requests in a seeded order. It returns the serve-layer numbers, the
// latencies of the successful requests by "<kernel> <cache outcome>", the
// calibration probe, and the seconds spent driving load.
func load(ctx context.Context, client *http.Client, rig serveRig, cfg runConfig, res *result) (*serveStats, map[string][]float64, *probe, float64) {
	var cycle []slot
	for i, c := range rig.set.cases {
		cycle = append(cycle, slot{i, false})
		for n := 0; n < serveMisses[c.name]; n++ {
			cycle = append(cycle, slot{i, true})
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	saltBase := rng.Uint64()
	pr := newProbe()

	var (
		mu       sync.Mutex
		idle     = sync.NewCond(&mu) // signalled when a request completes or a pause ends
		inFlight int
		pausing  bool
		pending  []slot
		cycles   int
		issued   int
		sv       = &serveStats{phases: map[string][]float64{}}
		lat      = map[string][]float64{}
	)
	burst := func() {
		for k := 0; k < probeBurst; k++ {
			pr.run()
		}
	}
	start := time.Now()
	next := func() (slot, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		for pausing {
			idle.Wait()
		}
		if len(pending) == 0 {
			if cfg.done(start, cycles, issued, minSamples) || ctx.Err() != nil {
				return slot{}, 0, false
			}
			if time.Since(pr.last) >= serveProbeGap {
				pausing = true
				for inFlight > 0 {
					idle.Wait()
				}
				burst()
				pausing = false
				idle.Broadcast()
			}
			for _, j := range rng.Perm(len(cycle)) {
				pending = append(pending, cycle[j])
			}
			cycles++
		}
		s := pending[0]
		pending = pending[1:]
		issued++
		inFlight++
		return s, issued, true
	}
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s, seq, ok := next()
				if !ok {
					return
				}
				salt := ""
				if s.salted {
					salt = fmt.Sprintf("\n// bust %x-%d\n", saltBase, seq)
				}
				o := request(ctx, client, rig.srv.url, rig.set, s.kernel, salt)
				mu.Lock()
				inFlight--
				idle.Broadcast()
				res.op(o.err)
				sv.add(o)
				if o.err == nil {
					class := rig.set.cases[s.kernel].name + " " + o.cache
					lat[class] = append(lat[class], o.ms)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start) - pr.total
	burst() // close the window with a quiet probe too
	return sv, lat, pr, elapsed.Seconds()
}

func (s *serveStats) add(o serveOutcome) {
	s.requests++
	if o.status == http.StatusServiceUnavailable {
		s.sheds++
	}
	if o.err != nil {
		return
	}
	s.ok++
	switch o.cache {
	case "hit":
		s.hits++
	case "miss":
		s.misses++
	case "coalesced":
		s.coalesced++
	}
	for name, ms := range o.phases {
		s.phases[name] = append(s.phases[name], ms)
	}
}

// serveOutcome is one request as the client saw it.
type serveOutcome struct {
	status int
	ms     float64
	cache  string             // X-Dios-Cache
	phases map[string]float64 // X-Dios-Server-Timing, ms
	err    error
}

// request posts kernel k's source plus salt and checks that the served C
// text equals the offline artifact (a salt is only a comment).
func request(ctx context.Context, client *http.Client, url string, set *compileSet, k int, salt string) serveOutcome {
	name := set.cases[k].name
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/compile", strings.NewReader(set.cases[k].src+salt))
	if err != nil {
		return serveOutcome{err: err}
	}
	req.Header.Set("Content-Type", "text/plain")
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return serveOutcome{err: fmt.Errorf("%s: %w", name, err)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o := serveOutcome{
		status: resp.StatusCode,
		ms:     float64(time.Since(t0)) / float64(time.Millisecond),
		cache:  resp.Header.Get("X-Dios-Cache"),
		phases: parseServerTiming(resp.Header.Get("X-Dios-Server-Timing")),
	}
	var reply struct {
		C string `json:"c"`
	}
	switch {
	case err != nil:
		o.err = fmt.Errorf("%s: reading reply: %w", name, err)
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("%s: HTTP %d", name, resp.StatusCode)
	case json.Unmarshal(body, &reply) != nil:
		o.err = fmt.Errorf("%s: reply is not JSON", name)
	case reply.C != set.golden[k][0].C:
		o.err = fmt.Errorf("%s: served C differs from the offline CompileSource artifact", name)
	}
	return o
}

// parseServerTiming parses "queue;dur=0.012, compile;dur=3.100, ..." into
// milliseconds per phase.
func parseServerTiming(h string) map[string]float64 {
	out := map[string]float64{}
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		if ms, err := strconv.ParseFloat(dur, 64); err == nil {
			out[name] = ms
		}
	}
	return out
}

// serverTotalAlloc reads the server's cumulative heap allocation
// (runtime.MemStats.TotalAlloc) from the MemStats block its pprof allocs
// profile prints in debug mode.
func serverTotalAlloc(ctx context.Context, client *http.Client, url string) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/debug/pprof/allocs?debug=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("no TotalAlloc in the server's allocs profile (%v)", sc.Err())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
