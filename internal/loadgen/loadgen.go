// Package loadgen is the serving SLO observatory's load half: it drives
// sustained concurrent compile traffic at one or more diosserve replicas,
// records the latency distribution HDR-style (recorder.go), folds the
// server's per-request phase path (X-Dios-Server-Timing, parsed with
// telemetry.ParseServerTiming and kept in header order) and cache
// outcomes (X-Dios-Cache) into the result. cmd/diosload is the CLI; the
// HTML soak report lives in report.go.
//
// Two driving modes:
//
//   - closed loop (Rate == 0): Concurrency workers each keep exactly one
//     request in flight — throughput follows server capacity, latency
//     measures the server under a fixed multiprogramming level;
//   - open loop (Rate > 0): requests arrive on a fixed schedule regardless
//     of completions — latency includes queueing the way real clients see
//     it, and overload shows up as shed rate rather than falling arrival
//     rate.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"diospyros/internal/telemetry"
)

// Config parameterizes one run.
type Config struct {
	// URLs are the replica base URLs (e.g. http://localhost:8080),
	// round-robined across requests.
	URLs []string
	// Kernels is the source mix, cycled per request. Empty means
	// BuiltinMix().
	Kernels []Kernel
	// Concurrency is the closed-loop worker count. 0 means 4.
	Concurrency int
	// Rate switches to open-loop driving at this many arrivals/second;
	// 0 keeps the closed loop.
	Rate float64
	// Duration bounds the run. 0 means 10 s.
	Duration time.Duration
	// Timeout bounds one request. 0 means 60 s.
	Timeout time.Duration
	// CacheBust is the fraction of requests (0..1) salted with a unique
	// comment so they miss the server's content-addressed cache. 0 leaves
	// the mix fully cacheable; 1 makes every compile run the pipeline.
	CacheBust float64
	// Salt namespaces the cache-busting comments, so concurrent or repeated
	// runs don't accidentally share salted entries.
	Salt string
	// Targets asks each compile for these machine targets (JSON requests).
	// Empty sends plain-text requests for the server default.
	Targets []string
	// Window is the time-series bucket width. 0 means 1 s.
	Window time.Duration
	// Logger receives run progress. nil means silent.
	Logger *slog.Logger
	// Client overrides the HTTP client (tests). nil builds one sized to the
	// concurrency.
	Client *http.Client
}

// outcome is one completed request as the collector sees it.
type outcome struct {
	kernel  string
	status  int // HTTP status; 0 means transport failure
	timeout bool
	latency time.Duration
	at      time.Duration // completion offset from run start
	cache   string
	phases  []telemetry.Phase // from X-Dios-Server-Timing; nil if absent
}

// Run drives the configured load until the duration elapses or ctx is
// cancelled (a cancel ends the run early but still returns the result so
// far). The error is non-nil only for unusable configuration.
func Run(ctx context.Context, cfg Config) (*SoakResult, error) {
	if len(cfg.URLs) == 0 {
		return nil, errors.New("no replica URLs")
	}
	if len(cfg.Kernels) == 0 {
		cfg.Kernels = BuiltinMix()
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: cfg.Concurrency + 8,
		}}
		defer client.CloseIdleConnections()
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	outcomes := make(chan outcome, 256)
	start := time.Now()

	var seq atomic.Uint64
	shoot := func() outcome {
		n := seq.Add(1) - 1
		k := cfg.Kernels[n%uint64(len(cfg.Kernels))]
		url := cfg.URLs[n%uint64(len(cfg.URLs))]
		return oneRequest(runCtx, client, cfg, url, k, n, start)
	}

	var wg sync.WaitGroup
	if cfg.Rate > 0 {
		// Open loop: fixed arrival schedule, one goroutine per arrival.
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Duration(float64(time.Second) / cfg.Rate))
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tick.C:
					wg.Add(1)
					go func() {
						defer wg.Done()
						outcomes <- shoot()
					}()
				}
			}
		}()
	} else {
		// Closed loop: each worker keeps one request in flight.
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for runCtx.Err() == nil {
					o := shoot()
					select {
					case outcomes <- o:
					case <-ctx.Done():
						return
					}
				}
			}()
		}
	}
	go func() { wg.Wait(); close(outcomes) }()

	col := newCollector(cfg)
	lastLog := time.Now()
	for o := range outcomes {
		col.add(o)
		if time.Since(lastLog) >= 5*time.Second {
			lastLog = time.Now()
			cfg.Logger.Info("soaking",
				"requests", int64(col.total.Count())+col.failures,
				"ok", col.okCount, "sheds", col.sheds,
				"p50", col.ok.Quantile(0.5), "p99", col.ok.Quantile(0.99))
		}
	}
	return col.finalize(cfg, start, time.Since(start)), nil
}

// oneRequest fires one compile and classifies the reply.
func oneRequest(ctx context.Context, client *http.Client, cfg Config, url string, k Kernel, n uint64, start time.Time) outcome {
	src := k.Source
	if f := cfg.CacheBust; math.Floor(float64(n+1)*f) > math.Floor(float64(n)*f) {
		// Salting request n whenever floor((n+1)*f) steps past floor(n*f)
		// salts every prefix of the run, however short, in fraction f. A
		// unique comment changes the normalized source, so the server's
		// content-addressed cache cannot serve this request.
		src = fmt.Sprintf("%s\n// bust %s-%d\n", src, cfg.Salt, n)
	}
	body, contentType := []byte(src), "text/plain"
	if len(cfg.Targets) > 0 {
		body, _ = json.Marshal(map[string]any{"source": src, "targets": cfg.Targets})
		contentType = "application/json"
	}

	rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	began := time.Now()
	req, err := http.NewRequestWithContext(rctx, "POST", url+"/compile", bytes.NewReader(body))
	if err != nil {
		return outcome{kernel: k.Name, at: time.Since(start)}
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := client.Do(req)
	o := outcome{kernel: k.Name, latency: time.Since(began), at: time.Since(start)}
	if err != nil {
		o.timeout = errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil
		return o
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the conn is reusable
	o.latency = time.Since(began)
	o.status = resp.StatusCode
	o.cache = resp.Header.Get("X-Dios-Cache")
	if o.cache == "" {
		o.cache = "bypass"
	}
	o.phases = telemetry.ParseServerTiming(resp.Header.Get("X-Dios-Server-Timing"))
	return o
}

// mergeOrder adds the phases of one header that order does not list yet,
// each right after its predecessor in that header, so replies reporting
// different subsets of the path (a hit's four entries, a miss's compile.*
// children) merge into one header-ordered list.
func mergeOrder(order []string, ps []telemetry.Phase) []string {
	at := 0 // insertion point: just after the previous phase of ps
	for _, p := range ps {
		i := slices.Index(order, p.Path)
		if i < 0 {
			i = at
			order = slices.Insert(order, i, p.Path)
		}
		at = i + 1
	}
	return order
}

// kernelAgg accumulates one kernel's share of the run.
type kernelAgg struct {
	requests, ok int64
	hist         Hist
}

// windowAgg accumulates one time-series bucket.
type windowAgg struct {
	requests, ok, sheds, errors int64
	hist                        Hist
}

// collector folds outcomes into the aggregates a SoakResult reports. One
// goroutine owns it; no locking.
type collector struct {
	window time.Duration

	total    Hist // every completed request that got an HTTP status
	ok       Hist // 200s only
	failures int64

	okCount, sheds, timeouts, aborts, errors int64
	hits, misses, coalesced                  int64

	perKernel map[string]*kernelAgg
	perCache  map[string]*Hist
	perPhase  map[string]*Hist
	// phaseOrder lists the phases seen so far in header order (mergeOrder).
	phaseOrder []string
	windows    []*windowAgg
}

func newCollector(cfg Config) *collector {
	return &collector{
		window:    cfg.Window,
		perKernel: map[string]*kernelAgg{},
		perCache:  map[string]*Hist{},
		perPhase:  map[string]*Hist{},
	}
}

func (c *collector) add(o outcome) {
	ka := c.perKernel[o.kernel]
	if ka == nil {
		ka = &kernelAgg{}
		c.perKernel[o.kernel] = ka
	}
	ka.requests++

	wi := int(o.at / c.window)
	for len(c.windows) <= wi {
		c.windows = append(c.windows, &windowAgg{})
	}
	w := c.windows[wi]
	w.requests++

	if o.status == 0 {
		c.failures++
		if o.timeout {
			c.timeouts++
		} else {
			c.errors++
		}
		w.errors++
		return
	}
	c.total.Record(o.latency)
	switch o.status {
	case http.StatusOK:
		c.okCount++
		ka.ok++
		ka.hist.Record(o.latency)
		c.ok.Record(o.latency)
		w.ok++
		w.hist.Record(o.latency)
		switch o.cache {
		case "hit":
			c.hits++
		case "miss":
			c.misses++
		case "coalesced":
			c.coalesced++
		}
		ch := c.perCache[o.cache]
		if ch == nil {
			ch = &Hist{}
			c.perCache[o.cache] = ch
		}
		ch.Record(o.latency)
		c.phaseOrder = mergeOrder(c.phaseOrder, o.phases)
		for _, p := range o.phases {
			ph := c.perPhase[p.Path]
			if ph == nil {
				ph = &Hist{}
				c.perPhase[p.Path] = ph
			}
			ph.Record(p.Duration)
		}
	case http.StatusServiceUnavailable:
		c.sheds++
		w.sheds++
	case http.StatusGatewayTimeout:
		c.timeouts++
		w.errors++
	case http.StatusUnprocessableEntity:
		c.aborts++
		w.errors++
	default:
		c.errors++
		w.errors++
	}
}

func (c *collector) finalize(cfg Config, start time.Time, elapsed time.Duration) *SoakResult {
	names := make([]string, len(cfg.Kernels))
	for i, k := range cfg.Kernels {
		names[i] = k.Name
	}
	requests := int64(c.total.Count()) + c.failures
	res := &SoakResult{
		Schema:    SoakSchema,
		StartedAt: start.UTC().Format(time.RFC3339),
		Config: SoakConfig{
			URLs:        cfg.URLs,
			Kernels:     names,
			Concurrency: cfg.Concurrency,
			RatePerSec:  cfg.Rate,
			DurationSec: cfg.Duration.Seconds(),
			TimeoutSec:  cfg.Timeout.Seconds(),
			CacheBust:   cfg.CacheBust,
			Targets:     cfg.Targets,
		},
		Requests:       requests,
		OK:             c.okCount,
		Sheds:          c.sheds,
		Timeouts:       c.timeouts,
		Aborts:         c.aborts,
		Errors:         c.errors,
		CacheHits:      c.hits,
		CacheMisses:    c.misses,
		CacheCoalesced: c.coalesced,
		Latency:        c.ok.Summary(),
		AllLatency:     c.total.Summary(),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.ThroughputRPS = float64(requests) / sec
	}
	if requests > 0 {
		res.ErrorRate = float64(c.errors+c.timeouts+c.aborts) / float64(requests)
		res.ShedRate = float64(c.sheds) / float64(requests)
	}
	if mediated := c.hits + c.misses + c.coalesced; mediated > 0 {
		res.CacheHitRatio = float64(c.hits+c.coalesced) / float64(mediated)
	}
	if len(c.perPhase) > 0 {
		res.Phases = map[string]LatencyMS{}
		for name, h := range c.perPhase {
			res.Phases[name] = h.Summary()
		}
		res.PhaseOrder = c.phaseOrder
	}
	for name, ka := range c.perKernel {
		res.PerKernel = append(res.PerKernel, KernelStats{
			Kernel: name, Requests: ka.requests, OK: ka.ok, Latency: ka.hist.Summary(),
		})
	}
	sort.Slice(res.PerKernel, func(i, j int) bool {
		return res.PerKernel[i].Kernel < res.PerKernel[j].Kernel
	})
	for outcome, h := range c.perCache {
		res.PerCache = append(res.PerCache, CacheStats{
			Outcome: outcome, Requests: int64(h.Count()), Latency: h.Summary(),
		})
	}
	sort.Slice(res.PerCache, func(i, j int) bool {
		return res.PerCache[i].Outcome < res.PerCache[j].Outcome
	})
	for i, w := range c.windows {
		win := Window{
			T:        float64(i) * c.window.Seconds(),
			Requests: w.requests,
			OK:       w.ok,
			Sheds:    w.sheds,
			Errors:   w.errors,
			P50:      float64(w.hist.Quantile(0.5)) / float64(time.Millisecond),
			P99:      float64(w.hist.Quantile(0.99)) / float64(time.Millisecond),
		}
		if s := c.window.Seconds(); s > 0 {
			win.RPS = float64(w.requests) / s
		}
		res.Series = append(res.Series, win)
	}
	return res
}
