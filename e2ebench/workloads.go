package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/funseeker/funseeker/internal/obs"
)

// workload is one traffic mix. run sets up the servers, measures, checks
// and records the workload's metrics on e.
type workload struct {
	name string
	// config is the Table II configuration f1_pct is scored at: the one
	// every binary of the pool is answered at.
	config int
	// checks are the workload's own correctness checks; each must run at
	// least once and never fail for the run to count as correct.
	checks []string
	run    func(ctx context.Context, e *env) error
}

// The four workloads. Why each exists is recorded in BENCHMARK.json and
// README.md: batch-cold and analyze-large exercise the analysis path
// (small and large binaries), warm-open bypasses it entirely (every answer
// is an LRU hit), and restart-mixed is the only one with the persistent
// store, its restart replay and the router hop.
var workloads = []*workload{
	{name: "batch-cold", config: 4, checks: []string{"batch-order", "batch-summary"}, run: runBatchCold},
	{name: "analyze-large", config: 5, run: runAnalyzeLarge},
	{name: "warm-open", config: 4, checks: []string{"warm-lru"}, run: runWarmOpen},
	{name: "restart-mixed", config: 4, checks: []string{"restart-store-replay", "restart-first-time-cold",
		"restart-prefilled-warm", "restart-analyzed"}, run: runRestartMixed},
}

// pick returns the full-run value, or the smoke value in the smoke test.
func pick[T any](e *env, full, smoke T) T {
	if e.o.smoke {
		return smoke
	}
	return full
}

// phaseOut is what one measured phase observed.
type phaseOut struct {
	servers []*proc // checked for liveness when a request fails
	lat     samples // client latency per operation
	wall    time.Duration
	// speeds are the host speeds timed before each slice and after the
	// last; walls are the slices' durations, and ends[i] is how many
	// latency samples had been taken when slice i ended.
	speeds []float64
	walls  []time.Duration
	ends   []int
	cpu    time.Duration // serving processes' CPU time
	rss    []rssSample   // serving processes' summed resident set every 20 ms
	// memUntil, when set, ends the window rss_p90_mb is taken over: a
	// workload whose caches grow with every operation compares memory at
	// equal work, not equal time.
	memUntil time.Time

	attempted, failed atomic.Int64

	mu       sync.Mutex
	bytes    int64 // ELF bytes answered
	items    int64 // binaries answered
	ex       []exchange
	firstErr error
}

// fail counts n failed operations and keeps the first error.
func (po *phaseOut) fail(n int64, err error) {
	po.failed.Add(n)
	po.mu.Lock()
	if po.firstErr == nil {
		po.firstErr = err
	}
	po.mu.Unlock()
}

// answered records one binary of n ELF bytes answered.
func (po *phaseOut) answered(n int64) {
	po.mu.Lock()
	po.bytes += n
	po.items++
	po.mu.Unlock()
}

// span records x as a client span when tracing is on.
func (po *phaseOut) span(e *env, name string, x exchange) {
	if e.tr.add(name, x.id, "", x.start, x.end) != "" {
		po.mu.Lock()
		po.ex = append(po.ex, x)
		po.mu.Unlock()
	}
}

func (po *phaseOut) mbs() float64 { return float64(po.bytes) / 1e6 / po.wall.Seconds() }

// sliceSpeed is the host speed through slice i: the mean of the timings
// before and after it.
func (po *phaseOut) sliceSpeed(i int) float64 { return (po.speeds[i] + po.speeds[i+1]) / 2 }

// speed is the host speed through the phase: the slices' speeds weighted
// by their durations. A rate divided by it is the rate on the reference
// host.
func (po *phaseOut) speed() float64 {
	var ref, wall float64
	for i, w := range po.walls {
		ref += w.Seconds() * po.sliceSpeed(i)
		wall += w.Seconds()
	}
	return ref / wall
}

// scaledLatency is the q-quantile of the phase's latencies, each
// multiplied by the host speed of the slice it was taken in: the latency
// on the reference host.
func (po *phaseOut) scaledLatency(q float64) float64 {
	po.lat.mu.Lock()
	defer po.lat.mu.Unlock()
	scaled := make([]float64, len(po.lat.ms))
	i := 0
	for k, ms := range po.lat.ms {
		for k >= po.ends[i] {
			i++
		}
		scaled[k] = ms * po.sliceSpeed(i)
	}
	return quantileOf(scaled, q)
}

// rssP90 is the 90th percentile of the resident-set samples taken up to
// memUntil (all of them when it is unset).
func (po *phaseOut) rssP90() float64 {
	var mb []float64
	for _, s := range po.rss {
		if po.memUntil.IsZero() || !s.t.After(po.memUntil) {
			mb = append(mb, s.mb)
		}
	}
	return quantileOf(mb, 0.9)
}

// alive returns an error naming the first server that has exited.
func (po *phaseOut) alive() error {
	for _, p := range po.servers {
		if err := p.alive(); err != nil {
			return err
		}
	}
	return nil
}

// measure issues one measured analyze request to p. Latency runs from due
// (the send time when due is zero) into lat. A failed request is counted,
// not fatal, unless a server has died; the answer is then nil.
func (e *env) measure(ctx context.Context, po *phaseOut, lat *samples, p *proc, it *item, config int, due time.Time) (*answer, exchange, error) {
	po.attempted.Add(1)
	a, x, err := e.client.analyze(ctx, p.url(), it, config)
	if err != nil {
		if ctx.Err() != nil {
			return nil, x, ctx.Err()
		}
		po.fail(1, err)
		return nil, x, po.alive()
	}
	if due.IsZero() {
		due = x.start
	}
	lat.add(x.end.Sub(due))
	po.answered(int64(len(it.raw)))
	po.span(e, "client.analyze", x)
	e.score.score(it, config, a)
	return a, x, nil
}

// closedLoop runs workers callers that each send their next operation as
// soon as the previous one returns, until d has passed or op reports no
// more work. It returns the time from the start to the last completion.
func closedLoop(ctx context.Context, workers int, d time.Duration, op func(ctx context.Context, w int) (bool, error)) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(d)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				more, err := op(ctx, w)
				if err != nil {
					errs[w] = err
					return
				}
				if !more {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// startServer execs one server and waits for its first 200 on
// /v1/healthz.
func (e *env) startServer(ctx context.Context, name, bin, addr string, args ...string) (*proc, error) {
	p, err := e.start(name, bin, addr, args...)
	if err != nil {
		return nil, err
	}
	return p, e.waitHealthy(ctx, p, "/v1/healthz")
}

// setupFunseekerd starts one funseekerd count times in a row (stopping the
// previous one), runs warm on each, and records the median exec-to-ready
// time. The last server stays up.
func (e *env) setupFunseekerd(ctx context.Context, count int, warm func(*proc) error, args ...string) (*proc, error) {
	var srv *proc
	var setups samples
	for i := 0; i < count; i++ {
		if err := e.beforeSetup(ctx, i); err != nil {
			return nil, err
		}
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if srv, err = e.startServer(ctx, "funseekerd", "funseekerd", addr, append(args, "-log", "json")...); err != nil {
			return nil, err
		}
		if warm != nil {
			if err := warm(srv); err != nil {
				return nil, err
			}
		}
		setups.add(time.Since(t0))
	}
	e.setSetup(&setups)
	return srv, nil
}

// setupRound is how many set-ups are timed back to back; a second passes
// between rounds.
const setupRound = 5

// beforeSetup runs before the run's i-th set-up is timed. Before the first
// it collects the benchmark's own garbage and returns the freed memory to
// the system: generating the inputs allocates heavily, and a collection or
// the scavenger finishing that work on the same two CPUs would be timed as
// server start-up. Before each later round it waits a second, so that the
// median spans several seconds of the host's state rather than one burst of
// a neighbour's load: back-to-back set-ups left medians 20–30% apart
// (interquartile) between seeds, rounds a second apart 6–10%.
func (e *env) beforeSetup(ctx context.Context, i int) error {
	switch {
	case i == 0:
		debug.FreeOSMemory()
	case i%setupRound == 0 && !e.o.smoke:
		return sleep(ctx, time.Second)
	}
	return nil
}

// setSetup records the median of the run's set-ups as raw.setup_s. The
// measured phase later records setup_s, the median scaled to the reference
// host (see measurePhases).
func (e *env) setSetup(s *samples) {
	e.setup = s.quantile(0.5) / 1000
	e.set("raw.setup_s", e.setup, "s")
	e.set("setup_runs", float64(s.count()), "count")
}

// analyzeAll analyzes every item once at config through p with nproc
// closed-loop callers, unmeasured: the prefill of a warm workload or the
// warm-up of a cold one. Any failure is fatal.
func (e *env) analyzeAll(ctx context.Context, p *proc, pool []*item, config int) error {
	var cursor atomic.Int64
	_, err := closedLoop(ctx, e.nproc, time.Hour, func(ctx context.Context, _ int) (bool, error) {
		i := int(cursor.Add(1) - 1)
		if i >= len(pool) {
			return false, nil
		}
		a, _, err := e.client.analyze(ctx, p.url(), pool[i], config)
		if err != nil {
			return false, p.failed(fmt.Errorf("analyzing %s: %w", pool[i].name, err))
		}
		e.score.score(pool[i], config, a)
		return true, nil
	})
	return err
}

// scrapeAll snapshots every funseekerd in ps.
func (e *env) scrapeAll(ctx context.Context, ps []*proc) ([]snap, error) {
	out := make([]snap, len(ps))
	for i, p := range ps {
		var err error
		if out[i], err = e.scrape(ctx, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// finish records the servers' summed VmHWM as the peak_rss_mb diagnostic
// and then stops them, so in-process replays run on an otherwise idle
// host.
func (e *env) finish(ps ...*proc) error {
	total := 0.0
	for _, p := range ps {
		mb, err := p.peakRSS()
		if err != nil {
			return err
		}
		total += mb
	}
	e.set("peak_rss_mb", total, "MB")
	return stopAll(ps)
}

// protocol is one workload's measured phase and its optional hooks.
type protocol struct {
	// servers are the funseekerd processes, observed from their start;
	// others are further serving processes (the router) whose CPU and
	// memory count toward the workload's.
	servers, others []*proc
	// warmup runs once before the first phase, unmeasured.
	warmup func(ctx context.Context) error
	// slices is how many slices the phase is cut into (phaseSlices when
	// 0); the host is timed before each slice and after the last.
	slices int
	// run measures slice i, which should last about d, and returns the
	// time it took.
	run func(ctx context.Context, po *phaseOut, i int, d time.Duration) (time.Duration, error)
	// afterPhase runs after every phase with the servers' counter deltas.
	afterPhase func(po *phaseOut, phase serverDelta)
	// beforeTraced runs between the untraced and the traced phase and
	// returns the servers of the traced phase.
	beforeTraced func(ctx context.Context) ([]*proc, error)
}

// phaseSlices is the default number of slices of a measured phase: enough
// host timings to follow its drift through the phase.
const phaseSlices = 8

// measured is what the protocol observed. untraced gives the end-to-end
// metrics; traced is nil outside traced runs. phase and life are the
// servers' deltas over the last phase and over their lifetime.
type measured struct {
	untraced, traced *phaseOut
	phase, life      serverDelta
}

// measurePhases runs the protocol: the untraced phase, and in traced runs the
// same phase again with spans on, whose server deltas feed the per-layer
// metrics, the access-log join and the tracing overhead. Both phases time
// the host between their slices; the untraced phase's timings scale its
// end-to-end metrics.
func (e *env) measurePhases(ctx context.Context, pr protocol) (*measured, error) {
	var m measured
	ps := pr.servers
	n := pr.slices
	if n == 0 {
		n = phaseSlices
	}
	one := func() (*phaseOut, error) {
		all := append(slices.Clone(ps), pr.others...)
		po := &phaseOut{servers: all}
		before, err := e.scrapeAll(ctx, ps)
		if err != nil {
			return nil, err
		}
		cpu0, err := cpuTotal(all)
		if err != nil {
			return nil, err
		}
		stopRSS := sampleRSS(all)
		for i := 0; i <= n; i++ {
			speed, err := e.hostSpeed(ctx)
			if err != nil {
				stopRSS()
				return nil, err
			}
			po.speeds = append(po.speeds, speed)
			if i == n {
				break
			}
			wall, err := pr.run(ctx, po, i, e.phase/time.Duration(n))
			if err != nil {
				stopRSS()
				return nil, err
			}
			po.wall += wall
			po.walls = append(po.walls, wall)
			po.ends = append(po.ends, po.lat.count())
		}
		po.rss = stopRSS()
		cpu1, err := cpuTotal(all)
		if err != nil {
			return nil, err
		}
		po.cpu = cpu1 - cpu0
		after, err := e.scrapeAll(ctx, ps)
		if err != nil {
			return nil, err
		}
		if po.items == 0 {
			return nil, errors.New("no operation completed in the measured phase")
		}
		m.phase, m.life = diff(before, after), diff(zeroSnaps(len(ps)), after)
		if pr.afterPhase != nil {
			pr.afterPhase(po, m.phase)
		}
		e.attempted += po.attempted.Load()
		e.failed += po.failed.Load()
		if po.firstErr != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %d failed operations, the first: %v\n", e.w.name, po.failed.Load(), po.firstErr)
		}
		return po, nil
	}
	if pr.warmup != nil {
		if err := pr.warmup(ctx); err != nil {
			return nil, err
		}
	}
	var err error
	if m.untraced, err = one(); err != nil {
		return nil, err
	}
	speed := m.untraced.speed()
	e.set("host.speed", speed, "ratio")
	// The set-ups ran seconds before the phase, close enough for its host
	// speed to cancel the host's drift from minute to minute, which moved
	// raw set-up medians by a fifth between sets of runs.
	e.set("setup_s", e.setup*speed, "s")
	e.set("rss_p90_mb", m.untraced.rssP90(), "MB")
	if !e.o.trace {
		return &m, nil
	}
	if pr.beforeTraced != nil {
		if ps, err = pr.beforeTraced(ctx); err != nil {
			return nil, err
		}
	}
	e.tr.enable()
	if m.traced, err = one(); err != nil {
		return nil, err
	}
	e.tracedSpeed = m.traced.speed()
	// Each phase's p50 is scaled to the host speed, as p50_ms is.
	e.set("trace.overhead_pct", 100*(m.traced.scaledLatency(0.5)/m.untraced.scaledLatency(0.5)-1), "%")
	e.serverMetrics(m.phase, m.life)
	return &m, e.joinHandlers(ps, m.traced.ex)
}

// latencyMetrics records p50_ms, the median latency scaled to the
// reference host, beside its raw value and the unscaled p99.
func (e *env) latencyMetrics(po *phaseOut) {
	e.set("p50_ms", po.scaledLatency(0.5), "ms")
	e.set("raw.p50_ms", po.lat.quantile(0.5), "ms")
	e.set("client.p99_ms", po.lat.quantile(0.99), "ms")
}

// closedMetrics records the end-to-end metrics of a closed-loop phase; its
// throughput, too, is scaled to the reference host.
func (e *env) closedMetrics(po *phaseOut) {
	e.latencyMetrics(po)
	e.set("mb_s", po.mbs()/po.speed(), "MB/s")
	e.set("raw.mb_s", po.mbs(), "MB/s")
}

// runBatchCold streams the same archive of small binaries to one
// funseekerd with the cache disabled, so every member is a cold analysis.
func runBatchCold(ctx context.Context, e *env) error {
	pool, err := smallPool(e.o.seed, "batch", pick(e, 1536, 48), e.nproc)
	if err != nil {
		return err
	}
	archive, err := tarArchive(pool)
	if err != nil {
		return err
	}
	srv, err := e.setupFunseekerd(ctx, pick(e, 25, 2), nil, "-cache-bytes", "-1")
	if err != nil {
		return err
	}
	m, err := e.measurePhases(ctx, protocol{
		servers: []*proc{srv},
		warmup: func(ctx context.Context) error {
			warm := &phaseOut{servers: []*proc{srv}}
			if err := e.sendBatch(ctx, warm, srv, archive, pool); err != nil {
				return err
			}
			if warm.firstErr != nil {
				return fmt.Errorf("warm-up archive: %w", warm.firstErr)
			}
			return nil
		},
		run: func(ctx context.Context, po *phaseOut, _ int, d time.Duration) (time.Duration, error) {
			start := time.Now()
			for first := true; first || time.Since(start) < d; first = false {
				if err := e.sendBatch(ctx, po, srv, archive, pool); err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		},
	})
	if err != nil {
		return err
	}
	e.closedMetrics(m.untraced)
	e.set("archives", float64(m.untraced.lat.count()), "count")
	if err := e.finish(srv); err != nil || m.traced == nil {
		return err
	}
	lc, err := e.replay(ctx, stride(pool, 768), func(int) int { return 4 }, "")
	if err != nil {
		return err
	}
	e.engineRatio(lc, m.phase)
	e.ledger(lc, m.traced.items, m.traced.cpu, map[string]float64{"engine.key": 1, "elfx.load": 1, "core.identify": 1, "encode.report": 1})
	return nil
}

// batchLine is one NDJSON line of a /v1/batch response.
type batchLine struct {
	Index   int     `json:"index"`
	Name    string  `json:"name"`
	Error   string  `json:"error"`
	Result  *answer `json:"result"`
	Summary bool    `json:"summary"`
	Items   int     `json:"items"`
	OK      int     `json:"ok"`
	Errors  int     `json:"errors"`
}

// sendBatch POSTs one archive and checks the streamed records: archive
// order, one answer per member, and a summary whose counts equal the
// member counts.
func (e *env) sendBatch(ctx context.Context, po *phaseOut, p *proc, archive []byte, pool []*item) error {
	c := e.client
	x := exchange{id: c.nextID()}
	po.attempted.Add(int64(len(pool)))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url()+"/v1/batch?config=4", bytes.NewReader(archive))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-tar")
	req.Header.Set(obs.RequestIDHeader, x.id)
	x.start = time.Now()
	resp, err := c.hc.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		err = fmt.Errorf("batch: status %d: %.200s", resp.StatusCode, body)
	}
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		po.fail(int64(len(pool)), err)
		return p.alive()
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	var ok, errs int
	var summary *batchLine
	for next := 0; summary == nil; next++ {
		line, rerr := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var rec batchLine
			if err := json.Unmarshal(line, &rec); err != nil {
				return p.failed(fmt.Errorf("batch: undecodable record: %w", err))
			}
			if rec.Summary {
				summary = &rec
				continue
			}
			e.checks.expect("batch-order", next < len(pool) && rec.Index == next && rec.Name == pool[next].name, func() string {
				return fmt.Sprintf("record %d: index %d name %q", next, rec.Index, rec.Name)
			})
			switch {
			case next >= len(pool):
			case rec.Error != "" || rec.Result == nil:
				errs++
				po.fail(1, fmt.Errorf("batch member %s: %s", pool[next].name, rec.Error))
			default:
				ok++
				po.answered(int64(len(pool[next].raw)))
				e.score.score(pool[next], 4, rec.Result)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return p.failed(fmt.Errorf("batch stream: %w", rerr))
		}
	}
	x.end = time.Now()
	e.checks.expect("batch-summary", summary != nil && summary.Items == len(pool) && summary.OK == ok &&
		summary.Errors == errs && ok+errs == len(pool), func() string {
		return fmt.Sprintf("summary %+v for %d members (%d ok, %d errors)", summary, len(pool), ok, errs)
	})
	if missing := len(pool) - ok - errs; missing > 0 {
		po.fail(int64(missing), fmt.Errorf("batch stream ended %d members short", missing))
	}
	po.lat.add(x.end.Sub(x.start))
	po.span(e, "client.batch", x)
	return nil
}

// runAnalyzeLarge sends large binaries from nproc closed-loop clients to
// a funseekerd with the cache disabled; each client cycles its own share
// of the pool so no two requests coalesce.
func runAnalyzeLarge(ctx context.Context, e *env) error {
	pool, err := largePool(e.o.seed, pick(e, 24, 4), pick(e, 20.0, 2.0), e.nproc)
	if err != nil {
		return err
	}
	e.set("pool_mb", float64(poolBytes(pool))/1e6, "MB")
	srv, err := e.setupFunseekerd(ctx, pick(e, 25, 2), nil, "-cache-bytes", "-1")
	if err != nil {
		return err
	}
	next := make([]int, e.nproc) // each client's position in its share of the pool
	m, err := e.measurePhases(ctx, protocol{
		servers: []*proc{srv},
		warmup:  func(ctx context.Context) error { return e.analyzeAll(ctx, srv, pool, 5) },
		run: func(ctx context.Context, po *phaseOut, _ int, d time.Duration) (time.Duration, error) {
			return closedLoop(ctx, e.nproc, d, func(ctx context.Context, w int) (bool, error) {
				i := w + e.nproc*next[w]
				if i >= len(pool) {
					next[w], i = 0, w
				}
				next[w]++
				_, _, err := e.measure(ctx, po, &po.lat, srv, pool[i], 5, time.Time{})
				return true, err
			})
		},
	})
	if err != nil {
		return err
	}
	e.closedMetrics(m.untraced)
	if err := e.finish(srv); err != nil || m.traced == nil {
		return err
	}
	lc, err := e.replay(ctx, append(pool, pool...), func(int) int { return 5 }, "")
	if err != nil {
		return err
	}
	e.engineRatio(lc, m.phase)
	e.ledger(lc, m.traced.items, m.traced.cpu, map[string]float64{"engine.key": 1, "elfx.load": 1, "core.identify": 1, "encode.report": 1})
	return nil
}

// engineRatio records the replayed engine-layer time per cold analysis
// (key, load, identify) over the servers' own analyze time minus queue
// wait, on workloads where every Analyze call is a cold analysis.
func (e *env) engineRatio(lc layerCosts, phase serverDelta) {
	if phase.analyzeCount == 0 {
		return
	}
	service := (phase.analyzeSum - phase.queueSum) / phase.analyzeCount
	replayed := (lc["engine.key"] + lc["elfx.load"] + lc["core.identify"]).Seconds()
	e.set("engine.replay_ratio", replayed*e.replayScale/service, "ratio")
}

// warmRates are the arrival rates of warm-open's slices, in requests per
// second: one slice at the bottom rate, six at the rate p50_ms is taken at
// (the second), and one at the top rate, whose goodput is mb_s. The gated
// rate fills most of the phase because the median latency at a fixed rate
// varies from slice to slice by several percent on a shared host.
var warmRates = []float64{1000, 2000, 2000, 2000, 2000, 2000, 2000, 4000}

// runWarmOpen prefills one funseekerd's LRU with every binary, then sends
// open-loop Poisson arrivals with Zipf popularity at each ladder rate;
// latency runs from each request's due time.
func runWarmOpen(ctx context.Context, e *env) error {
	pool, err := smallPool(e.o.seed, "warm", pick(e, 2048, 64), e.nproc)
	if err != nil {
		return err
	}
	var srv *proc
	srv, err = e.setupFunseekerd(ctx, pick(e, 3, 2), func(p *proc) error { return e.analyzeAll(ctx, p, pool, 4) })
	if err != nil {
		return err
	}
	rates := pick(e, warmRates, []float64{50, 100, 200})
	var ladders [][]*openStep // one ladder per phase
	m, err := e.measurePhases(ctx, protocol{servers: []*proc{srv}, slices: len(rates),
		run: func(ctx context.Context, po *phaseOut, i int, d time.Duration) (time.Duration, error) {
			if i == 0 {
				ladders = append(ladders, nil)
			}
			rng := rand.New(rand.NewSource(mix(e.o.seed, int64(i))))
			start := time.Now()
			st, err := e.openLoop(ctx, po, srv, pool, rates[i], d, rng)
			if err != nil {
				return 0, err
			}
			ladders[len(ladders)-1] = append(ladders[len(ladders)-1], st)
			if rates[i] == rates[1] {
				po.lat.addAll(&st.lat) // p50_ms and the tracing overhead take these slices
			}
			return time.Since(start), nil
		}})
	if err != nil {
		return err
	}
	e.ladderMetrics(ladders[0])
	e.latencyMetrics(m.untraced) // its latencies are the gated rate's
	if err := e.finish(srv); err != nil || m.traced == nil {
		return err
	}
	lc, err := e.replay(ctx, stride(pool, 768), func(int) int { return 4 }, "")
	if err != nil {
		return err
	}
	e.ledger(lc, m.traced.items, m.traced.cpu, map[string]float64{"engine.key": 1, "encode.report": 1})
	return nil
}

// openStep is the outcome of one slice, or of all slices at one rate.
type openStep struct {
	rate      float64
	lat, late samples
	start     time.Time
	last      time.Time // last completion
	failed    int64
	bytes     int64
	drained   bool // every request done within the step plus one second
}

// openLoop sends Poisson arrivals at rate for d, with Zipf(1.1)
// popularity over pool, from nproc senders (one per connection). A sender
// that falls behind sends late; latency counts from the due time, and
// lateness is the send time minus the due time.
func (e *env) openLoop(ctx context.Context, po *phaseOut, p *proc, pool []*item, rate float64, d time.Duration, rng *rand.Rand) (*openStep, error) {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	var due []time.Duration
	var which []int
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
		which = append(which, int(zipf.Uint64()))
	}
	st := &openStep{rate: rate, start: time.Now().Add(time.Millisecond)}
	failedBefore := po.failed.Load()
	var cursor atomic.Int64
	var mu sync.Mutex
	errs := make([]error, e.nproc)
	var wg sync.WaitGroup
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := st.start.Add(due[i])
				if err := sleepUntil(ctx, at); err != nil {
					errs[w] = err
					return
				}
				it := pool[which[i]]
				a, x, err := e.measure(ctx, po, &st.lat, p, it, 4, at)
				if err != nil {
					errs[w] = err
					return
				}
				if a == nil {
					continue
				}
				st.late.add(x.start.Sub(at))
				e.checks.expect("warm-lru", a.cached() == "lru", func() string {
					return fmt.Sprintf("%s answered cached=%v, want lru", it.name, a.Cached)
				})
				mu.Lock()
				st.bytes += int64(len(it.raw))
				if x.end.After(st.last) {
					st.last = x.end
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	st.failed = po.failed.Load() - failedBefore
	st.drained = !st.last.After(st.start.Add(d + time.Second))
	return st, errors.Join(errs...)
}

// ladderMetrics records warm-open's ladder metrics: the ELF MB/s delivered
// in the last slice, at the top rate (4,000 req/s), which falls below the
// offered load only when the server cannot keep up with it; the highest
// rate meeting the latency limit; and each rate's percentiles as
// diagnostics. Closed-loop cache-hit capacity is not gated: on the 2-vCPU
// host it swings by a fifth from run to run.
func (e *env) ladderMetrics(steps []*openStep) {
	var rates []float64
	byRate := map[float64]*openStep{}
	for _, st := range steps {
		r := byRate[st.rate]
		if r == nil {
			r = &openStep{rate: st.rate, drained: true}
			byRate[st.rate] = r
			rates = append(rates, st.rate)
		}
		r.lat.addAll(&st.lat)
		r.late.addAll(&st.late)
		r.failed += st.failed
		r.drained = r.drained && st.drained
	}
	best := 0.0
	for _, rate := range rates {
		st := byRate[rate]
		p99, late := st.lat.quantile(0.99), st.late.quantile(0.99)
		tag := fmt.Sprintf("at%.0f.", rate)
		e.set(tag+"p50_ms", st.lat.quantile(0.5), "ms")
		e.set(tag+"p99_ms", p99, "ms")
		e.set(tag+"late_p99_ms", late, "ms")
		if p99 <= 20 && late <= 5 && st.drained && st.failed == 0 {
			best = max(best, rate)
		}
	}
	e.set("max_rate_rps", best, "1/s")
	top := steps[len(steps)-1]
	e.set("mb_s", float64(top.bytes)/1e6/top.last.Sub(top.start).Seconds(), "MB/s")
}

// stride returns at most n items spread evenly over pool.
func stride(pool []*item, n int) []*item {
	if len(pool) <= n {
		return pool
	}
	out := make([]*item, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pool[i*len(pool)/n])
	}
	return out
}

// restartOp is one restart-mixed operation: a config-4 read of a
// prefilled binary, or a first-time (binary, config) key.
type restartOp struct {
	item, config int
	first        bool
}

// restartOps is the fixed restart-mixed sequence for seed: 80% Zipf(1.1)
// reads of prefilled config-4 keys, 20% first-time keys drawn without
// replacement from (binary, config ∈ {1,2,3,5}). It ends when the
// first-time keys run out, so the mix holds to the last operation.
func restartOps(seed int64, n int) []restartOp {
	rng := rand.New(rand.NewSource(mix(seed, tagSeed("ops"))))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	configs := []int{1, 2, 3, 5}
	firsts := rng.Perm(n * len(configs))
	var ops []restartOp
	for len(firsts) > 0 {
		if rng.Float64() < 0.2 {
			f := firsts[0]
			firsts = firsts[1:]
			ops = append(ops, restartOp{item: f / len(configs), config: configs[f%len(configs)], first: true})
		} else {
			ops = append(ops, restartOp{item: int(zipf.Uint64()), config: 4})
		}
	}
	return ops
}

// runRestartMixed runs two store-backed funseekerd replicas behind
// funseeker-lb: it prefills them through the router, restarts both on
// their store directories, and then drives the fixed read/first-time mix
// through the router.
func runRestartMixed(ctx context.Context, e *env) error {
	n := pick(e, 4096, 256)
	pool, err := smallPool(e.o.seed, "restart", n, e.nproc)
	if err != nil {
		return err
	}
	names := []string{"funseekerd-a", "funseekerd-b"}
	addrs := make([]string, 2)
	dirs := make([]string, 2)
	for i := range addrs {
		if addrs[i], err = freeAddr(); err != nil {
			return err
		}
		dirs[i] = filepath.Join(e.dir, "store-"+names[i])
	}
	startReplicas := func(ctx context.Context) ([]*proc, error) {
		ps := make([]*proc, 2)
		for i := range ps {
			var err error
			if ps[i], err = e.start(names[i], "funseekerd", addrs[i], "-store-dir", dirs[i], "-log", "json"); err != nil {
				return nil, err
			}
		}
		for _, p := range ps {
			if err := e.waitHealthy(ctx, p, "/v1/healthz"); err != nil {
				return nil, err
			}
		}
		return ps, nil
	}
	reps, err := startReplicas(ctx)
	if err != nil {
		return err
	}
	lbAddr, err := freeAddr()
	if err != nil {
		return err
	}
	lb, err := e.startServer(ctx, "funseeker-lb", "funseeker-lb", lbAddr,
		"-backends", reps[0].url()+","+reps[1].url(), "-replicas", "2", "-health-interval", "100ms", "-log", "json")
	if err != nil {
		return err
	}
	if err := e.analyzeAll(ctx, lb, pool, 4); err != nil {
		return err
	}
	// stored is the record count each replica's store must reach: every
	// prefilled key plus every first-time key answered so far, each
	// replicated to both.
	stored := n
	var firsts atomic.Int64
	// restart waits for replication to settle, SIGTERMs both replicas,
	// restarts them on their store directories (the set-up time runs from
	// exec to both healthy) and checks the replayed stores. Traffic waits
	// until the router has both back in its ring.
	var setups samples
	restart := func(ctx context.Context) ([]*proc, error) {
		stored += int(firsts.Swap(0))
		if err := e.waitRecords(ctx, reps, stored); err != nil {
			return nil, err
		}
		if err := stopAll(reps); err != nil {
			return nil, err
		}
		t0 := time.Now()
		ps, err := startReplicas(ctx)
		if err != nil {
			return nil, err
		}
		setups.add(time.Since(t0))
		for _, p := range ps {
			records, err := e.storeRecords(ctx, p)
			if err != nil {
				return nil, err
			}
			e.checks.expect("restart-store-replay", records == stored, func() string {
				return fmt.Sprintf("%s replayed %d records, want %d", p.name, records, stored)
			})
		}
		reps = ps
		return ps, nil
	}
	// One restart takes 25-60 ms on the 2-vCPU reference host, varying by
	// a fifth from one to the next, so setup_s is the median of many.
	for i := 0; i < pick(e, 20, 2); i++ {
		if err := e.beforeSetup(ctx, i); err != nil {
			return err
		}
		if _, err := restart(ctx); err != nil {
			return err
		}
	}
	e.setSetup(&setups)
	if err := e.waitRing(ctx, lb, 2); err != nil {
		return err
	}

	ops := restartOps(e.o.seed, n)
	// Every operation adds to the replicas' caches, so rss_p90_mb is taken
	// over the first memOps operations of the phase — about 6 s of work on
	// the 2-vCPU reference host — and compares memory at equal work.
	memOps := int64(pick(e, 8000, 300))
	var cursor, done atomic.Int64 // done counts the phase's operations
	var lbBefore, lbAfter map[string]float64
	m, err := e.measurePhases(ctx, protocol{
		servers: reps,
		others:  []*proc{lb},
		run: func(ctx context.Context, po *phaseOut, i int, d time.Duration) (time.Duration, error) {
			var err error
			if i == 0 {
				done.Store(0)
				if lbBefore, err = e.scrapeProm(ctx, lb.url()+"/metrics"); err != nil {
					return 0, lb.failed(err)
				}
			}
			wall, err := closedLoop(ctx, e.nproc, d, func(ctx context.Context, _ int) (bool, error) {
				i := int(cursor.Add(1) - 1)
				if i >= len(ops) {
					return false, nil
				}
				op := ops[i]
				it := pool[op.item]
				a, _, err := e.measure(ctx, po, &po.lat, lb, it, op.config, time.Time{})
				if done.Add(1) == memOps {
					po.memUntil = time.Now()
				}
				if err != nil || a == nil {
					return true, err
				}
				if op.first {
					firsts.Add(1)
					e.checks.expect("restart-first-time-cold", a.Cached == false, func() string {
						return fmt.Sprintf("first-time key %s config %d answered cached=%v", it.name, op.config, a.Cached)
					})
				} else {
					e.checks.expect("restart-prefilled-warm", a.cached() != "", func() string {
						return fmt.Sprintf("prefilled key %s answered cached=%v", it.name, a.Cached)
					})
				}
				return true, nil
			})
			if err != nil {
				return 0, err
			}
			// The last slice's scrape closes the phase's window.
			if lbAfter, err = e.scrapeProm(ctx, lb.url()+"/metrics"); err != nil {
				return 0, lb.failed(err)
			}
			return wall, nil
		},
		afterPhase: func(_ *phaseOut, phase serverDelta) {
			e.checks.expect("restart-analyzed", int64(phase.analyzed) == firsts.Load(), func() string {
				return fmt.Sprintf("replicas ran %d cold analyses for %d first-time keys", phase.analyzed, firsts.Load())
			})
		},
		beforeTraced: func(ctx context.Context) ([]*proc, error) {
			ps, err := restart(ctx)
			if err != nil {
				return nil, err
			}
			return ps, e.waitRing(ctx, lb, 2)
		},
	})
	if err != nil {
		return err
	}
	e.closedMetrics(m.untraced)
	lbDelta := func(name string) float64 { return lbAfter[name] - lbBefore[name] }
	e.set("lb.replica_writes_per_cold", lbDelta("funseekerlb_replica_writes_total")/float64(max(1, firsts.Load())), "ratio")
	e.set("lb.failovers", lbDelta("funseekerlb_failovers_total"), "count")
	e.set("lb.unrouted", lbDelta("funseekerlb_unrouted_total"), "count")
	e.set("lb.replica_fallbacks", lbDelta("funseekerlb_replica_fallbacks_total"), "count")
	if err := e.finish(append([]*proc{lb}, reps...)...); err != nil || m.traced == nil {
		return err
	}
	configs := []int{1, 2, 3, 5}
	lc, err := e.replay(ctx, stride(pool, 768), func(k int) int { return configs[k%len(configs)] }, dirs[0])
	if err != nil {
		return err
	}
	items := float64(m.traced.items)
	e.ledger(lc, m.traced.items, m.traced.cpu, map[string]float64{
		"engine.key":    float64(m.phase.requests) / items,
		"elfx.load":     float64(m.phase.analyzed) / items,
		"core.identify": float64(m.phase.analyzed) / items,
		"encode.report": 1,
		"store.put":     float64(m.phase.storePuts+m.phase.storeInjected) / items,
		"store.get":     float64(m.phase.storeHits+m.phase.misses) / items,
		"ring.lookup":   1,
	})
	return nil
}

// stopAll stops every process in ps concurrently.
func stopAll(ps []*proc) error {
	errs := make([]error, len(ps))
	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p *proc) {
			defer wg.Done()
			errs[i] = p.stop()
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// storeRecords reads a replica's live store record count.
func (e *env) storeRecords(ctx context.Context, p *proc) (int, error) {
	var doc struct {
		Store *struct {
			Records int `json:"records"`
		} `json:"store"`
	}
	if err := e.client.getJSON(ctx, p.url()+"/v1/stats", &doc); err != nil {
		return 0, p.failed(err)
	}
	if doc.Store == nil {
		return 0, p.failed(errors.New("no store block in /v1/stats"))
	}
	return doc.Store.Records, nil
}

// waitRecords waits until every replica's store holds n records — the
// router replicates asynchronously after each answer.
func (e *env) waitRecords(ctx context.Context, ps []*proc, n int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		done := true
		for _, p := range ps {
			records, err := e.storeRecords(ctx, p)
			if err != nil {
				return err
			}
			done = done && records >= n
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not reach %d stored records within 60s", n)
		}
		if err := sleep(ctx, 10*time.Millisecond); err != nil {
			return err
		}
	}
}

// waitRing waits until the router has reported want healthy backends on
// five polls in a row, so a rejoin it was about to notice has settled.
func (e *env) waitRing(ctx context.Context, lb *proc, want int) error {
	deadline := time.Now().Add(30 * time.Second)
	for settled := 0; settled < 5; {
		var doc struct {
			Nodes []struct {
				Healthy bool `json:"healthy"`
			} `json:"nodes"`
		}
		if err := e.client.getJSON(ctx, lb.url()+"/lb/nodes", &doc); err != nil {
			return lb.failed(err)
		}
		healthy := 0
		for _, nd := range doc.Nodes {
			if nd.Healthy {
				healthy++
			}
		}
		settled++
		if healthy != want {
			settled = 0
		}
		if time.Now().After(deadline) {
			return lb.failed(fmt.Errorf("router has %d of %d backends healthy after 30s", healthy, want))
		}
		if err := sleep(ctx, 100*time.Millisecond); err != nil {
			return err
		}
	}
	return nil
}
