package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/engine"
	"github.com/funseeker/funseeker/internal/ring"
	"github.com/funseeker/funseeker/internal/store"
)

// snap is one funseekerd's self-reported state: the /v1/stats document
// and the /metrics series.
type snap struct {
	stats engine.StatsDoc
	prom  map[string]float64
}

func (e *env) scrape(ctx context.Context, p *proc) (snap, error) {
	var s snap
	if err := e.client.getJSON(ctx, p.url()+"/v1/stats", &s.stats); err != nil {
		return s, p.failed(err)
	}
	var err error
	if s.prom, err = e.scrapeProm(ctx, p.url()+"/metrics"); err != nil {
		return s, p.failed(err)
	}
	return s, nil
}

// scrapeProm reads a Prometheus text exposition into series → value.
func (e *env) scrapeProm(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// serverDelta is the change in a set of funseekerd processes' counters
// over a window, summed across processes.
type serverDelta struct {
	requests, analyzed, hits, storeHits, misses uint64
	storePuts, storeInjected, storeErrors       uint64
	bytesAnalyzed                               uint64
	analysis                                    analysis.Stats
	analyzeSum, analyzeCount                    float64
	queueSum, queueCount                        float64
}

func diff(before, after []snap) serverDelta {
	var d serverDelta
	for i := range after {
		a, b := after[i], before[i]
		d.requests += a.stats.Engine.Requests - b.stats.Engine.Requests
		d.analyzed += a.stats.Engine.Analyzed - b.stats.Engine.Analyzed
		d.bytesAnalyzed += a.stats.Engine.BytesAnalyzed - b.stats.Engine.BytesAnalyzed
		d.hits += a.stats.Cache.Hits - b.stats.Cache.Hits
		d.misses += a.stats.Cache.Misses - b.stats.Cache.Misses
		if a.stats.Store != nil && b.stats.Store != nil {
			d.storeHits += a.stats.Store.Hits - b.stats.Store.Hits
			d.storePuts += a.stats.Store.Puts - b.stats.Store.Puts
			d.storeInjected += a.stats.Store.Injected - b.stats.Store.Injected
			d.storeErrors += a.stats.Store.Errors - b.stats.Store.Errors
		}
		d.analysis.Add(subStats(a.stats.Engine.Analysis, b.stats.Engine.Analysis))
		d.analyzeSum += a.prom["funseeker_engine_analyze_seconds_sum"] - b.prom["funseeker_engine_analyze_seconds_sum"]
		d.analyzeCount += a.prom["funseeker_engine_analyze_seconds_count"] - b.prom["funseeker_engine_analyze_seconds_count"]
		d.queueSum += a.prom["funseeker_engine_queue_wait_seconds_sum"] - b.prom["funseeker_engine_queue_wait_seconds_sum"]
		d.queueCount += a.prom["funseeker_engine_queue_wait_seconds_count"] - b.prom["funseeker_engine_queue_wait_seconds_count"]
	}
	return d
}

func subStats(a, b analysis.Stats) analysis.Stats {
	sub := func(x, y analysis.StageStat) analysis.StageStat {
		return analysis.StageStat{Computes: x.Computes - y.Computes, Hits: x.Hits - y.Hits, Time: x.Time - y.Time}
	}
	return analysis.Stats{
		Sweep: sub(a.Sweep, b.Sweep), EHParse: sub(a.EHParse, b.EHParse),
		LandingPad: sub(a.LandingPad, b.LandingPad), FDEIndex: sub(a.FDEIndex, b.FDEIndex),
		Superset: sub(a.Superset, b.Superset), Filter: sub(a.Filter, b.Filter),
		TailCall:    sub(a.TailCall, b.TailCall),
		SweepShards: a.SweepShards - b.SweepShards, StitchRetries: a.StitchRetries - b.StitchRetries,
	}
}

// zeroSnaps stands for processes observed from their start.
func zeroSnaps(n int) []snap { return make([]snap, n) }

// serverMetrics records the per-layer metrics the servers report about
// themselves. phase covers the measured window; life covers the serving
// processes' whole lifetime, which is where the cold analyses of a
// cache-served workload happened (its prefill).
func (e *env) serverMetrics(phase, life serverDelta) {
	ratio := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	e.set("engine.lru_hit_ratio", ratio(phase.hits, phase.requests), "ratio")
	e.set("engine.store_hit_ratio", ratio(phase.storeHits, phase.requests), "ratio")
	e.set("engine.cold_analyses", float64(life.analyzed), "count")
	e.set("store.puts", float64(phase.storePuts), "count")
	e.set("store.errors", float64(phase.storeErrors), "count")
	if phase.analyzeCount > 0 {
		e.set("engine.analyze_ms", 1000*phase.analyzeSum/phase.analyzeCount, "ms")
	}
	if life.queueCount > 0 {
		e.set("engine.queue_wait_ms", 1000*life.queueSum/life.queueCount, "ms")
	}
	mib := float64(life.bytesAnalyzed) / (1 << 20)
	life.analysis.EachStage(func(name string, st analysis.StageStat) {
		if st.Computes > 0 && mib > 0 {
			e.set("stage."+name+"_ms_per_mib", float64(st.Time)/float64(time.Millisecond)/mib, "ms/MiB")
		}
	})
}

// replayLayers are the layer calls the in-process replay times, by span
// name. Each one's per-layer metric is its name plus "_us", except
// core.identify, which is reported per MiB of input.
var replayLayers = []string{"engine.key", "elfx.load", "core.identify", "encode.report", "ring.lookup", "store.put", "store.get"}

// layerCosts is the mean wall time per call of each replayed layer, by
// span name.
type layerCosts map[string]time.Duration

// replayItem runs one item through every replayed layer — SHA-256 keying,
// elfx.Load, analysis.NewContext + core.IdentifyCtx, json.Marshal of the
// report, a ring lookup, a store put and get — records one span per call,
// and returns the calls' durations in replayLayers order.
func (e *env) replayItem(ctx context.Context, it *item, config int, rg *ring.Ring, st *store.Store) ([]time.Duration, analysis.Stats, error) {
	t := []time.Time{time.Now()}
	sum := sha256.Sum256(it.raw)
	elfx.DetectArch(it.raw)
	t = append(t, time.Now())
	bin, err := elfx.Load(it.raw)
	if err != nil {
		return nil, analysis.Stats{}, fmt.Errorf("replay load %s: %w", it.name, err)
	}
	t = append(t, time.Now())
	actx := analysis.NewContext(bin)
	rep, err := core.IdentifyCtx(ctx, actx, configOptions(config))
	if err != nil {
		return nil, analysis.Stats{}, fmt.Errorf("replay identify %s: %w", it.name, err)
	}
	t = append(t, time.Now())
	val, err := json.Marshal(rep)
	if err != nil {
		return nil, analysis.Stats{}, err
	}
	t = append(t, time.Now())
	rg.LookupN(sum[:], 4)
	t = append(t, time.Now())
	key := append(sum[:], byte(config))
	if err := st.Put(key, val); err != nil {
		return nil, analysis.Stats{}, err
	}
	t = append(t, time.Now())
	if _, _, err := st.Get(key); err != nil {
		return nil, analysis.Stats{}, err
	}
	t = append(t, time.Now())
	root := e.tr.add("replay.item", "", "", t[0], t[len(t)-1])
	d := make([]time.Duration, len(replayLayers))
	for i, name := range replayLayers {
		e.tr.add(name, "", root, t[i], t[i+1])
		d[i] = t[i+1].Sub(t[i])
	}
	return d, actx.Stats(), nil
}

// replay runs every item through the replayed layers with as many
// concurrent callers as the servers have workers, timing the host before
// and after, then measures allocations in a sequential pass and
// store.Open on a copy of storeDir (or of the replay's own store when
// storeDir is empty).
func (e *env) replay(ctx context.Context, items []*item, config func(k int) int, storeDir string) (layerCosts, error) {
	speedBefore, err := e.hostSpeed(ctx)
	if err != nil {
		return nil, err
	}
	own := filepath.Join(e.dir, "replay-store")
	st, err := store.Open(own, store.Options{})
	if err != nil {
		return nil, err
	}
	rg := ring.New(0)
	rg.Add("http://127.0.0.1:1")
	rg.Add("http://127.0.0.1:2")
	var mu sync.Mutex
	total := make([]time.Duration, len(replayLayers))
	var stats analysis.Stats
	var bytes int64
	var firstErr error
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				d, s, err := e.replayItem(ctx, items[k], config(k), rg, st)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for i := range d {
					total[i] += d[i]
				}
				stats.Add(s)
				bytes += int64(len(items[k].raw))
				mu.Unlock()
			}
		}()
	}
	for k := range items {
		next <- k
	}
	close(next)
	wg.Wait()
	if err := st.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	speedAfter, err := e.hostSpeed(ctx)
	if err != nil {
		return nil, err
	}
	e.replayScale = (speedBefore + speedAfter) / 2 / e.tracedSpeed
	n := float64(len(items))
	lc := layerCosts{}
	for i, name := range replayLayers {
		lc[name] = total[i] / time.Duration(len(items))
		if name != "core.identify" {
			e.set(name+"_us", float64(lc[name])/float64(time.Microsecond), "us")
		}
	}
	e.set("core.identify_ms_per_mib", float64(lc["core.identify"])/float64(time.Millisecond)/(float64(bytes)/n/(1<<20)), "ms/MiB")
	e.set("sweep.shards", float64(stats.SweepShards)/n, "count")
	e.set("sweep.stitch_retries", float64(stats.StitchRetries)/n, "count")

	if err := e.replayAllocs(ctx, items, config); err != nil {
		return nil, err
	}
	if storeDir == "" {
		storeDir = own
	}
	openMS, err := storeOpenMS(storeDir, filepath.Join(e.dir, "replay-open"))
	if err != nil {
		return nil, err
	}
	e.set("store.open_ms", openMS, "ms")
	return lc, os.RemoveAll(own)
}

// replayAllocs measures elfx.Load and identification allocations per item
// in a sequential pass over up to 64 items.
func (e *env) replayAllocs(ctx context.Context, items []*item, config func(k int) int) error {
	stride := max(1, len(items)/64)
	var loadBytes, idBytes, idMallocs, bytes uint64
	var n uint64
	var m0, m1, m2 runtime.MemStats
	for k := 0; k < len(items); k += stride {
		it := items[k]
		runtime.ReadMemStats(&m0)
		bin, err := elfx.Load(it.raw)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		if _, err := core.IdentifyCtx(ctx, analysis.NewContext(bin), configOptions(config(k))); err != nil {
			return err
		}
		runtime.ReadMemStats(&m2)
		loadBytes += m1.TotalAlloc - m0.TotalAlloc
		idBytes += m2.TotalAlloc - m1.TotalAlloc
		idMallocs += m2.Mallocs - m1.Mallocs
		bytes += uint64(len(it.raw))
		n++
	}
	mib := float64(bytes) / (1 << 20)
	e.set("elfx.load_kb_alloc", float64(loadBytes)/1024/float64(n), "KiB")
	e.set("core.alloc_mb_per_mib", float64(idBytes)/1e6/mib, "MB/MiB")
	e.set("core.allocs_per_item", float64(idMallocs)/float64(n), "count")
	return nil
}

// storeOpenMS copies the store in src to dst and times store.Open on the
// copy three times, returning the median.
func storeOpenMS(src, dst string) (float64, error) {
	defer os.RemoveAll(dst)
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		return 0, err
	}
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st, err := store.Open(dst, store.Options{})
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
		if err := st.Close(); err != nil {
			return 0, err
		}
	}
	return quantileOf(ms, 0.5), nil
}

// configOptions maps a Table II configuration number to its options.
func configOptions(n int) core.Options {
	return [...]core.Options{core.Config1, core.Config2, core.Config3, core.Config4, core.Config5}[n-1]
}

// ledger records the whole-path metrics: server CPU per answered item,
// the replayed layer time one answered item costs (carried over to the
// traced phase's host speed), and the share of server CPU the replayed
// layers do not account for. perItem gives how many calls of each
// replayed layer one answered item makes on this workload.
func (e *env) ledger(lc layerCosts, items int64, cpu time.Duration, perItem map[string]float64) {
	if items == 0 {
		return
	}
	cpuPerItem := float64(cpu) / float64(time.Millisecond) / float64(items)
	e.set("server.cpu_ms_per_item", cpuPerItem, "ms")
	replayed := 0.0
	for layer, n := range perItem {
		replayed += n * float64(lc[layer]) / float64(time.Millisecond) * e.replayScale
	}
	e.set("replayed_ms_per_item", replayed, "ms")
	if cpuPerItem > 0 {
		e.set("unattributed_share", 1-replayed/cpuPerItem, "ratio")
	}
}

// joinHandlers turns the funseekerd access-log lines of the traced
// phase's requests into child spans of the client spans, and records the
// handler and wire means.
func (e *env) joinHandlers(servers []*proc, ex []exchange) error {
	handler := map[string][2]time.Time{}
	for _, p := range servers {
		h, err := handlerSpans(p.log, e.client.prefix)
		if err != nil {
			return err
		}
		for id, iv := range h {
			handler[id] = iv
		}
	}
	var hSum, wSum time.Duration
	var n int64
	for _, x := range ex {
		iv, ok := handler[x.id]
		if !ok {
			continue
		}
		e.tr.add("funseekerd.handler", "srv-"+x.id, x.id, iv[0], iv[1])
		h := iv[1].Sub(iv[0])
		hSum += h
		wSum += x.end.Sub(x.start) - h
		n++
	}
	e.checks.expect("trace-join", n == int64(len(ex)) && n > 0, func() string {
		return fmt.Sprintf("%d of %d traced requests found in the access logs", n, len(ex))
	})
	if n > 0 {
		e.set("funseekerd.handler_ms", float64(hSum)/float64(time.Millisecond)/float64(n), "ms")
		e.set("client.wire_ms", float64(wSum)/float64(time.Millisecond)/float64(n), "ms")
	}
	return nil
}
