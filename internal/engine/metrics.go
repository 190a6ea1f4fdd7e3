package engine

import (
	"fmt"
	"strings"
	"time"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/obs"
	"github.com/funseeker/funseeker/internal/store"
)

// engineMetrics is the engine's observability surface: latency
// histograms the engine must feed itself, plus sampled counters/gauges
// that read the existing atomic service stats at scrape time so the same
// number is never maintained twice.
//
// One engine registers one family set; sharing a registry between two
// engines panics on the duplicate names, which is deliberate — create
// one engine per process (see Engine's doc comment).
type engineMetrics struct {
	// analyze is the end-to-end Analyze latency, observed for every
	// request whatever its outcome (hit, coalesced, cold, failed,
	// canceled): the number a service SLO is written against.
	analyze *obs.Histogram
	// queue is the time a cold analysis waited for a worker slot —
	// saturation of the bounded pool shows up here first.
	queue *obs.Histogram
	// stages is the per-binary cost of each analysis stage, labeled
	// stage="sweep" | "eh-parse" | "landing-pad" | "fde-index" |
	// "superset" | "filter" | "tail-call" (the names
	// analysis.Stats.EachStage gives).
	stages *obs.HistogramVec
}

// registerEngineMetrics wires e's counters into reg and returns the
// histogram set the hot path feeds.
func registerEngineMetrics(reg *obs.Registry, e *Engine) *engineMetrics {
	m := &engineMetrics{
		analyze: reg.NewHistogram("funseeker_engine_analyze_seconds",
			"End-to-end Analyze latency per request, all outcomes.", nil),
		queue: reg.NewHistogram("funseeker_engine_queue_wait_seconds",
			"Time a cold analysis waited for a worker-pool slot.", nil),
		stages: reg.NewHistogramVec("funseeker_engine_stage_seconds",
			"Per-binary analysis stage cost.", "stage", nil),
	}
	reg.NewCounterFunc("funseeker_engine_requests_total",
		"Analyze requests accepted.", e.requests.Load)
	reg.NewCounterFunc("funseeker_engine_analyzed_total",
		"Completed cold analyses.", e.misses.Load)
	reg.NewCounterFunc("funseeker_engine_cache_hits_total",
		"Requests served from the in-memory LRU result cache.", e.hits.Load)
	reg.NewCounterFunc("funseeker_engine_store_hits_total",
		"Requests that missed the LRU but were served from the persistent result store.", e.storeHits.Load)
	reg.NewCounterFunc("funseeker_engine_store_puts_total",
		"Cold results written through to the persistent result store.", e.storePuts.Load)
	reg.NewCounterFunc("funseeker_engine_store_errors_total",
		"Persistent-store reads, writes, or decodes that failed (degraded, not fatal).", e.storeErrors.Load)
	reg.NewCounterFunc("funseeker_engine_cache_misses_total",
		"Requests that ran a fresh analysis.", e.misses.Load)
	reg.NewCounterFunc("funseeker_engine_coalesced_total",
		"Requests served by waiting on an identical in-flight analysis.", e.coalesced.Load)
	reg.NewCounterFunc("funseeker_engine_canceled_total",
		"Requests abandoned through their context.", e.canceled.Load)
	reg.NewCounterFunc("funseeker_engine_failures_total",
		"Requests that failed for non-context reasons.", e.failures.Load)
	reg.NewCounterFunc("funseeker_engine_bytes_analyzed_total",
		"Total size of all cold-analyzed ELF images.", e.bytesIn.Load)
	reg.NewGaugeFunc("funseeker_engine_in_flight",
		"Analyses running right now.", func() float64 { return float64(e.inFlight.Load()) })
	reg.NewGaugeFunc("funseeker_engine_jobs",
		"Worker-pool width.", func() float64 { return float64(e.jobs) })
	reg.NewGaugeFunc("funseeker_engine_cache_entries",
		"Result-cache entry count.", func() float64 { n, _, _, _ := e.cacheStats(); return float64(n) })
	reg.NewGaugeFunc("funseeker_engine_cache_bytes",
		"Result-cache retained bytes.", func() float64 { _, b, _, _ := e.cacheStats(); return float64(b) })
	reg.NewCounterFunc("funseeker_engine_cache_evictions_total",
		"Result-cache evictions.", func() uint64 { _, _, _, ev := e.cacheStats(); return ev })
	reg.NewGaugeFunc("funseeker_engine_store_records",
		"Live records in the persistent result store.",
		func() float64 { return float64(e.storeStats().Records) })
	reg.NewGaugeFunc("funseeker_engine_store_bytes",
		"On-disk segment bytes of the persistent result store.",
		func() float64 { return float64(e.storeStats().SegmentBytes) })
	reg.NewCounterFunc("funseeker_engine_store_injected_total",
		"Results installed by replication (InjectResult) rather than computed here.",
		e.storeInjected.Load)
	reg.NewCounterFunc("funseeker_store_compactions_total",
		"Completed store compactions (background and explicit).",
		func() uint64 { return e.storeStats().Compaction.Compactions })
	reg.NewCounterFunc("funseeker_store_reclaimed_bytes_total",
		"On-disk bytes freed by store compactions.",
		func() uint64 { return uint64(max64(e.storeStats().Compaction.ReclaimedBytes, 0)) })
	reg.NewGaugeFunc("funseeker_store_live_record_bytes",
		"On-disk bytes of newest-per-key store records.",
		func() float64 { return float64(e.storeStats().Compaction.LiveRecordBytes) })
	reg.NewGaugeFunc("funseeker_store_garbage_bytes",
		"On-disk bytes occupied by superseded store records.",
		func() float64 { return float64(e.storeStats().Compaction.GarbageBytes) })
	reg.NewGaugeFunc("funseeker_store_garbage_ratio",
		"Fraction of store bytes that are superseded records.",
		func() float64 { return e.storeStats().Compaction.GarbageRatio })
	return m
}

// max64 exists because the metrics funcs want a non-negative counter
// view of a signed accounting value.
func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// storeStats is the nil-safe store snapshot behind the sampled metrics.
func (e *Engine) storeStats() store.Stats {
	if e.store == nil {
		return store.Stats{}
	}
	return e.store.Stats()
}

// cacheStats is the nil-safe cache snapshot behind the sampled metrics.
func (e *Engine) cacheStats() (int, int64, int64, uint64) {
	if e.cache == nil {
		return 0, 0, 0, 0
	}
	return e.cache.stats()
}

// observeStages feeds one cold analysis' per-stage wall-clock costs into
// the stage histograms. Stages the binary never exercised (no .eh_frame,
// superset scan off, ...) record nothing rather than a flood of zeros.
func (m *engineMetrics) observeStages(st analysis.Stats) {
	st.EachStage(func(name string, s analysis.StageStat) {
		if s.Computes == 0 {
			return
		}
		m.stages.With(name).ObserveDuration(s.Time)
	})
}

// QueueWaitSnapshot returns the worker-slot queue-wait distribution —
// the saturation signal the server's load shedder watches. Cheap
// enough to call per request (a bounded atomic scan).
func (e *Engine) QueueWaitSnapshot() obs.HistSnapshot {
	return e.met.queue.Snapshot()
}

// StageLatencies returns the engine's latency distributions by name:
// the analysis stages (per cold analysis), "queue-wait" (worker-slot
// wait), and "analyze" (end-to-end request latency, all outcomes).
func (e *Engine) StageLatencies() map[string]obs.HistSnapshot {
	out := map[string]obs.HistSnapshot{
		"queue-wait": e.met.queue.Snapshot(),
		"analyze":    e.met.analyze.Snapshot(),
	}
	analysis.Stats{}.EachStage(func(name string, _ analysis.StageStat) {
		out[name] = e.met.stages.With(name).Snapshot()
	})
	return out
}

// StageLatencyTable renders the per-stage latency distribution summary
// (count, p50/p90/p99, total) the corpus CLI prints at exit, in
// pipeline order: queue-wait, then the analysis stages as EachStage
// names them, then analyze. Stages with no samples are omitted.
func (e *Engine) StageLatencyTable() string {
	snaps := e.StageLatencies()
	var b strings.Builder
	fmt.Fprintf(&b, "Per-stage latency distribution (cold analyses)\n")
	fmt.Fprintf(&b, "  %-12s %9s %12s %12s %12s %12s\n", "stage", "count", "p50", "p90", "p99", "total")
	row := func(name string) {
		if s := snaps[name]; s.Count > 0 {
			fmt.Fprintf(&b, "  %-12s %9d %12s %12s %12s %12s\n", name, s.Count,
				secsDur(s.Quantile(0.50)), secsDur(s.Quantile(0.90)),
				secsDur(s.Quantile(0.99)), secsDur(s.Sum))
		}
	}
	row("queue-wait")
	analysis.Stats{}.EachStage(func(name string, _ analysis.StageStat) { row(name) })
	row("analyze")
	return b.String()
}

// secsDur renders a seconds float as a rounded time.Duration.
func secsDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
}
