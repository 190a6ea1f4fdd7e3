package engine

import (
	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/store"
)

// StatsDoc is the engine's stats snapshot and the versioned envelope
// ("v": 2) that /v1/stats serves and funseeker-lb relays per node under
// /lb/nodes. A consumer can dispatch on the version field when v3
// changes shape. The engine fills the engine/cache/store blocks; the
// serving layer attaches its own shed and server blocks.
type StatsDoc struct {
	V      int              `json:"v"`
	Engine EngineStatsBlock `json:"engine"`
	Cache  CacheStatsBlock  `json:"cache"`
	// Store is nil when no persistent store is configured.
	Store *StoreStatsBlock `json:"store,omitempty"`
	// Shed is attached by funseekerd (the admission control lives
	// there); nil from bare engines.
	Shed *ShedStatsBlock `json:"shed,omitempty"`
	// Server is attached by funseekerd; nil from bare engines.
	Server *ServerStatsBlock `json:"server,omitempty"`
}

// EngineStatsBlock is the worker-pool and request-outcome block.
type EngineStatsBlock struct {
	Jobs          int            `json:"jobs"`
	InFlight      int64          `json:"in_flight"`
	Requests      uint64         `json:"requests"`
	Analyzed      uint64         `json:"analyzed"`
	Coalesced     uint64         `json:"coalesced"`
	Canceled      uint64         `json:"canceled"`
	Failures      uint64         `json:"failures"`
	BytesAnalyzed uint64         `json:"bytes_analyzed"`
	Analysis      analysis.Stats `json:"analysis"`
}

// CacheStatsBlock is the in-memory LRU tier block.
type CacheStatsBlock struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Capacity  int64  `json:"capacity"`
	Evictions uint64 `json:"evictions"`
}

// StoreStatsBlock is the persistent tier block: the engine-side
// counters plus the store's own snapshot (records, segments, bytes,
// recovery facts, compaction) inlined.
type StoreStatsBlock struct {
	Hits     uint64 `json:"hits"`
	Puts     uint64 `json:"puts_through"`
	Injected uint64 `json:"injected"`
	Errors   uint64 `json:"errors"`
	store.Stats
}

// ShedStatsBlock is the load-shedding block funseekerd attaches.
type ShedStatsBlock struct {
	Enabled    bool    `json:"enabled"`
	BoundMS    float64 `json:"bound_ms"`
	WindowMS   float64 `json:"window_ms"`
	QueueP99MS float64 `json:"queue_p99_ms"`
	ShedTotal  uint64  `json:"shed_total"`
}

// ServerStatsBlock is the process-level block funseekerd attaches.
type ServerStatsBlock struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Goroutines    int     `json:"goroutines"`
}

// Stats snapshots the engine's counters as the v2 stats document. By
// Analyze's counter contract, Cache.Hits, Store.Hits, Cache.Misses and
// Engine.Coalesced, Canceled and Failures sum to Engine.Requests, and
// Engine.Analyzed and Cache.Misses read one counter.
func (e *Engine) Stats() StatsDoc {
	doc := StatsDoc{
		V: 2,
		Engine: EngineStatsBlock{
			Jobs:          e.jobs,
			InFlight:      e.inFlight.Load(),
			Requests:      e.requests.Load(),
			Analyzed:      e.misses.Load(),
			Coalesced:     e.coalesced.Load(),
			Canceled:      e.canceled.Load(),
			Failures:      e.failures.Load(),
			BytesAnalyzed: e.bytesIn.Load(),
		},
		Cache: CacheStatsBlock{
			Hits:   e.hits.Load(),
			Misses: e.misses.Load(),
		},
	}
	if e.cache != nil {
		doc.Cache.Entries, doc.Cache.Bytes, doc.Cache.Capacity, doc.Cache.Evictions = e.cache.stats()
	}
	if e.store != nil {
		doc.Store = &StoreStatsBlock{
			Hits:     e.storeHits.Load(),
			Puts:     e.storePuts.Load(),
			Injected: e.storeInjected.Load(),
			Errors:   e.storeErrors.Load(),
			Stats:    e.store.Stats(),
		}
	}
	e.aggMu.Lock()
	doc.Engine.Analysis = e.agg
	e.aggMu.Unlock()
	return doc
}
