// Package engine is the corpus-scale analysis engine: it wraps the
// per-binary analysis.Context behind a bounded worker pool, a
// content-addressed result cache, and full context.Context cancellation,
// turning the one-binary-at-a-time core into a service substrate.
//
// The design follows the paper's workload shape — FunSeeker's headline
// result is analyzing 8,136 binaries orders of magnitude faster than
// IDA/Ghidra/FETCH (Table VIII), i.e. function identification is a
// *batch* problem — and the repo's north star of serving heavy traffic:
//
//   - Concurrency is bounded by a semaphore of Config.Jobs slots
//     (default GOMAXPROCS). Each analysis already parallelizes its own
//     sweep for large texts, so admitting more analyses than cores only
//     adds memory pressure.
//   - Results are cached in an LRU keyed by (SHA-256 of the ELF image,
//     option bits) with byte-size accounting, so re-analyzing an
//     identical binary — the common case for corpus dedup and repeated
//     service traffic — is a map lookup.
//   - Identical in-flight requests coalesce: N concurrent uploads of the
//     same bytes run one analysis, and the other N-1 wait on it (each
//     still honoring its own context).
//   - Cancellation reaches the linear sweep via core.IdentifyCtx, so an
//     aborted request stops burning CPU at the next shard/stride
//     boundary instead of completing a dead analysis.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/obs"
	"github.com/funseeker/funseeker/internal/store"
)

// DefaultCacheBytes is the result-cache budget when Config.CacheBytes is
// zero.
const DefaultCacheBytes = 256 << 20

// Config tunes an Engine. Zero values select defaults everywhere; New
// materializes them.
type Config struct {
	// Jobs bounds the number of concurrently running analyses. Zero or
	// negative selects runtime.GOMAXPROCS(0).
	Jobs int
	// CacheBytes is the LRU result-cache budget in bytes. Zero selects
	// DefaultCacheBytes; negative disables caching entirely.
	CacheBytes int64
	// Store is a caller-owned persistent result tier layered *under*
	// the LRU: an LRU miss consults it before paying for a cold
	// analysis, and every completed cold analysis is written through to
	// it, so a warm corpus survives a process restart. The engine never
	// opens or closes it; its owner closes it after the engine's last
	// request.
	Store *store.Store
	// Registry receives the engine's metrics (latency histograms,
	// cache/coalescing counters, worker-pool gauges). Nil selects a
	// private registry: the histograms still accumulate — so
	// StageLatencyTable works for the CLI — they are just not exported
	// anywhere. At most one engine may register on a given registry.
	Registry *obs.Registry
}

// Engine runs identification requests over a bounded worker pool with a
// content-hash result cache. It is safe for concurrent use; create one
// per process and share it.
type Engine struct {
	jobs  int
	sem   chan struct{}
	cache *lru
	store *store.Store

	flightMu sync.Mutex
	flight   map[cacheKey]*call

	inFlight      atomic.Int64
	requests      atomic.Uint64
	hits          atomic.Uint64
	storeHits     atomic.Uint64
	storePuts     atomic.Uint64
	storeErrors   atomic.Uint64
	storeInjected atomic.Uint64
	misses        atomic.Uint64 // completed cold analyses: both cache.misses and engine.analyzed
	coalesced     atomic.Uint64
	canceled      atomic.Uint64
	failures      atomic.Uint64
	bytesIn       atomic.Uint64

	met *engineMetrics

	aggMu sync.Mutex
	agg   analysis.Stats

	// testHookCold, when non-nil, runs at the top of every cold analysis
	// (inside the worker slot). Tests use it to inject panics and to
	// hold an analysis open while coalesced waiters pile up.
	testHookCold func(raw []byte)
}

// call is one in-flight analysis other requests for the same key can
// wait on. done is closed when the computation finishes; err carries a
// non-cancellation failure that waiters share (cancellation errors are
// private to the canceled caller — a waiter retries under its own ctx).
type call struct {
	done chan struct{}
	res  *Result
	err  error
}

// cacheKey is the identity of one analysis: content hash × option bits ×
// backend architecture. The backend follows from the image's own header,
// so the arch component adds no identity to the hash; it stays because
// it is part of the persistent store's key layout (see storeKey).
type cacheKey struct {
	sum  [sha256.Size]byte
	opts uint8
	arch elfx.Arch
}

// optsBits packs the boolean option set into the cache key.
func optsBits(o core.Options) uint8 {
	var b uint8
	if o.FilterEndbr {
		b |= 1 << 0
	}
	if o.UseJumpTargets {
		b |= 1 << 1
	}
	if o.SelectTailCall {
		b |= 1 << 2
	}
	if o.TailBoundaryOnly {
		b |= 1 << 3
	}
	if o.SupersetEndbrScan {
		b |= 1 << 4
	}
	if o.RequireCET {
		b |= 1 << 5
	}
	if o.FuseEH {
		b |= 1 << 6
	}
	return b
}

// Answer is what the engine answers with: FunSeeker's entry set
// E′ ∪ C ∪ J′ (paper Algorithm 1), the sizes of E, C, J and J′, the
// filter counts and the warnings. It is the one shape the LRU keeps,
// the store persists, replicas exchange, and funseekerd and the CLI
// print; its JSON tags are the wire's.
type Answer struct {
	// Arch is the backend that produced the answer ("x86-64",
	// "aarch64", ...), detected from the ELF header.
	Arch string `json:"arch"`
	// Entries is the sorted set of identified function entries.
	Entries []uint64 `json:"entries"`

	// Endbrs, CallTargets, JumpTargets and TailCallTargets are the sizes
	// of the sets E, C, J and J′ (core.Report holds the sets).
	Endbrs          int `json:"endbrs"`
	CallTargets     int `json:"call_targets"`
	JumpTargets     int `json:"jump_targets"`
	TailCallTargets int `json:"tail_call_targets"`

	// FilteredIndirectReturn and FilteredLandingPads count the end
	// branches FILTERENDBR removed, by reason.
	FilteredIndirectReturn int `json:"filtered_indirect_return"`
	FilteredLandingPads    int `json:"filtered_landing_pads"`
	// FusedFDEEntries counts the entries configuration ⑤ added from
	// .eh_frame FDE starts; always 0 for configs 1-4.
	FusedFDEEntries int `json:"fused_fde_entries,omitempty"`
	// Warnings records the run's non-fatal degradations.
	Warnings []string `json:"warnings,omitempty"`
}

// NewAnswer reduces a report to its answer. The answer shares the
// report's Entries and Warnings.
func NewAnswer(r *core.Report) *Answer {
	return &Answer{
		Arch:                   r.Arch,
		Entries:                r.Entries,
		Endbrs:                 len(r.Endbrs),
		CallTargets:            len(r.CallTargets),
		JumpTargets:            len(r.JumpTargets),
		TailCallTargets:        len(r.TailCallTargets),
		FilteredIndirectReturn: r.FilteredIndirectReturn,
		FilteredLandingPads:    r.FilteredLandingPads,
		FusedFDEEntries:        r.FusedFDEEntries,
		Warnings:               r.Warnings,
	}
}

// Result is one completed identification with its service metadata.
type Result struct {
	// Answer is the identification answer. Cached results share one
	// Answer value across callers; treat it as read-only.
	Answer *Answer
	// SHA256 is the lowercase hex content hash of the analyzed image.
	SHA256 string
	// StoreKey is the lowercase hex persistent-store key of this result
	// (content hash + option bits + arch). It identifies the result
	// across replicas: the router's replication path copies stored
	// results between funseekerd instances by this key.
	StoreKey string
	// CacheSource names the fast path that served the result: "lru"
	// for an LRU hit, "coalesced" for a wait on an identical in-flight
	// analysis, "store" for a persistent-store hit after an LRU miss,
	// "" for a fresh analysis.
	CacheSource string
	// Elapsed is this caller's wall-clock wait for the result: the
	// analysis time on the cold path, the lookup time on an LRU hit,
	// and the full blocking wait for a coalesced request (which can be
	// as long as the underlying analysis).
	Elapsed time.Duration
}

// New builds an engine from cfg, filling its defaulted fields.
func New(cfg Config) *Engine {
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	var cache *lru
	if cfg.CacheBytes > 0 {
		cache = newLRU(cfg.CacheBytes)
	}
	e := &Engine{
		jobs:   cfg.Jobs,
		sem:    make(chan struct{}, cfg.Jobs),
		cache:  cache,
		store:  cfg.Store,
		flight: make(map[cacheKey]*call),
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e.met = registerEngineMetrics(reg, e)
	return e
}

// Jobs returns the configured worker-pool width.
func (e *Engine) Jobs() int { return e.jobs }

// Analyze identifies function entries in the ELF image raw under ctx.
// The fast path — a byte-identical image analyzed before with the same
// options — is a cache lookup; the slow path waits for a worker slot
// (respecting ctx) and runs the cancellation-aware analysis.
//
// Counter contract (the invariant engine tests assert): every Analyze
// call increments requests exactly once, and exactly one of hits,
// storeHits, misses, coalesced, canceled, or failures — including
// waiters that share an in-flight failure, and callers whose analysis
// panicked.
func (e *Engine) Analyze(ctx context.Context, raw []byte, opts core.Options) (*Result, error) {
	e.requests.Add(1)
	start := time.Now()
	defer func() { e.met.analyze.ObserveDuration(time.Since(start)) }()
	// The key must be known before the (cached-away) ELF parse, so the
	// arch comes from the cheap header peek; DetectArch returns exactly
	// what elfx.Load would assign.
	k := cacheKey{sum: sha256.Sum256(raw), opts: optsBits(opts), arch: elfx.DetectArch(raw)}
	key := storeKey(k)
	keyHex := hex.EncodeToString(key)

	for {
		if err := ctx.Err(); err != nil {
			e.canceled.Add(1)
			return nil, err
		}
		if e.cache != nil {
			if a, ok := e.cache.get(k); ok {
				e.hits.Add(1)
				return newResult(a, keyHex, "lru", start), nil
			}
		}

		e.flightMu.Lock()
		if c, ok := e.flight[k]; ok {
			e.flightMu.Unlock()
			select {
			case <-c.done:
				if c.err == nil {
					e.coalesced.Add(1)
					// Elapsed is this caller's real wait, which spans the
					// underlying analysis — not the ~zero of a map lookup.
					return newResult(c.res.Answer, keyHex, "coalesced", start), nil
				}
				if isContextErr(c.err) {
					continue // the computing request died; retry under our ctx
				}
				// This request failed too (with the shared error), so it
				// counts toward failures like any other failed request.
				e.failures.Add(1)
				return nil, c.err
			case <-ctx.Done():
				e.canceled.Add(1)
				return nil, ctx.Err()
			}
		}
		c := &call{done: make(chan struct{})}
		e.flight[k] = c
		e.flightMu.Unlock()

		// The flight-map cleanup is deferred so a panicking analysis (a
		// malformed ELF tripping a slice bound, say) cannot strand the
		// key: waiters unblock, and the next request for the same bytes
		// starts a fresh analysis instead of hanging forever.
		func() {
			defer func() {
				e.flightMu.Lock()
				delete(e.flight, k)
				e.flightMu.Unlock()
				close(c.done)
			}()
			c.res, c.err = e.analyzeCold(ctx, raw, opts, k, key, keyHex)
		}()
		return c.res, c.err
	}
}

// newResult stamps a for one caller: the hashes come from the hex store
// key (its first 64 digits are the content hash), Elapsed runs from
// start.
func newResult(a *Answer, keyHex, source string, start time.Time) *Result {
	return &Result{
		Answer: a, SHA256: keyHex[:2*sha256.Size], StoreKey: keyHex,
		CacheSource: source, Elapsed: time.Since(start),
	}
}

// analyzeCold runs one uncached analysis under k, whose store key is
// key (keyHex in hex): consult the persistent store, then acquire a
// worker slot, load, identify, account, cache. A
// panic anywhere inside — worker-slot code, ELF loading, the sweep —
// is recovered into an error and counted under failures, so one
// malformed input cannot take the process down.
func (e *Engine) analyzeCold(ctx context.Context, raw []byte, opts core.Options, k cacheKey, key []byte, keyHex string) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.failures.Add(1)
			res, err = nil, fmt.Errorf("analysis panicked: %v", r)
		}
	}()
	start := time.Now()

	// The persistent tier sits under the LRU: an LRU miss is first
	// checked against the store before paying for a sweep. The read
	// happens inside the flight entry, so concurrent identical requests
	// coalesce onto one store read exactly as they coalesce onto one
	// analysis. Store errors (I/O, a foreign-version record) degrade to
	// a cold analysis — persistence must never turn a computable
	// request into a failure.
	if e.store != nil {
		if val, ok, serr := e.store.Get(key); serr != nil {
			e.storeErrors.Add(1)
		} else if ok {
			if a, _, derr := decodeStoredResult(val); derr != nil {
				e.storeErrors.Add(1)
			} else {
				e.storeHits.Add(1)
				if e.cache != nil {
					e.cache.add(k, a)
				}
				return newResult(a, keyHex, "store", start), nil
			}
		}
	}

	queueStart := time.Now()
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		e.canceled.Add(1)
		return nil, ctx.Err()
	}
	e.met.queue.ObserveDuration(time.Since(queueStart))
	defer func() { <-e.sem }()

	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	start = time.Now() // Elapsed excludes the queue wait

	if e.testHookCold != nil {
		e.testHookCold(raw)
	}

	bin, err := elfx.Load(raw)
	if err != nil {
		e.failures.Add(1)
		return nil, err
	}
	actx := analysis.NewContext(bin)
	report, err := core.IdentifyCtx(ctx, actx, opts)

	st := actx.Stats()
	e.met.observeStages(st)
	e.aggMu.Lock()
	e.agg.Add(st)
	e.aggMu.Unlock()

	if err != nil {
		if isContextErr(err) {
			e.canceled.Add(1)
		} else {
			e.failures.Add(1)
		}
		return nil, err
	}

	res = newResult(NewAnswer(report), keyHex, "", start)
	e.misses.Add(1)
	e.bytesIn.Add(uint64(len(raw)))
	if e.cache != nil {
		e.cache.add(k, res.Answer)
	}
	// Write-through to the persistent tier. Synchronous on purpose: the
	// encode+append is microseconds next to the analysis that just ran,
	// and a replica killed right after responding must find the result
	// on restart. Failures are counted and swallowed — the result is
	// already computed and the caller deserves it.
	if e.store != nil {
		if val, serr := encodeStoredResult(res.Answer, res.SHA256); serr != nil {
			e.storeErrors.Add(1)
		} else if serr := e.store.Put(key, val); serr != nil {
			e.storeErrors.Add(1)
		} else {
			e.storePuts.Add(1)
		}
	}
	return res, nil
}

// isContextErr reports whether err is a cancellation or deadline error —
// the class of failures that is private to one request and must not be
// shared with coalesced waiters or cached.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
