package analysis

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// StageStat is the cost accounting of one analysis stage.
type StageStat struct {
	// Computes counts cold executions (cache misses for memoized stages,
	// plain executions for per-run stages).
	Computes uint64
	// Hits counts memoized lookups served from cache.
	Hits uint64
	// Time is the total wall-clock time spent computing.
	Time time.Duration
}

// Add accumulates another stage's numbers.
func (s *StageStat) Add(o StageStat) {
	s.Computes += o.Computes
	s.Hits += o.Hits
	s.Time += o.Time
}

// Mean is the average time per compute.
func (s StageStat) Mean() time.Duration {
	if s.Computes == 0 {
		return 0
	}
	return s.Time / time.Duration(s.Computes)
}

// Stats is a point-in-time snapshot of a Context's per-stage accounting —
// or, via Add, the aggregate over many contexts (one evaluation run).
// The memoized stages (Sweep, EHParse, LandingPad, FDEIndex,
// Superset) count cache hits and misses; the per-run refinement stages
// (Filter, TailCall) count executions only.
type Stats struct {
	// Sweep is the linear-sweep disassembly (reference sets E, C, J).
	Sweep StageStat
	// EHParse is the .eh_frame FDE parse.
	EHParse StageStat
	// LandingPad is the FDE×LSDA landing-pad join.
	LandingPad StageStat
	// FDEIndex is the FDE start-set + coverage-interval index build.
	FDEIndex StageStat
	// Superset is the byte-level end-branch scan.
	Superset StageStat
	// Filter is the FILTERENDBR refinement (per identification run).
	Filter StageStat
	// TailCall is the SELECTTAILCALL refinement (per identification run).
	TailCall StageStat

	// SweepShards is the total shard count across sweeps (1 per
	// sequentially-swept binary, the worker count per parallel sweep).
	SweepShards uint64
	// StitchRetries is the total number of seam instructions the
	// parallel sweeps had to re-decode before shard streams
	// re-synchronized.
	StitchRetries uint64
}

// Add accumulates another snapshot.
func (s *Stats) Add(o Stats) {
	s.Sweep.Add(o.Sweep)
	s.EHParse.Add(o.EHParse)
	s.LandingPad.Add(o.LandingPad)
	s.FDEIndex.Add(o.FDEIndex)
	s.Superset.Add(o.Superset)
	s.Filter.Add(o.Filter)
	s.TailCall.Add(o.TailCall)
	s.SweepShards += o.SweepShards
	s.StitchRetries += o.StitchRetries
}

// EachStage calls f once per pipeline stage, in canonical order, with
// the stage's stable name. It is the single enumeration point shared by
// the Render table, the engine's per-stage latency histograms, and the
// CLI summary — adding a stage here adds it everywhere.
func (s Stats) EachStage(f func(name string, st StageStat)) {
	f("sweep", s.Sweep)
	f("eh-parse", s.EHParse)
	f("landing-pad", s.LandingPad)
	f("fde-index", s.FDEIndex)
	f("superset", s.Superset)
	f("filter", s.Filter)
	f("tail-call", s.TailCall)
}

// Render formats the per-stage cost table (the Table-V-style runtime
// breakdown).
func (s Stats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-stage analysis cost (shared-context accounting)\n")
	fmt.Fprintf(&b, "  %-12s %9s %9s %12s %12s\n", "stage", "computes", "hits", "total", "mean")
	s.EachStage(func(name string, st StageStat) {
		if st.Computes == 0 && st.Hits == 0 {
			return
		}
		fmt.Fprintf(&b, "  %-12s %9d %9d %12s %12s\n", name, st.Computes, st.Hits, st.Time, st.Mean())
	})
	if s.SweepShards > s.Sweep.Computes {
		fmt.Fprintf(&b, "  %-12s %9d shards, %d stitch retries\n",
			"par-sweep", s.SweepShards, s.StitchRetries)
	}
	return b.String()
}

// statCounters is the live, atomically-updated form of Stats inside a
// Context.
type statCounters struct {
	sweep      stageCounter
	ehParse    stageCounter
	landingPad stageCounter
	fdeIndex   stageCounter
	superset   stageCounter
	filter     stageCounter
	tailCall   stageCounter

	sweepShards   atomic.Uint64
	stitchRetries atomic.Uint64
}

// stageCounter accumulates one stage concurrently.
type stageCounter struct {
	computes atomic.Uint64
	hits     atomic.Uint64
	nanos    atomic.Int64
}

// observe records one cold execution of duration d.
func (c *stageCounter) observe(d time.Duration) {
	c.computes.Add(1)
	c.nanos.Add(int64(d))
}

// snapshot reads the counter.
func (c *stageCounter) snapshot() StageStat {
	return StageStat{
		Computes: c.computes.Load(),
		Hits:     c.hits.Load(),
		Time:     time.Duration(c.nanos.Load()),
	}
}

// Stats returns a consistent-enough snapshot of the context's counters.
func (c *Context) Stats() Stats {
	return Stats{
		Sweep:         c.stats.sweep.snapshot(),
		EHParse:       c.stats.ehParse.snapshot(),
		LandingPad:    c.stats.landingPad.snapshot(),
		FDEIndex:      c.stats.fdeIndex.snapshot(),
		Superset:      c.stats.superset.snapshot(),
		Filter:        c.stats.filter.snapshot(),
		TailCall:      c.stats.tailCall.snapshot(),
		SweepShards:   c.stats.sweepShards.Load(),
		StitchRetries: c.stats.stitchRetries.Load(),
	}
}

// onceStage is sync.Once plus hit/miss/time accounting: the first do
// executes fn and charges its duration as a compute; later calls count as
// cache hits.
type onceStage struct {
	once sync.Once
}

func (o *onceStage) do(c *stageCounter, fn func()) {
	o.doAfter(c, nil, fn)
}

// doAfter is do for a stage built from another stage's artifact: on the
// first call deps (when non-nil) fetches that artifact before the clock
// starts, so the nested stage is charged to its own counter only and the
// stage times of one request add up to no more than its wall time.
func (o *onceStage) doAfter(c *stageCounter, deps, fn func()) {
	ran := false
	o.once.Do(func() {
		if deps != nil {
			deps()
		}
		start := time.Now()
		fn()
		c.observe(time.Since(start))
		ran = true
	})
	if !ran {
		c.hits.Add(1)
	}
}
