// Package analysis provides the shared per-binary analysis context.
//
// Every identifier in this module — the five FunSeeker configurations and
// the IDA, Ghidra, and FETCH baseline models — starts from the same
// expensive artifacts: one linear sweep of .text yielding the end-branch
// set E with its indirect-return annotations and the direct call/jump
// reference sets C and J (never materialized as instructions), the
// parsed .eh_frame FDE records, and the exception landing-pad set. Before
// this package existed each tool recomputed them independently, so one
// evaluation cell did ~7× redundant work per binary.
//
// Context memoizes each artifact in one slot of one memo type: it is
// computed exactly once per binary, on first demand, and every later
// consumer — including consumers on other goroutines — gets the cached
// value. The memo is cancel-aware: a sweep canceled through its
// context.Context is not cached. All artifacts are immutable after
// construction, so a single Context is safe to share across the
// evaluation runner's worker pool. Per-stage wall-clock costs and
// hit/miss counts are recorded in Stats (see stats.go) so the runtime
// tables can report where time actually goes.
//
// The sweep and the landmark scan are produced by the architecture
// Backend (see backend.go) the binary itself names: x86/CET and
// AArch64/BTI today, dispatched from the ELF header.
package analysis

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/funseeker/funseeker/internal/ehframe"
	"github.com/funseeker/funseeker/internal/ehinfo"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/x86"
)

// JumpRef records one direct jump instruction and its target: Src is the
// address of the jump instruction, Target the absolute destination, and
// Cond whether the jump is conditional (Jcc). The AArch64 backend records
// unconditional jumps only, so Cond is always false there. It is the x86
// records sweep's own branch record, so the x86 backend hands its jumps
// over without a copy.
type JumpRef = x86.Ref

// Sweep carries what one linear-sweep disassembly pass collects — the
// reference sets E, C and J the identification algorithms consume, as
// sorted, deduplicated address slices (query them with Has). The
// vocabulary is backend-neutral — "end branch" means whatever landmark
// the ISA places at indirect-call targets (ENDBR on x86, call-accepting
// BTI/PACIASP pads on AArch64). All fields are populated once and must be
// treated as read-only.
type Sweep struct {
	// Arch is the backend that produced the sweep.
	Arch elfx.Arch

	// Shards / StitchRetries are the backend-neutral parallel-decode
	// accounting (1 / 0 for a sequential sweep).
	Shards        int
	StitchRetries int

	// Endbrs is E: every landmark address in .text, ascending.
	Endbrs []uint64
	// AfterIRCall is the end-branch addresses immediately preceded by a
	// call to a PLT entry of an indirect-return (setjmp-family) function,
	// ascending. Always empty on AArch64, where no analog is needed (see
	// JumpPads).
	AfterIRCall []uint64
	// JumpPads is the indirect-jump-only landmark set (BTI j switch
	// labels), excluded from E by the ISA itself. Empty on x86, where the
	// single ENDBR encoding accepts calls and jumps alike.
	JumpPads []uint64

	// CallTargets is C: every direct-call target inside .text, ascending.
	CallTargets []uint64
	// AllCallTargets additionally includes direct-call targets outside
	// .text (PLT stubs and the like), ascending.
	AllCallTargets []uint64

	// JumpRefs is every direct jump with its source retained for
	// SELECTTAILCALL, ascending by Src: conditional and unconditional on
	// x86, unconditional only on AArch64 (matching the BTI algorithm's J).
	JumpRefs []JumpRef
	// JumpOrder is the JumpRefs indexes ordered by Target, stably: within
	// one target the indexes — and so the sources — ascend. It is the
	// sweep's one ordering of its jumps; JumpTargets, UncondJumpTargets
	// and both SELECTTAILCALL passes walk it instead of sorting again.
	JumpOrder []int32
	// JumpTargets is J restricted to .text, ascending.
	JumpTargets []uint64
	// UncondJumpTargets is the unconditional-only targets (any address),
	// ascending — the DirJmpTarget property of the Figure 3 study.
	UncondJumpTargets []uint64
}

// memo is one lazily computed, cancel-aware artifact slot.
//
// It is not a sync.Once: a canceled computation must leave the cache
// empty so the next caller recomputes under its own context, and a
// caller waiting behind an in-flight computation must still be able to
// honor its own cancellation. mu guards every field; building is set
// while some goroutine is computing, and the first goroutine to wait
// behind it makes wait, which the build closes when it ends (so an
// uncontended build allocates nothing).
type memo[T any] struct {
	mu       sync.Mutex
	building bool
	wait     chan struct{}
	done     bool
	val      T
}

// get returns the memoized value, computing it with build on first
// demand and charging the computation (or the hit) to st. before, when
// non-nil, runs on the computing goroutine ahead of build and outside
// its clock: an artifact built from another memoized artifact fetches
// it there, so stage clocks never nest. A failed or panicking build is
// not memoized, so an artifact whose failure is deterministic carries
// it inside its value. A caller waiting behind another goroutine's
// in-flight build returns ctx.Err() as soon as its own ctx is done, and
// takes the build over itself when the other goroutine fails.
func (m *memo[T]) get(ctx context.Context, st *stageCounter, before func(), build func() (T, error)) (T, error) {
	for {
		m.mu.Lock()
		if m.done {
			m.mu.Unlock()
			st.hits.Add(1)
			return m.val, nil
		}
		if !m.building {
			// We are the computing goroutine.
			m.building = true
			m.mu.Unlock()
			return m.compute(st, before, build)
		}
		if m.wait == nil {
			m.wait = make(chan struct{})
		}
		wait := m.wait
		m.mu.Unlock()
		select {
		case <-wait:
			// Loop: either the value is memoized now, or the computing
			// goroutine failed and we take over with our own ctx.
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}

// compute runs one build for get and publishes its outcome; the
// deferred publish releases the waiters even when build panics.
func (m *memo[T]) compute(st *stageCounter, before func(), build func() (T, error)) (v T, err error) {
	built := false
	defer func() {
		m.mu.Lock()
		m.building = false
		if built && err == nil {
			m.val, m.done = v, true
		}
		if m.wait != nil {
			close(m.wait)
			m.wait = nil
		}
		m.mu.Unlock()
	}()
	if before != nil {
		before()
	}
	start := time.Now()
	v, err = build()
	built = true
	if err == nil {
		st.observe(time.Since(start))
	}
	return v, err
}

// ehParse is the memoized .eh_frame parse. A parse error is a property
// of the bytes, so it is memoized with the value and every artifact
// built from the parse carries it too.
type ehParse struct {
	fdes  []ehframe.FDE
	warns []string
	err   error
}

// ehDerived is an artifact built from the .eh_frame parse, with the
// parse's error.
type ehDerived[T any] struct {
	val T
	err error
}

// Context is the shared per-binary analysis state. Create one per binary
// with NewContext, hand it to every analyzer interested in that binary,
// and each shared artifact is computed exactly once no matter how many
// tools, configurations, or goroutines consume it.
type Context struct {
	bin *elfx.Binary

	sweep    memo[*Sweep]
	superset memo[[]uint64]
	eh       memo[ehParse]
	pads     memo[ehDerived[[]uint64]]
	fdeIx    memo[ehDerived[*FDEIndex]]

	stats statCounters
}

// NewContext wraps a loaded binary in a fresh analysis context. Nothing
// is computed until first demand.
func NewContext(bin *elfx.Binary) *Context {
	return &Context{bin: bin}
}

// Binary returns the underlying loaded binary.
func (c *Context) Binary() *elfx.Binary { return c.bin }

// Sweep returns the memoized linear-sweep artifacts, computing them on
// first call.
func (c *Context) Sweep() *Sweep {
	sw, _ := c.SweepCtx(context.Background()) // background never cancels
	return sw
}

// SweepCtx returns the memoized linear-sweep artifacts of the binary's
// backend, computing them under ctx on first call. Cancellation is
// cooperative: the sweep checks ctx at parallel-shard and stride
// boundaries, so an aborted request stops burning CPU within tens of
// microseconds. A canceled computation is not memoized — the next
// caller recomputes under its own context — and a caller waiting behind
// another goroutine's in-flight computation returns ctx.Err() as soon as
// its own context is done.
func (c *Context) SweepCtx(ctx context.Context) (*Sweep, error) {
	be, err := BackendFor(resolveArch(c.bin))
	if err != nil {
		return nil, err
	}
	return c.sweep.get(ctx, &c.stats.sweep, nil, func() (*Sweep, error) {
		sw, err := be.BuildSweep(ctx, c.bin)
		if err == nil {
			c.stats.sweepShards.Add(uint64(sw.Shards))
			c.stats.stitchRetries.Add(uint64(sw.StitchRetries))
		}
		return sw, err
	})
}

// RequireX86 reports an error naming the binary's architecture unless
// it is x86 or x86-64. The baseline tool models decode x86 instructions
// on demand and call it before their first pass.
func (c *Context) RequireX86() error {
	switch arch := resolveArch(c.bin); arch {
	case elfx.ArchX86, elfx.ArchX86_64:
		return nil
	default:
		return fmt.Errorf("analysis: no x86 instruction index for %s binary", arch)
	}
}

// FDEs returns the memoized .eh_frame FDE records. Binaries without an
// .eh_frame section yield an empty slice without a parse.
func (c *Context) FDEs() ([]ehframe.FDE, error) {
	eh := c.ehParse()
	return eh.fdes, eh.err
}

// ehParse returns the memoized .eh_frame parse (the zero parse, without
// touching the stage counters, when there is no .eh_frame).
func (c *Context) ehParse() ehParse {
	if len(c.bin.EHFrame) == 0 {
		return ehParse{}
	}
	eh, _ := c.eh.get(context.Background(), &c.stats.ehParse, nil, func() (eh ehParse, _ error) {
		eh.fdes, eh.warns, eh.err = ehframe.ParseWithWarnings(c.bin.EHFrame, c.bin.EHFrameAddr, c.bin.PtrSize())
		return eh, nil
	})
	return eh
}

// EHWarnings returns the non-fatal degradations the .eh_frame parse
// applied (unknown CIE augmentations, skipped FDEs). It shares the
// memoized parse with FDEs; a well-formed section yields none.
func (c *Context) EHWarnings() []string {
	return c.ehParse().warns
}

// FDEIndex is the interval view of a binary's FDE records: the set of
// pc-begin addresses (candidate function entries under EH-fused
// detection, per Pang et al., arXiv:2104.03168) plus a merged coverage
// map answering "does some FDE cover this address?". All fields are
// read-only after construction.
type FDEIndex struct {
	// Starts is every FDE pc-begin that lies inside .text, ascending,
	// deduplicated.
	Starts []uint64

	// begins/ends are the merged coverage intervals, sorted by begin.
	begins []uint64
	ends   []uint64
}

// Covers reports whether addr falls inside some FDE coverage interval
// [pc-begin, pc-begin+pc-range).
func (ix *FDEIndex) Covers(addr uint64) bool {
	i := sort.Search(len(ix.begins), func(i int) bool { return ix.begins[i] > addr })
	return i > 0 && addr < ix.ends[i-1]
}

// Interior reports whether addr is strictly inside an FDE coverage
// interval — covered, but not a pc-begin. An FDE-covered tail-call
// "target" that is Interior is part of an already-known function, not a
// new entry.
func (ix *FDEIndex) Interior(addr uint64) bool {
	return ix.Covers(addr) && !Has(ix.Starts, addr)
}

// FDEIndex returns the memoized interval index over the binary's FDE
// records, derived from the memoized parse (so the whole context still
// performs at most one .eh_frame parse). Binaries without .eh_frame
// yield an empty index.
func (c *Context) FDEIndex() (*FDEIndex, error) {
	var eh ehParse
	ix, _ := c.fdeIx.get(context.Background(), &c.stats.fdeIndex, func() { eh = c.ehParse() }, func() (ehDerived[*FDEIndex], error) {
		if eh.err != nil {
			return ehDerived[*FDEIndex]{err: eh.err}, nil
		}
		return ehDerived[*FDEIndex]{val: buildFDEIndex(c.bin, eh.fdes)}, nil
	})
	return ix.val, ix.err
}

// buildFDEIndex materializes the start set and merged coverage intervals
// for the FDEs that land in .text. Starts and interval begins go through
// sortKeys, so the index costs a few linear passes over the FDEs.
func buildFDEIndex(bin *elfx.Binary, fdes []ehframe.FDE) *FDEIndex {
	textEnd := bin.TextEnd()
	ix := &FDEIndex{Starts: make([]uint64, 0, len(fdes))}
	begins, ends := make([]uint64, 0, len(fdes)), make([]uint64, 0, len(fdes))
	for _, fde := range fdes {
		if fde.PCBegin < bin.TextAddr || fde.PCBegin >= textEnd {
			continue
		}
		ix.Starts = append(ix.Starts, fde.PCBegin)
		end := fde.PCBegin + fde.PCRange
		if end > textEnd {
			end = textEnd
		}
		if end > fde.PCBegin {
			begins = append(begins, fde.PCBegin)
			ends = append(ends, end)
		}
	}
	ix.Starts = sortCompact(ix.Starts)
	order := make([]int32, len(begins))
	for i := range order {
		order[i] = int32(i)
	}
	sortKeys(begins, order)
	for i, begin := range begins {
		end := ends[order[i]]
		n := len(ix.begins)
		if n > 0 && begin <= ix.ends[n-1] {
			if end > ix.ends[n-1] {
				ix.ends[n-1] = end
			}
			continue
		}
		ix.begins = append(ix.begins, begin)
		ix.ends = append(ix.ends, end)
	}
	return ix
}

// LandingPads returns the memoized exception landing-pad set — every
// landing-pad address, ascending and deduplicated (query it with Has) —
// derived from the memoized FDE records, so the whole context performs
// at most one .eh_frame parse. The returned slice is read-only.
func (c *Context) LandingPads() ([]uint64, error) {
	var eh ehParse
	pads, _ := c.pads.get(context.Background(), &c.stats.landingPad, func() { eh = c.ehParse() }, func() (ehDerived[[]uint64], error) {
		if eh.err != nil {
			return ehDerived[[]uint64]{err: eh.err}, nil
		}
		return ehDerived[[]uint64]{val: sortCompact(ehinfo.LandingPadsFromFDEs(c.bin, eh.fdes))}, nil
	})
	return pads.val, pads.err
}

// SupersetEndbrs returns the memoized byte-level landmark scan of the
// binary's backend: every address at which a call-accepting landmark
// encoding occurs, at any byte offset of .text, ascending. This is the
// superset-disassembly pairing the paper's §VI proposes; it is kept
// separate from Sweep because only the SupersetEndbrScan option
// consumes it. Architectures without a backend yield nil.
func (c *Context) SupersetEndbrs() []uint64 {
	be, err := BackendFor(resolveArch(c.bin))
	if err != nil {
		return nil
	}
	vas, _ := c.superset.get(context.Background(), &c.stats.superset, nil, func() ([]uint64, error) {
		return be.ScanMarkers(c.bin.Text, c.bin.TextAddr), nil
	})
	return vas
}

// ObserveFilter records one FILTERENDBR stage execution of duration d.
func (c *Context) ObserveFilter(d time.Duration) { c.stats.filter.observe(d) }

// ObserveTailCall records one SELECTTAILCALL stage execution of
// duration d.
func (c *Context) ObserveTailCall(d time.Duration) { c.stats.tailCall.observe(d) }
