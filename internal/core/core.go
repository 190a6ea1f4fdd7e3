// Package core implements FunSeeker, the CET-aware function-entry
// identification algorithm of Kim et al. (DSN 2022).
//
// The algorithm (paper Algorithm 1) is a single linear-sweep disassembly
// pass followed by two purely syntactic refinements:
//
//	E, C, J  = DISASSEMBLE(text)   // end branches, call targets, jump targets
//	E'       = FILTERENDBR(E)      // drop endbr after indirect-return calls
//	                               // and endbr at exception landing pads
//	J'       = SELECTTAILCALL(J)   // keep only direct jumps that look like
//	                               // tail calls
//	entries  = E' ∪ C ∪ J'
//
// Complexity is linear in the size of the binary; no data-flow analysis,
// CFG recovery, or learned model is involved.
//
// The DISASSEMBLE step and the exception-metadata parse are shared
// artifacts: they come from an analysis.Context, so when several
// configurations (or several tools) analyze the same binary the sweep and
// the .eh_frame parse happen once. Identify constructs a throwaway
// context; batch callers should build one analysis.Context per binary and
// use IdentifyCtx.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/elfx"
)

// ErrNotCET is returned when Options.RequireCET is set and the sweep
// finds no landmark instruction at all: the binary was not built with
// Intel CET / IBT (or, on AArch64, with BTI), so the marker-based
// algorithm has nothing to work with. Match with
// errors.Is(err, ErrNotCET).
var ErrNotCET = errors.New("core: no end branches found (binary not CET-enabled?)")

// Options selects which refinements run, mirroring the paper's four
// evaluation configurations (Table II).
type Options struct {
	// FilterEndbr enables FILTERENDBR (configurations ②③④).
	FilterEndbr bool
	// UseJumpTargets adds direct jump targets J to the candidate set
	// (configurations ③④).
	UseJumpTargets bool
	// SelectTailCall enables SELECTTAILCALL, replacing J with the
	// tail-call subset J′ (configuration ④).
	SelectTailCall bool
	// TailBoundaryOnly weakens SELECTTAILCALL to the boundary-escape
	// test alone, dropping the multiple-reference requirement. This is
	// an ablation knob (see DESIGN.md §4), not part of the paper's
	// configurations.
	TailBoundaryOnly bool
	// RequireCET makes identification fail with ErrNotCET when the sweep
	// finds no end-branch instruction at all. Corpus services use this to
	// reject non-CET binaries loudly instead of returning the silently
	// degraded E=∅ result.
	RequireCET bool
	// FuseEH fuses exception-handling metadata into the candidate set
	// (configuration ⑤, after Pang et al., arXiv:2104.03168): every
	// .eh_frame FDE pc-begin inside .text that is not an exception
	// landing pad becomes an entry, and — when SelectTailCall is on —
	// SELECTTAILCALL runs a second pass over the enlarged set, keeping
	// only extra tail-call targets that do not land strictly inside an
	// FDE coverage interval. The stage only ever adds candidates, so a
	// FuseEH report's entry set is a superset of the same options
	// without it. On binaries without CET markers the FDE+LSDA evidence
	// alone carries detection (RequireCET must be off for those).
	FuseEH bool
	// SupersetEndbrScan additionally scans for end-branch encodings at
	// every byte offset rather than only at linear-sweep instruction
	// boundaries. This realizes the paper's §VI suggestion of pairing
	// FunSeeker with superset disassembly: when hand-written assembly or
	// inline data desynchronizes the linear sweep, the byte-level scan
	// still recovers the end branches behind the junk. The end-branch
	// encodings are long and never alias compiler-generated code, so the
	// superset adds no false candidates on clean binaries.
	SupersetEndbrScan bool
}

// Configuration presets from Table II.
var (
	// Config1 is E ∪ C: raw end branches plus direct call targets.
	Config1 = Options{}
	// Config2 is E′ ∪ C: adds FILTERENDBR.
	Config2 = Options{FilterEndbr: true}
	// Config3 is E′ ∪ C ∪ J: additionally treats every direct jump
	// target as a candidate.
	Config3 = Options{FilterEndbr: true, UseJumpTargets: true}
	// Config4 is E′ ∪ C ∪ J′: the full FunSeeker algorithm.
	Config4 = Options{FilterEndbr: true, UseJumpTargets: true, SelectTailCall: true}
	// Config5 is E′ ∪ C ∪ J′ ∪ F: configuration ④ fused with .eh_frame
	// evidence (FDE starts + coverage intervals + LSDA landing pads).
	// Unlike ①–④ it keeps working on binaries with no CET markers at
	// all — FDE starts alone carry detection there.
	Config5 = Options{FilterEndbr: true, UseJumpTargets: true, SelectTailCall: true, FuseEH: true}
)

// DefaultOptions is the full algorithm (configuration ④).
var DefaultOptions = Config4

// Report is the result of one identification run.
type Report struct {
	// Arch names the backend that produced the report ("x86-64",
	// "aarch64", ...), in the canonical elfx.Arch spelling.
	Arch string

	// Entries is the sorted set of identified function entry addresses.
	Entries []uint64

	// Endbrs is E: every landmark address in .text — end branches on
	// x86, call-accepting BTI/PACIASP pads on AArch64.
	Endbrs []uint64
	// CallTargets is C: every direct-call target inside .text.
	CallTargets []uint64
	// JumpTargets is J: every direct unconditional-jump target inside
	// .text.
	JumpTargets []uint64
	// TailCallTargets is J′ after SELECTTAILCALL (empty unless enabled).
	TailCallTargets []uint64

	// FilteredIndirectReturn counts end branches removed because they
	// follow a call to an indirect-return function.
	FilteredIndirectReturn int
	// FilteredLandingPads counts end branches removed because they sit
	// at an exception landing pad.
	FilteredLandingPads int

	// FusedFDEEntries counts entries the EH-fusion stage added that no
	// other evidence source had found (zero unless Options.FuseEH).
	FusedFDEEntries int

	// Warnings records non-fatal degradations of the run — today, corrupt
	// exception metadata that forced FILTERENDBR to proceed without the
	// landing-pad set. Callers that need to tell filtered-with-EH from
	// fell-back-without-EH inspect this instead of guessing from counts.
	Warnings []string
}

// Identify runs FunSeeker over a loaded binary with a private analysis
// context. Batch callers analyzing one binary several times (or with
// several tools) should build one analysis.Context and use IdentifyCtx
// so the sweep and exception parse are shared.
func Identify(bin *elfx.Binary, opts Options) (*Report, error) {
	return IdentifyCtx(context.Background(), analysis.NewContext(bin), opts)
}

// IdentifyCtx runs FunSeeker using the shared per-binary analysis
// artifacts memoized in actx, under ctx: the dominant cost — the linear
// sweep — checks ctx at parallel-shard and stride boundaries, and the
// refinement stages check it at stage boundaries, so a canceled request
// returns ctx.Err() quickly instead of completing the analysis. (By
// convention throughout this module, ctx is a context.Context and actx a
// *analysis.Context.)
func IdentifyCtx(ctx context.Context, actx *analysis.Context, opts Options) (*Report, error) {
	bin := actx.Binary()
	sw, err := actx.SweepCtx(ctx)
	if err != nil {
		return nil, err
	}
	endbrs := sw.Endbrs
	if opts.RequireCET && len(endbrs) == 0 {
		if bin.Path != "" {
			return nil, fmt.Errorf("%s: %w", bin.Path, ErrNotCET)
		}
		return nil, ErrNotCET
	}
	if opts.SupersetEndbrScan {
		endbrs = union(actx.SupersetEndbrs(), endbrs)
	}

	report := &Report{
		Arch:        sw.Arch.String(),
		Endbrs:      append([]uint64(nil), endbrs...),
		CallTargets: append([]uint64(nil), sw.CallTargets...),
		JumpTargets: append([]uint64(nil), sw.JumpTargets...),
	}

	// FILTERENDBR. Every address set from here on is an ascending,
	// deduplicated slice. The landing-pad set is its own memoized stage,
	// so the filter clock starts once it is in hand.
	var landingPads []uint64
	if opts.FilterEndbr {
		pads, err := actx.LandingPads()
		if err != nil {
			// Corrupt exception metadata must not abort identification;
			// fall back to the unfiltered set for the EH part — and say
			// so, because the caller cannot otherwise distinguish a
			// pad-free binary from an unreadable one.
			report.Warnings = append(report.Warnings,
				"exception metadata unreadable, landing-pad filter disabled: "+err.Error())
		} else {
			landingPads = pads
		}
	}
	filterStart := time.Now()
	kept := make([]uint64, 0, len(endbrs))
	afterIR, pads := analysis.NewCursor(sw.AfterIRCall), analysis.NewCursor(landingPads)
	for _, e := range endbrs {
		if opts.FilterEndbr {
			if afterIR.Has(e) {
				report.FilteredIndirectReturn++
				continue
			}
			if pads.Has(e) {
				report.FilteredLandingPads++
				continue
			}
		}
		kept = append(kept, e)
	}
	candidates := union(kept, sw.CallTargets)
	actx.ObserveFilter(time.Since(filterStart))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Jump-target handling.
	var tails []uint64
	switch {
	case opts.UseJumpTargets && opts.SelectTailCall:
		tailStart := time.Now()
		tails = selectTailCalls(bin, sw, candidates, opts.TailBoundaryOnly)
		actx.ObserveTailCall(time.Since(tailStart))
		candidates = union(candidates, tails)
	case opts.UseJumpTargets:
		candidates = union(candidates, sw.JumpTargets)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// EH fusion (configuration ⑤). Runs after the marker pipeline is
	// complete and only ever adds candidates, so the result is a
	// superset of the same options without FuseEH by construction.
	if opts.FuseEH {
		candidates, tails = fuseEH(actx, bin, sw, opts, report, candidates, tails, landingPads)
	}
	if len(tails) > 0 {
		report.TailCallTargets = tails
	}

	if opts.FilterEndbr || opts.FuseEH {
		for _, w := range actx.EHWarnings() {
			report.Warnings = append(report.Warnings, "eh_frame: "+w)
		}
	}

	report.Entries = candidates
	return report, nil
}

// fuseEH is the configuration-⑤ stage: union in-text FDE start addresses
// (minus landing pads) into the candidate set, then — when tail-call
// selection is on — re-run SELECTTAILCALL over the enlarged set and keep
// only the extra tail targets that are not strictly interior to an FDE
// coverage interval (an interior "target" belongs to an already-known
// function) and not landing pads. Both steps are purely additive; it
// returns the enlarged candidate and tail-call sets.
func fuseEH(actx *analysis.Context, bin *elfx.Binary, sw *analysis.Sweep, opts Options,
	report *Report, candidates, tails, landingPads []uint64) ([]uint64, []uint64) {
	ix, err := actx.FDEIndex()
	if err != nil {
		// Same degradation contract as FILTERENDBR: corrupt exception
		// metadata must not abort identification, and the caller must be
		// able to tell fused from fell-back.
		report.Warnings = append(report.Warnings,
			"exception metadata unreadable, EH fusion disabled: "+err.Error())
		return candidates, tails
	}
	if !opts.FilterEndbr {
		// The filter stage did not materialize the landing-pad set; the
		// fusion stage still needs it (an FDE never *starts* at a pad,
		// but guard against hand-built metadata that says otherwise).
		if pads, err := actx.LandingPads(); err == nil {
			landingPads = pads
		}
	}
	// On a CET binary every real entry the fusion could add is a
	// marker-less function nothing references (the dead-static miss
	// class); an FDE start that IS a direct jump target there is a
	// .cold/.part fragment split out of its parent, and fusing it would
	// trade the recall win for a precision loss. On marker-free
	// binaries the distinction is unavailable — tail-called functions
	// are legitimately jump targets — so every FDE start counts.
	cet := len(sw.Endbrs) > 0
	var fused []uint64
	pads, known, jumpTargets := analysis.NewCursor(landingPads), analysis.NewCursor(candidates), analysis.NewCursor(sw.JumpTargets)
	for _, start := range ix.Starts {
		if pads.Has(start) || known.Has(start) {
			continue
		}
		if cet && jumpTargets.Has(start) {
			continue
		}
		fused = append(fused, start)
	}
	report.FusedFDEEntries = len(fused)
	if len(fused) == 0 {
		return candidates, tails
	}
	candidates = union(candidates, fused)
	if opts.UseJumpTargets && opts.SelectTailCall {
		tailStart := time.Now()
		// selectTailCalls never returns a known start, and the first
		// pass's tails are already candidates. Its result ascends.
		pads = analysis.NewCursor(landingPads)
		more := slices.DeleteFunc(selectTailCalls(bin, sw, candidates, opts.TailBoundaryOnly),
			func(t uint64) bool { return pads.Has(t) || ix.Interior(t) })
		actx.ObserveTailCall(time.Since(tailStart))
		tails = union(tails, more)
		candidates = union(candidates, more)
	}
	return candidates, tails
}

// union merges two ascending address slices into a new ascending,
// deduplicated slice (never nil).
func union(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	push := func(v uint64) {
		if n := len(out); n == 0 || out[n-1] != v {
			out = append(out, v)
		}
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			push(a[i])
			i++
		} else {
			push(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		push(a[i])
	}
	for ; j < len(b); j++ {
		push(b[j])
	}
	return out
}
