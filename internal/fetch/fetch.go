// Package fetch reimplements the FETCH baseline (Pang et al., "Towards
// Optimal Use of Exception Handling Information for Function Detection",
// DSN 2021) at the fidelity needed for comparative evaluation.
//
// FETCH's primary signal is the .eh_frame section: every FDE pc-begin is
// taken as a function entry. On top of that, FETCH hunts for tail-call
// targets: direct jumps that leave their enclosing FDE range are verified
// with a comparatively expensive analysis — per-function stack-height
// tracking and calling-convention (argument-register liveness) checks —
// before their targets are accepted as entries.
//
// Two properties of the real system are reproduced faithfully because the
// paper's evaluation depends on them:
//
//   - FETCH inherits .eh_frame coverage: when a toolchain emits no FDEs
//     (Clang for 32-bit C code) FETCH finds almost nothing;
//   - FDEs exist for .cold/.part fragments, which are not functions, so
//     FETCH reports them (its residual false positives);
//   - the verification pass walks a bounded window of instructions per
//     candidate and models the stack, which costs real time — FunSeeker's
//     speed advantage in the paper comes from skipping exactly this work.
//
// The .eh_frame parse and the escaping-jump scan come from the shared
// analysis.Context (one parse / one sweep per binary); the instruction
// decode, the lift to micro-ops and the stack-height dataflow remain
// FETCH's own per-run work, because their cost is exactly what the
// paper's runtime comparison measures.
package fetch

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"github.com/funseeker/funseeker/internal/analysis"
)

// Report is the identification result.
type Report struct {
	// Entries is the sorted set of identified function entries.
	Entries []uint64
	// FDEFunctions counts entries that came directly from FDE records.
	FDEFunctions int
	// VerifiedTailCalls counts entries added by tail-call verification.
	VerifiedTailCalls int
	// RejectedCandidates counts tail-call candidates the verifier threw
	// away.
	RejectedCandidates int
	// AnalyzedInsts counts instructions examined by the stack-height /
	// calling-convention analysis (the runtime cost driver).
	AnalyzedInsts int
}

// maxVerifyWindow bounds the per-candidate verification walk.
const maxVerifyWindow = 256

// Identify runs FETCH using the shared per-binary artifacts memoized in
// actx, checking ctx between its passes. The model reads x86
// instructions, so a binary of any other architecture is an error.
func Identify(ctx context.Context, actx *analysis.Context) (*Report, error) {
	bin := actx.Binary()
	if err := actx.RequireX86(); err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	report := &Report{}
	fdes, err := actx.FDEs()
	if err != nil {
		return nil, fmt.Errorf("fetch: eh_frame: %w", err)
	}

	entries := make(map[uint64]bool)
	type frange struct{ begin, end uint64 }
	ranges := make([]frange, 0, len(fdes))
	for _, f := range fdes {
		if !bin.InText(f.PCBegin) {
			continue
		}
		entries[f.PCBegin] = true
		ranges = append(ranges, frange{begin: f.PCBegin, end: f.PCBegin + f.PCRange})
	}
	report.FDEFunctions = len(entries)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	slices.SortFunc(ranges, func(a, b frange) int {
		switch {
		case a.begin < b.begin:
			return -1
		case a.begin > b.begin:
			return 1
		default:
			return 0
		}
	})

	// Profile every FDE-covered function: stack-height consistency and
	// argument-register usage. FETCH uses these profiles both to sanity
	// check its ranges and to verify tail-call candidates; the cost of
	// this full pass is the dominant term in its runtime. Each range is
	// decoded on demand; the decode, the lift and the stack-height
	// dataflow — the paper's cost driver, counted in AnalyzedInsts — run
	// per call.
	profiles := make(map[uint64]funcProfile, len(ranges))
	for _, r := range ranges {
		p := profileRange(bin, r.begin, r.end)
		profiles[r.begin] = p
		report.AnalyzedInsts += p.insts
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Find direct unconditional jumps escaping their FDE range, reading
	// the shared sweep's jump records (ascending by source) instead of
	// re-sweeping each range.
	sw, err := actx.SweepCtx(ctx)
	if err != nil {
		return nil, err
	}
	jumps := sw.JumpRefs
	candidates := make(map[uint64][]uint64) // target -> jump sources
	for _, r := range ranges {
		i := sort.Search(len(jumps), func(i int) bool { return jumps[i].Src >= r.begin })
		for ; i < len(jumps) && jumps[i].Src < r.end; i++ {
			j := jumps[i]
			if j.Cond || (j.Target >= r.begin && j.Target < r.end) {
				continue
			}
			if bin.InText(j.Target) && !entries[j.Target] {
				candidates[j.Target] = append(candidates[j.Target], j.Src)
			}
		}
	}

	// Verify each candidate with the expensive analysis.
	targets := make([]uint64, 0, len(candidates))
	for t := range candidates {
		targets = append(targets, t)
	}
	slices.Sort(targets)
	for _, t := range targets {
		prof := profileWindow(bin, t, maxVerifyWindow)
		report.AnalyzedInsts += prof.insts
		if prof.looksLikeFunction() {
			entries[t] = true
			report.VerifiedTailCalls++
		} else {
			report.RejectedCandidates++
		}
	}

	report.Entries = make([]uint64, 0, len(entries))
	for e := range entries {
		report.Entries = append(report.Entries, e)
	}
	slices.Sort(report.Entries)
	return report, nil
}
