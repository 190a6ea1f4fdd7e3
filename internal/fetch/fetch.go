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
// The .eh_frame parse, the escaping-jump scan, and the raw instruction
// decode all come from the shared analysis.Context (one parse / one
// sweep per binary); the lift to micro-ops and the stack-height
// dataflow remain FETCH's own per-run work, because their cost is
// exactly what the paper's runtime comparison measures.
package fetch

import (
	"context"
	"fmt"
	"slices"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/x86"
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

// Identify runs the FETCH algorithm on a loaded binary with a private
// analysis context.
func Identify(bin *elfx.Binary) (*Report, error) {
	return IdentifyWithContext(analysis.NewContext(bin))
}

// IdentifyWithContext runs FETCH using the shared per-binary artifacts
// memoized in actx. The model reads x86 instructions, so a binary of any
// other architecture is an error.
func IdentifyWithContext(actx *analysis.Context) (*Report, error) {
	bin := actx.Binary()
	idx, err := actx.IndexCtx(context.Background())
	if err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
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
	// this full pass is the dominant term in its runtime. The raw decode
	// of each range is served from the shared instruction index; the
	// lift and the stack-height dataflow — the paper's cost driver,
	// counted in AnalyzedInsts — run per call.
	profiles := make(map[uint64]funcProfile, len(ranges))
	for _, r := range ranges {
		p := profileRange(bin, idx, r.begin, r.end)
		profiles[r.begin] = p
		report.AnalyzedInsts += p.insts
	}

	// Find direct jumps escaping their FDE range, reading the shared
	// instruction index instead of re-sweeping each range.
	candidates := make(map[uint64][]uint64) // target -> jump sources
	for _, r := range ranges {
		for _, inst := range idx.Range(r.begin, r.end) {
			if inst.Class == x86.ClassJmpRel && inst.HasTarget {
				if inst.Target < r.begin || inst.Target >= r.end {
					if bin.InText(inst.Target) && !entries[inst.Target] {
						candidates[inst.Target] = append(candidates[inst.Target], inst.Addr)
					}
				}
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
		prof := profileWindow(bin, idx, t, maxVerifyWindow)
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
