// Package ghidra models Ghidra's function discovery (version 10.0.4 in
// the paper's evaluation): aggressive use of .eh_frame Frame Description
// Entries as function starts, recursive descent from the entry point and
// call targets, and frame-pointer prologue signatures over leftover gaps.
//
// The model reproduces the behaviour the paper measures: excellent recall
// wherever FDEs cover the code (x86-64, GCC x86) and a sharp recall drop
// on 32-bit Clang C binaries, which carry no FDE records; and false
// positives from FDEs that describe .cold/.part fragments.
package ghidra

import (
	"context"
	"fmt"
	"slices"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/recdesc"
)

// Report is the identification result.
type Report struct {
	// Entries is the sorted set of identified function entries.
	Entries []uint64
	// FromFDE counts entries taken from .eh_frame.
	FromFDE int
	// FromTraversal counts entries found by recursive descent.
	FromTraversal int
	// FromPrologue counts entries found by prologue signatures.
	FromPrologue int
}

// Identify runs the Ghidra-style algorithm with a private analysis
// context.
func Identify(bin *elfx.Binary) (*Report, error) {
	return IdentifyWithContext(analysis.NewContext(bin))
}

// IdentifyWithContext runs the Ghidra-style algorithm using the shared
// per-binary artifacts memoized in actx. The model reads x86
// instructions, so a binary of any other architecture is an error.
func IdentifyWithContext(actx *analysis.Context) (*Report, error) {
	bin := actx.Binary()
	idx, err := actx.IndexCtx(context.Background())
	if err != nil {
		return nil, fmt.Errorf("ghidra: %w", err)
	}
	report := &Report{}
	found := make(map[uint64]bool)

	// Pass 1: .eh_frame FDE starts (parsed once per binary, shared with
	// the other .eh_frame consumers).
	fdes, err := actx.FDEs()
	if err != nil {
		return nil, fmt.Errorf("ghidra: eh_frame: %w", err)
	}
	seeds := []uint64{bin.Entry}
	for _, f := range fdes {
		if bin.InText(f.PCBegin) {
			if !found[f.PCBegin] {
				found[f.PCBegin] = true
				report.FromFDE++
			}
			seeds = append(seeds, f.PCBegin)
		}
	}

	// Pass 2: recursive descent from the entry point and every FDE
	// function, expanding through direct calls. Decoding is served from
	// the shared linear-sweep index where possible.
	walker := recdesc.NewWalker(bin, idx)
	res := walker.Traverse(seeds)
	for e := range res.Functions {
		if !found[e] {
			found[e] = true
			report.FromTraversal++
		}
	}

	// Pass 3: prologue signatures over the gaps, instruction by
	// instruction. Ghidra's function start patterns recognize classic
	// frame-pointer prologues; it does not key on end-branch markers
	// (the paper's central observation).
	recdesc.WalkGapsIndexed(bin, idx, res.Covered, func(va uint64, _ bool) bool {
		if recdesc.ClassifyPrologueIndexed(bin, idx, va) != recdesc.PrologueFramePointer {
			return false
		}
		found[va] = true
		report.FromPrologue++
		// Newly found functions expand the call graph; their coverage is
		// marked in place on the shared array.
		sub := walker.TraverseInto([]uint64{va}, res.Covered)
		for e := range sub.Functions {
			if !found[e] {
				found[e] = true
				report.FromTraversal++
			}
		}
		return true
	})

	report.Entries = make([]uint64, 0, len(found))
	for e := range found {
		report.Entries = append(report.Entries, e)
	}
	slices.Sort(report.Entries)
	return report, nil
}
