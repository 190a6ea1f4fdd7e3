// Package idapro models the function identification behaviour of a
// classic interactive disassembler (IDA Pro 7.6 in the paper's
// evaluation): recursive descent from the program entry point, direct
// call-target expansion, frame-pointer prologue signatures over the
// unexplored gaps, code-reference analysis for address-taken functions,
// unverified tail-call splitting, and an orphan-code rescue pass.
//
// Deliberately absent — matching the paper's observation — is any use of
// CET end-branch instructions or exception-handling metadata. The model
// therefore reproduces IDA's characteristic failure mode: functions
// reachable only through indirect branches (data-table function pointers,
// exported-but-unreferenced entries in optimized builds) are missed,
// which the paper measures as 96% of IDA's false negatives.
package idapro

import (
	"context"
	"fmt"
	"slices"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/recdesc"
	"github.com/funseeker/funseeker/internal/x86"
)

// Report is the identification result.
type Report struct {
	// Entries is the sorted set of identified function entries.
	Entries []uint64
	// FromTraversal counts entries found by recursive descent.
	FromTraversal int
	// FromPrologue counts entries found by prologue signatures.
	FromPrologue int
	// FromCodeRef counts entries found via code references (lea /
	// mov-immediate of a .text address).
	FromCodeRef int
	// FromOrphanRescue counts entries created from orphan code chunks.
	FromOrphanRescue int
}

// Identify runs the IDA-style algorithm with a private analysis context.
func Identify(bin *elfx.Binary) (*Report, error) {
	return IdentifyWithContext(analysis.NewContext(bin))
}

// IdentifyWithContext runs the IDA-style algorithm using the shared
// per-binary artifacts memoized in actx. The model reads x86
// instructions, so a binary of any other architecture is an error.
func IdentifyWithContext(actx *analysis.Context) (*Report, error) {
	bin := actx.Binary()
	idx, err := actx.IndexCtx(context.Background())
	if err != nil {
		return nil, fmt.Errorf("idapro: %w", err)
	}
	report := &Report{}
	found := make(map[uint64]bool)

	// IDA parses the ELF exception metadata and attributes landing pads
	// to their parent functions, so catch blocks are not promoted to
	// functions by the orphan rescue. (It still does not use end-branch
	// instructions or FDE starts for identification.)
	pads, err := actx.LandingPads()
	if err != nil {
		pads = map[uint64]bool{}
	}

	// Seed: the program entry point plus code-referenced addresses
	// (IDA's immediate/offset analysis finds lea rdi, [rip+func] and
	// push $func references).
	seeds := []uint64{bin.Entry}
	codeRefs := collectCodeRefs(bin, idx)
	seeds = append(seeds, codeRefs...)

	walker := recdesc.NewWalker(bin, idx)
	res := walker.Traverse(seeds)
	for e := range res.Functions {
		found[e] = true
	}
	report.FromTraversal = len(res.Functions)
	crSet := make(map[uint64]bool, len(codeRefs))
	for _, r := range codeRefs {
		crSet[r] = true
		if found[r] {
			report.FromCodeRef++
		}
	}

	// Unverified tail-call splitting: every escaping jump target becomes
	// a function (IDA splits on far jumps without FETCH-style checks).
	escapes := map[uint64]bool{}
	for _, fn := range res.Functions {
		for _, t := range fn.EscapingJumps {
			escapes[t] = true
		}
	}
	for t := range escapes {
		if !found[t] {
			found[t] = true
		}
	}
	// Explore the newly split functions so their bodies count as covered
	// (marked in place on the shared coverage array).
	walker.TraverseInto(setToSlice(escapes), res.Covered)

	// Gap analysis: prologue signatures and orphan-code rescue, walking
	// each gap instruction by instruction so back-to-back unaligned
	// functions are all examined.
	recdesc.WalkGapsIndexed(bin, idx, res.Covered, func(va uint64, chunkStart bool) bool {
		accepted := false
		switch recdesc.ClassifyPrologueIndexed(bin, idx, va) {
		case recdesc.PrologueFramePointer:
			accepted = true
			report.FromPrologue++
		default:
			// Orphan rescue: an unreached chunk that performs a call is
			// promoted to a function (how IDA materializes orphan code).
			// Applied only at chunk starts and only to substantial
			// chunks — small orphan stubs (e.g. most exception landing
			// pads) are left as loose code, though large pads still slip
			// through as spurious functions.
			if chunkStart && !pads[va] && chunkLen(bin, res.Covered, va) >= minRescueChunk &&
				recdesc.ContainsEarlyCallIndexed(bin, idx, va, 8) {
				accepted = true
				report.FromOrphanRescue++
			}
		}
		if !accepted {
			return false
		}
		found[va] = true
		sub := walker.TraverseInto([]uint64{va}, res.Covered)
		for e := range sub.Functions {
			if !found[e] {
				found[e] = true
				report.FromTraversal++
			}
		}
		return true
	})

	report.Entries = setToSlice(found)
	slices.Sort(report.Entries)
	return report, nil
}

// collectCodeRefs finds .text addresses materialized by code: RIP-relative
// lea and mov-immediate forms, read off the shared instruction index.
// Data-section function-pointer tables are invisible to this analysis —
// exactly IDA's blind spot.
func collectCodeRefs(bin *elfx.Binary, idx *x86.Index) []uint64 {
	var refs []uint64
	insts := idx.Insts
	for i := range insts {
		inst := &insts[i]
		// lea reg, [rip+disp] referencing .text.
		if inst.OpcodeMap == 1 && inst.Opcode == 0x8D && inst.HasRIPRef && bin.InText(inst.RIPRef) {
			refs = append(refs, inst.RIPRef)
		}
		// mov reg, imm32 whose immediate lands in .text (32-bit idiom).
		if bin.Mode == x86.Mode32 && inst.OpcodeMap == 1 &&
			inst.Opcode >= 0xB8 && inst.Opcode <= 0xBF && inst.HasImm {
			if va := uint64(uint32(inst.Imm)); bin.InText(va) {
				refs = append(refs, va)
			}
		}
	}
	return refs
}

func setToSlice(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	return out
}

// minRescueChunk is the smallest orphan chunk worth promoting to a
// function.
const minRescueChunk = 80

// chunkLen measures the uncovered run starting at va.
func chunkLen(bin *elfx.Binary, covered []bool, va uint64) int {
	off := int(va - bin.TextAddr)
	n := 0
	for off+n < len(covered) && !covered[off+n] {
		n++
	}
	return n
}
