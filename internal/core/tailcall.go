package core

import (
	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/elfx"
)

// selectTailCalls implements SELECTTAILCALL (paper §IV-D): a direct
// unconditional jump target is accepted as a tail-called function entry
// when
//
//  1. the target lies beyond the boundary of the function containing the
//     jump (boundaries approximated by the already-known starts E′ ∪ C,
//     following Qiao et al.), and
//  2. the target is referenced by multiple functions — the jump's own
//     function alone is not evidence (inspired by FETCH).
//
// Both checks are purely syntactic; no stack-height or calling-convention
// analysis is performed, which is what makes FunSeeker fast.
// boundaryOnly drops check (2), the ablation measured in the benchmark
// harness: without the multi-reference requirement every interior jump
// that happens to cross an approximated boundary becomes a function.
//
// known must be ascending and deduplicated; the result is ascending.
// The work is two linear walks over the sweep's jumps and no sort: one
// cursor walk over known in Src order finds each jump's containing
// function and whether the jump leaves it, then a walk over
// sw.JumpOrder visits each target's jumps as one run. A run's sources
// ascend and the containing function is monotone in the source, so
// distinct source functions are adjacent in the run and are counted
// without a set.
func selectTailCalls(bin *elfx.Binary, sw *analysis.Sweep, known []uint64, boundaryOnly bool) []uint64 {
	jumps := sw.JumpRefs
	textEnd := bin.TextEnd()
	// fn[i]>>1 is the index in known of the start of the function
	// containing jumps[i] (-1 if none); bit 0 is set when the jump
	// escapes that function's extent [known[k-1], known[k]).
	fn := make([]int32, len(jumps))
	k := 0 // known[:k] are the starts <= the current jump's Src
	for i, j := range jumps {
		for k < len(known) && known[k] <= j.Src {
			k++
		}
		lo, hi := uint64(0), textEnd
		if k > 0 {
			lo = known[k-1]
		}
		if k < len(known) {
			hi = known[k]
		}
		fn[i] = int32(k-1) << 1
		if j.Target < lo || j.Target >= hi {
			fn[i] |= 1
		}
	}

	order := sw.JumpOrder
	isKnown := analysis.NewCursor(known) // runs come in ascending target order
	var out []uint64
	for i := 0; i < len(order); {
		target := jumps[order[i]].Target
		end := i + 1
		for end < len(order) && jumps[order[end]].Target == target {
			end++
		}
		run := order[i:end]
		i = end
		if !bin.InText(target) {
			continue
		}
		escapes, sources, prev := false, 0, int32(-2)
		for _, x := range run {
			if f := fn[x] >> 1; f != prev {
				sources++
				prev = f
			}
			escapes = escapes || fn[x]&1 != 0
		}
		switch {
		case !escapes:
		case isKnown.Has(target): // already identified via E′ ∪ C
		case !boundaryOnly && sources < 2:
			// "Referenced by multiple functions": more than one distinct
			// source function must jump here.
		default:
			out = append(out, target)
		}
	}
	return out
}
