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
// The work is one walk over the sweep's jumps in Src order and one over
// J, with no sort: the first finds each jump's containing function with
// a cursor over known and folds the jump into its target's state —
// indexed by the target's rank in J, sw.JumpTargetIndex — and the
// second reads the states in target order. A target's sources come in ascending order and the
// containing function is monotone in the source, so a change of
// function from the target's last source is a new distinct source, and
// counting stops at two.
func selectTailCalls(bin *elfx.Binary, sw *analysis.Sweep, known []uint64, boundaryOnly bool) []uint64 {
	type targetState struct {
		fn      int32 // index in known of the last source's function start (-1 if none)
		sources uint8 // distinct source functions, saturating at 2
		escapes bool  // some jump leaves its function's extent
	}
	states := make([]targetState, len(sw.JumpTargets))
	textEnd := bin.TextEnd()
	k := 0 // known[:k] are the starts <= the current jump's Src
	for i, j := range sw.JumpRefs {
		for k < len(known) && known[k] <= j.Src {
			k++
		}
		t := sw.JumpTargetIndex[i]
		if t < 0 {
			continue // outside .text
		}
		st := &states[t]
		if f := int32(k - 1); st.sources == 0 || st.fn != f {
			st.fn = f
			st.sources = min(st.sources+1, 2)
		}
		lo, hi := uint64(0), textEnd
		if k > 0 {
			lo = known[k-1]
		}
		if k < len(known) {
			hi = known[k]
		}
		if j.Target < lo || j.Target >= hi {
			st.escapes = true
		}
	}

	isKnown := analysis.NewCursor(known) // J ascends
	var out []uint64
	for t, target := range sw.JumpTargets {
		switch st := states[t]; {
		case !st.escapes:
		case isKnown.Has(target): // already identified via E′ ∪ C
		case !boundaryOnly && st.sources < 2:
			// "Referenced by multiple functions": more than one distinct
			// source function must jump here.
		default:
			out = append(out, target)
		}
	}
	return out
}
