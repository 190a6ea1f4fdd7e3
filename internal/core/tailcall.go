package core

import (
	"cmp"
	"slices"

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
// jumps must be ascending by Src (every backend's JumpRefs are) and
// known ascending and deduplicated; the result is ascending. The jumps
// are walked once with a cursor over known, producing one (target,
// source function, escapes) triple per in-text jump; sorting the triples
// by (target, source function) then puts each target's evidence in one
// run, where distinct sources are adjacent. No per-target set is built.
func selectTailCalls(bin *elfx.Binary, jumps []analysis.JumpRef, known []uint64, boundaryOnly bool) []uint64 {
	type ref struct {
		target, fn uint64 // fn: start of the known function containing the jump, 0 if none
		escapes    bool
	}
	refs := make([]ref, 0, len(jumps))
	k := 0 // known[:k] are the starts <= the current jump's Src
	textEnd := bin.TextEnd()
	for _, j := range jumps {
		if !bin.InText(j.Target) {
			continue
		}
		for k < len(known) && known[k] <= j.Src {
			k++
		}
		fn, next := uint64(0), textEnd
		if k > 0 {
			fn = known[k-1]
		}
		if k < len(known) {
			next = known[k]
		}
		// The jump escapes its function when it leaves [fn, next).
		refs = append(refs, ref{target: j.Target, fn: fn, escapes: j.Target < fn || j.Target >= next})
	}
	slices.SortFunc(refs, func(a, b ref) int {
		if c := cmp.Compare(a.target, b.target); c != 0 {
			return c
		}
		return cmp.Compare(a.fn, b.fn)
	})

	var out []uint64
	for i := 0; i < len(refs); {
		target := refs[i].target
		escapes, sources := false, 0
		j := i
		for ; j < len(refs) && refs[j].target == target; j++ {
			escapes = escapes || refs[j].escapes
			if j == i || refs[j].fn != refs[j-1].fn {
				sources++
			}
		}
		i = j
		switch {
		case !escapes:
		case analysis.Has(known, target): // already identified via E′ ∪ C
		case !boundaryOnly && sources < 2:
			// "Referenced by multiple functions": more than one distinct
			// source function must jump here.
		default:
			out = append(out, target)
		}
	}
	return out
}
