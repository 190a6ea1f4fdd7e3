package funseeker

import (
	"context"

	"github.com/funseeker/funseeker/internal/eval"
	"github.com/funseeker/funseeker/internal/fetch"
	"github.com/funseeker/funseeker/internal/ghidra"
	"github.com/funseeker/funseeker/internal/idapro"
)

// The comparison-tool surface: the three state-of-the-art baselines the
// paper evaluates against, reimplemented at the fidelity needed for
// comparative measurement, plus scoring utilities.
//
// Each baseline has two forms: RunX(bin) for a one-off run, and
// RunXCtx(ctx, actx) over a shared analysis context under a cancelable
// ctx. The models decode instructions on demand and check ctx between
// their passes; FETCH's escaping-jump scan reads the sweep memoized in
// the analysis context, which cancellation reaches too. The baselines
// are x86 models: on any other architecture every form returns an
// error naming it. As everywhere in this package, ctx is a
// context.Context and actx a *AnalysisContext.

// RunIDA identifies function entries with the IDA Pro model: recursive
// descent, prologue signatures, code-reference analysis, unverified
// tail-call splitting, and orphan-code rescue — but no use of end-branch
// instructions.
func RunIDA(bin *Binary) ([]uint64, error) {
	return RunIDACtx(context.Background(), NewContext(bin))
}

// RunIDACtx is RunIDA over a shared analysis context, reusing the
// memoized landing-pad set, under a cancelable ctx.
func RunIDACtx(ctx context.Context, actx *AnalysisContext) ([]uint64, error) {
	r, err := idapro.Identify(ctx, actx)
	if err != nil {
		return nil, err
	}
	return r.Entries, nil
}

// RunGhidra identifies function entries with the Ghidra model:
// .eh_frame FDE starts, recursive descent, and prologue signatures.
func RunGhidra(bin *Binary) ([]uint64, error) {
	return RunGhidraCtx(context.Background(), NewContext(bin))
}

// RunGhidraCtx is RunGhidra over a shared analysis context, reusing the
// memoized .eh_frame parse, under a cancelable ctx.
func RunGhidraCtx(ctx context.Context, actx *AnalysisContext) ([]uint64, error) {
	r, err := ghidra.Identify(ctx, actx)
	if err != nil {
		return nil, err
	}
	return r.Entries, nil
}

// RunFETCH identifies function entries with the FETCH model (Pang et
// al., DSN 2021): .eh_frame FDE starts plus tail-call targets verified by
// CFG-level stack-height and calling-convention analysis.
func RunFETCH(bin *Binary) ([]uint64, error) {
	return RunFETCHCtx(context.Background(), NewContext(bin))
}

// RunFETCHCtx is RunFETCH over a shared analysis context, reusing the
// memoized .eh_frame parse and sweep (the stack-height verification —
// FETCH's real cost — still runs in full), under a cancelable ctx.
func RunFETCHCtx(ctx context.Context, actx *AnalysisContext) ([]uint64, error) {
	r, err := fetch.Identify(ctx, actx)
	if err != nil {
		return nil, err
	}
	return r.Entries, nil
}

// Metrics is a precision/recall accumulator.
type Metrics = eval.Metrics

// Score compares identified entries against ground truth.
func Score(found []uint64, gt *GroundTruth) Metrics {
	return eval.Score(found, gt)
}
