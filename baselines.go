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
// ctx. Cancellation reaches the shared instruction index (the dominant
// cost for every tool) through the analysis context; the tool-specific
// refinement passes check ctx between stages. The baselines are x86
// models: on any other architecture every form returns an error. As
// everywhere in this package, ctx is a context.Context and actx a
// *AnalysisContext.

// primeCtx builds the shared x86 instruction index under ctx so a
// baseline run can be canceled inside its dominant stage, then re-checks
// ctx before handing control to the (uncancellable, but much cheaper)
// tool model. The baselines model x86 tools: a binary of another
// architecture has no index and fails here with an error naming it.
func primeCtx(ctx context.Context, actx *AnalysisContext) error {
	if _, err := actx.IndexCtx(ctx); err != nil {
		return err
	}
	return ctx.Err()
}

// RunIDA identifies function entries with the IDA Pro model: recursive
// descent, prologue signatures, code-reference analysis, unverified
// tail-call splitting, and orphan-code rescue — but no use of end-branch
// instructions.
func RunIDA(bin *Binary) ([]uint64, error) {
	r, err := idapro.Identify(bin)
	if err != nil {
		return nil, err
	}
	return r.Entries, nil
}

// RunIDACtx is RunIDA over a shared analysis context, reusing the
// memoized landing-pad set and instruction index, under a cancelable ctx.
func RunIDACtx(ctx context.Context, actx *AnalysisContext) ([]uint64, error) {
	if err := primeCtx(ctx, actx); err != nil {
		return nil, err
	}
	r, err := idapro.IdentifyWithContext(actx)
	if err != nil {
		return nil, err
	}
	return r.Entries, nil
}

// RunGhidra identifies function entries with the Ghidra model:
// .eh_frame FDE starts, recursive descent, and prologue signatures.
func RunGhidra(bin *Binary) ([]uint64, error) {
	r, err := ghidra.Identify(bin)
	if err != nil {
		return nil, err
	}
	return r.Entries, nil
}

// RunGhidraCtx is RunGhidra over a shared analysis context, reusing the
// memoized .eh_frame parse, under a cancelable ctx.
func RunGhidraCtx(ctx context.Context, actx *AnalysisContext) ([]uint64, error) {
	if err := primeCtx(ctx, actx); err != nil {
		return nil, err
	}
	r, err := ghidra.IdentifyWithContext(actx)
	if err != nil {
		return nil, err
	}
	return r.Entries, nil
}

// RunFETCH identifies function entries with the FETCH model (Pang et
// al., DSN 2021): .eh_frame FDE starts plus tail-call targets verified by
// CFG-level stack-height and calling-convention analysis.
func RunFETCH(bin *Binary) ([]uint64, error) {
	r, err := fetch.Identify(bin)
	if err != nil {
		return nil, err
	}
	return r.Entries, nil
}

// RunFETCHCtx is RunFETCH over a shared analysis context, reusing the
// memoized .eh_frame parse and instruction index (the stack-height
// verification — FETCH's real cost — still runs in full), under a
// cancelable ctx.
func RunFETCHCtx(ctx context.Context, actx *AnalysisContext) ([]uint64, error) {
	if err := primeCtx(ctx, actx); err != nil {
		return nil, err
	}
	r, err := fetch.IdentifyWithContext(actx)
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
