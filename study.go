package funseeker

import (
	"github.com/funseeker/funseeker/internal/cet"
	"github.com/funseeker/funseeker/internal/core"
)

// EndbrDistribution counts end-branch instructions per location class
// (function entry / indirect-return call site / exception landing pad),
// the measurement behind the paper's Table I.
type EndbrDistribution = core.EndbrDistribution

// ClassifyEndbrs classifies every end branch in the binary's .text using
// only the binary's own metadata (PLT names and exception tables). It
// reads the sweep and landing-pad set memoized in actx, so a context
// shared with other analyses computes neither twice.
func ClassifyEndbrs(actx *AnalysisContext) (EndbrDistribution, error) {
	return core.ClassifyEndbrs(actx)
}

// Function-property bit masks for the Figure 3 style analysis.
const (
	// PropEndbr marks EndBrAtHead: the entry starts with an end branch.
	PropEndbr = core.PropEndbr
	// PropDirCall marks DirCallTarget: a direct call targets the entry.
	PropDirCall = core.PropDirCall
	// PropDirJmp marks DirJmpTarget: a direct unconditional jump targets
	// the entry.
	PropDirJmp = core.PropDirJmp
)

// VennCounts is the 8-region partition of functions by the three
// syntactic properties (the paper's Figure 3).
type VennCounts = core.VennCounts

// AnalyzeProperties computes, for each known function entry, which of the
// three syntactic properties hold, over the sweep memoized in actx.
func AnalyzeProperties(actx *AnalysisContext, entries []uint64) VennCounts {
	return core.AnalyzeProperties(actx, entries)
}

// LandingPads returns the absolute addresses of every C++ exception
// landing pad in the binary, derived from .eh_frame and
// .gcc_except_table.
func LandingPads(bin *Binary) ([]uint64, error) {
	return core.LandingPads(bin)
}

// IndirectReturnFuncs is the predefined GCC list of indirect-return
// functions (setjmp family); compilers put an end branch after every
// call to one of them.
func IndirectReturnFuncs() []string {
	out := make([]string, len(cet.IndirectReturnFuncs))
	copy(out, cet.IndirectReturnFuncs)
	return out
}
