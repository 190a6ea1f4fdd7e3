package core

import (
	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/elfx"
)

// The exception half of FILTERENDBR joins .eh_frame FDE records (function
// start + LSDA pointer) against the LSDA call-site tables in
// .gcc_except_table: an end branch at a landing pad is a catch-block
// entry, not a function entry. Note that function identification itself
// never consumes the FDE pc-begin values — they are used only to bind
// each LSDA to its landing-pad base, which is how the C++ runtime itself
// interprets the table (LPStart is omitted in practice, defaulting to the
// function start from the FDE). The set is memoized per binary in
// analysis.Context; see Context.LandingPads.

// LandingPads exposes the landing-pad computation for tools and studies:
// the sorted landing-pad addresses, from a private analysis context.
func LandingPads(bin *elfx.Binary) ([]uint64, error) {
	return analysis.NewContext(bin).LandingPads()
}
