// Package ehinfo joins the .eh_frame FDE records with the
// .gcc_except_table LSDAs of a binary to materialize exception-handling
// facts shared by several identifiers: FunSeeker filters landing-pad end
// branches with it, and the IDA model uses it to attribute catch blocks
// to their parent functions instead of promoting them to functions.
package ehinfo

import (
	"github.com/funseeker/funseeker/internal/ehframe"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/lsda"
)

// LandingPadsFromFDEs computes the absolute addresses of every exception
// landing pad from parsed FDE records (the analysis context memoizes the
// .eh_frame parse): for each FDE carrying an LSDA pointer, the LSDA
// call-site table is decoded with the FDE's pc-begin as the landing-pad
// base (LPStart is omitted in compiler-emitted tables), and its pads are
// appended straight to the result, with no per-LSDA table. A single
// undecodable LSDA is skipped. The pads are appended in FDE order,
// unsorted and possibly repeated; ordering them is the caller's one
// sort.
func LandingPadsFromFDEs(bin *elfx.Binary, fdes []ehframe.FDE) []uint64 {
	if len(bin.ExceptTable) == 0 {
		return nil
	}
	var pads []uint64
	for _, fde := range fdes {
		if !fde.HasLSDA || fde.LSDA < bin.ExceptTableAddr {
			continue
		}
		off := fde.LSDA - bin.ExceptTableAddr
		if off >= uint64(len(bin.ExceptTable)) {
			continue
		}
		// An undecodable LSDA leaves pads as it was.
		pads, _ = lsda.AppendLandingPads(pads, bin.ExceptTable[off:], fde.PCBegin)
	}
	return pads
}
