package core

import (
	"slices"

	"github.com/funseeker/funseeker/internal/analysis"
)

// EndbrDistribution counts end-branch instructions per location class,
// reproducing the measurement behind Table I.
type EndbrDistribution struct {
	// FuncEntry counts end branches at function entries (the residual
	// class: neither indirect-return sites nor landing pads).
	FuncEntry int
	// IndirectReturn counts end branches after indirect-return calls.
	IndirectReturn int
	// Exception counts end branches at exception landing pads.
	Exception int
}

// Total is the number of classified end branches.
func (d EndbrDistribution) Total() int {
	return d.FuncEntry + d.IndirectReturn + d.Exception
}

// Add accumulates another distribution.
func (d *EndbrDistribution) Add(o EndbrDistribution) {
	d.FuncEntry += o.FuncEntry
	d.IndirectReturn += o.IndirectReturn
	d.Exception += o.Exception
}

// ClassifyEndbrs classifies every end branch in .text using only the
// binary's own metadata (PLT names and exception tables) — the analysis
// of paper §III-B — reading the shared sweep and landing-pad artifacts
// memoized in actx.
func ClassifyEndbrs(actx *analysis.Context) (EndbrDistribution, error) {
	var dist EndbrDistribution
	pads, err := actx.LandingPads()
	if err != nil {
		return dist, err
	}
	sw := actx.Sweep()
	for _, e := range sw.Endbrs {
		switch {
		case analysis.Has(sw.AfterIRCall, e):
			dist.IndirectReturn++
		case analysis.Has(pads, e):
			dist.Exception++
		default:
			dist.FuncEntry++
		}
	}
	return dist, nil
}

// Property bit masks for the Figure 3 Venn analysis.
const (
	// PropEndbr marks EndBrAtHead: the entry starts with an end branch.
	PropEndbr = 1 << iota
	// PropDirCall marks DirCallTarget: some direct call targets the entry.
	PropDirCall
	// PropDirJmp marks DirJmpTarget: some direct unconditional jump
	// targets the entry.
	PropDirJmp
)

// VennCounts is the 8-region partition of functions by the three
// syntactic properties (Figure 3).
type VennCounts struct {
	// Region is indexed by the property bitmask (0..7).
	Region [8]int
	// Total is the number of functions analyzed.
	Total int
}

// Add accumulates another count set.
func (v *VennCounts) Add(o VennCounts) {
	for i := range v.Region {
		v.Region[i] += o.Region[i]
	}
	v.Total += o.Total
}

// Pct returns the percentage of functions in the region selected by mask.
func (v VennCounts) Pct(mask int) float64 {
	if v.Total == 0 {
		return 0
	}
	return 100 * float64(v.Region[mask]) / float64(v.Total)
}

// PctWith returns the percentage of functions having all properties in
// mask (union over regions that include the mask).
func (v VennCounts) PctWith(mask int) float64 {
	if v.Total == 0 {
		return 0
	}
	n := 0
	for region, c := range v.Region {
		if region&mask == mask {
			n += c
		}
	}
	return 100 * float64(n) / float64(v.Total)
}

// AnalyzeProperties computes, for each true function entry, which of the
// three syntactic properties hold, reproducing the study behind Figure 3
// over the shared sweep artifacts memoized in actx.
func AnalyzeProperties(actx *analysis.Context, entries []uint64) VennCounts {
	sw := actx.Sweep()
	calls, uncondJumps := studySets(sw)
	var v VennCounts
	for _, e := range entries {
		mask := 0
		if analysis.Has(sw.Endbrs, e) {
			mask |= PropEndbr
		}
		if analysis.Has(calls, e) {
			mask |= PropDirCall
		}
		if analysis.Has(uncondJumps, e) {
			mask |= PropDirJmp
		}
		v.Region[mask]++
		v.Total++
	}
	return v
}

// studySets returns the two target sets of the Figure 3 study, at any
// address (not only inside .text), ascending and deduplicated: every
// direct-call target, and every unconditional direct-jump target. Only
// the study reads them, so they are sorted here, off the
// identification path.
func studySets(sw *analysis.Sweep) (calls, uncondJumps []uint64) {
	calls = make([]uint64, len(sw.Calls))
	for i, c := range sw.Calls {
		calls[i] = c.Target
	}
	for _, j := range sw.JumpRefs {
		if !j.Cond {
			uncondJumps = append(uncondJumps, j.Target)
		}
	}
	slices.Sort(calls)
	slices.Sort(uncondJumps)
	return slices.Compact(calls), slices.Compact(uncondJumps)
}
