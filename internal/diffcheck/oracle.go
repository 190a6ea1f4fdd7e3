package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/fetch"
	"github.com/funseeker/funseeker/internal/ghidra"
	"github.com/funseeker/funseeker/internal/groundtruth"
	"github.com/funseeker/funseeker/internal/idapro"
	"github.com/funseeker/funseeker/internal/recdesc"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// fourConfigs are the paper's Table II configurations in order ①..④.
var fourConfigs = []core.Options{core.Config1, core.Config2, core.Config3, core.Config4}

// CheckSpec compiles the spec under cfg and checks every invariant,
// returning the violations found (nil when the case is clean). Panics
// anywhere in the pipeline are caught and reported as violations.
func CheckSpec(spec *ProgSpec, cfg Config) (vs []Violation) {
	defer func() {
		if r := recover(); r != nil {
			vs = append(vs, Violation{
				Check:  "panic",
				Detail: fmt.Sprintf("%v\n%s", r, debug.Stack()),
			})
		}
	}()
	c := checker{}

	res, err := synth.Compile(spec, cfg)
	if err != nil {
		c.addf("compile", "valid spec failed to compile: %v", err)
		return c.vs
	}
	bin, err := elfx.Load(res.Stripped)
	if err != nil {
		c.addf("load", "stripped image unloadable: %v", err)
		return c.vs
	}
	full, err := elfx.Load(res.Image)
	if err != nil {
		c.addf("load", "unstripped image unloadable: %v", err)
		return c.vs
	}
	gt := res.GT
	hasData := specHasTrailingData(spec)
	actx := analysis.NewContext(bin)

	// The four configurations through the shared context.
	reports := make([]*core.Report, len(fourConfigs))
	for i, opts := range fourConfigs {
		rep, err := core.IdentifyCtx(context.Background(), actx, opts)
		if err != nil {
			c.addf("identify", "config %d: %v", i+1, err)
			return c.vs
		}
		reports[i] = rep
		c.checkReportShape(fmt.Sprintf("config %d", i+1), rep, bin)
	}
	// Configuration ⑤ (EH fusion) through the same shared context.
	rep5, err := core.IdentifyCtx(context.Background(), actx, core.Config5)
	if err != nil {
		c.addf("identify", "config 5: %v", err)
		return c.vs
	}
	c.checkReportShape("config 5", rep5, bin)
	c.checkDifferentials(bin, full, actx, reports)
	c.checkNesting(reports)
	c.checkConfig5(actx, cfg, reports[3], rep5)
	c.checkRequireCET(actx, cfg, reports, rep5)
	supEntries := c.checkSuperset(actx, reports[3], hasData)
	if !hasData {
		c.checkEndbrExactness(reports[0], gt)
		c.checkFilterCounts(reports, gt)
		c.checkEntrySets(reports, rep5, supEntries, gt)
		c.checkClassification(actx, gt)
	}
	c.checkBaselines(actx, bin)
	c.checkRecdesc(bin, actx)
	seq := x86.BuildIndex(bin.Text, bin.TextAddr, bin.Mode)
	c.checkParallelSweep(bin, seq)
	c.checkSweepRecords(bin, seq)
	c.checkStats(actx, bin)
	return c.vs
}

// checker accumulates violations.
type checker struct {
	vs []Violation
}

func (c *checker) addf(check, format string, args ...any) {
	c.vs = append(c.vs, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
}

// checkReportShape validates the structural report invariants: every
// reported set is strictly ascending (sorted, duplicate-free) and every
// identified entry lies inside .text.
func (c *checker) checkReportShape(label string, rep *core.Report, bin *elfx.Binary) {
	sets := []struct {
		name string
		s    []uint64
	}{
		{"Entries", rep.Entries},
		{"Endbrs", rep.Endbrs},
		{"CallTargets", rep.CallTargets},
		{"JumpTargets", rep.JumpTargets},
		{"TailCallTargets", rep.TailCallTargets},
	}
	for _, set := range sets {
		if !strictlyAscending(set.s) {
			c.addf("report-sorted", "%s: %s not strictly ascending", label, set.name)
		}
	}
	for _, e := range rep.Entries {
		if !bin.InText(e) {
			c.addf("report-bounds", "%s: entry %#x outside .text [%#x,%#x)",
				label, e, bin.TextAddr, bin.TextEnd())
		}
	}
	for _, t := range rep.TailCallTargets {
		if !member(rep.Entries, t) {
			c.addf("tailcall-set", "%s: tail-call target %#x not in entries", label, t)
		}
	}
	if len(rep.Warnings) > 0 {
		c.addf("filter-warning", "%s: unexpected warnings on well-formed binary: %v",
			label, rep.Warnings)
	}
}

// checkDifferentials asserts the memoization and stripping contracts:
// identification through the shared context equals identification through
// a private context, repeated runs over the same context are stable, and
// the unstripped image identifies identically to the stripped one.
func (c *checker) checkDifferentials(bin, full *elfx.Binary, actx *analysis.Context, reports []*core.Report) {
	for i, opts := range fourConfigs {
		private, err := core.Identify(bin, opts)
		if err != nil {
			c.addf("identify", "private context config %d: %v", i+1, err)
			continue
		}
		if !slices.Equal(private.Entries, reports[i].Entries) {
			c.addf("shared-vs-private",
				"config %d: shared-context entries differ from private-context entries: %s",
				i+1, diffSummary(reports[i].Entries, private.Entries))
		}
	}
	again, err := core.IdentifyCtx(context.Background(), actx, core.Config4)
	if err != nil {
		c.addf("identify", "repeat config 4: %v", err)
	} else if !slices.Equal(again.Entries, reports[3].Entries) {
		c.addf("shared-vs-private", "config 4 not stable across repeated runs on one context")
	}
	unstripped, err := core.Identify(full, core.Config4)
	if err != nil {
		c.addf("identify", "unstripped image: %v", err)
	} else if !slices.Equal(unstripped.Entries, reports[3].Entries) {
		c.addf("stripped-vs-unstripped", "config 4: %s",
			diffSummary(reports[3].Entries, unstripped.Entries))
	}
}

// checkNesting asserts the configuration algebra: ②⊆①, ②⊆③, ④⊆③, ②⊆④.
func (c *checker) checkNesting(reports []*core.Report) {
	pairs := []struct {
		sub, super int // 0-based config indices
	}{
		{1, 0}, {1, 2}, {3, 2}, {1, 3},
	}
	for _, p := range pairs {
		if missing := firstNotIn(reports[p.sub].Entries, reports[p.super].Entries); missing != 0 {
			c.addf("config-nesting", "config %d entry %#x absent from config %d",
				p.sub+1, missing, p.super+1)
		}
	}
}

// checkConfig5 asserts the EH-fusion contract of configuration ⑤:
// it is a superset of configuration ④ by construction, every in-text
// FDE start is recovered (on no-CET binaries this IS the detection —
// the FDE+LSDA evidence alone must carry it; on CET binaries FDE
// starts that are direct jump targets are treated as split-out
// fragments and may be skipped), the reported fused-entry count is
// consistent with the entry-set growth, and configurations without
// FuseEH never report fused entries.
func (c *checker) checkConfig5(actx *analysis.Context, cfg Config, rep4, rep5 *core.Report) {
	if missing := firstNotIn(rep4.Entries, rep5.Entries); missing != 0 {
		c.addf("config-nesting", "config 4 entry %#x absent from config 5", missing)
	}
	ix, err := actx.FDEIndex()
	if err != nil {
		c.addf("identify", "FDE index: %v", err)
		return
	}
	cet := len(rep4.Endbrs) > 0
	for _, s := range ix.Starts {
		if cet && member(rep4.JumpTargets, s) {
			continue // fragment heuristic: jump-target FDE starts are skippable on CET binaries
		}
		if !member(rep5.Entries, s) {
			c.addf("eh-fusion", "in-text FDE start %#x missed by config 5", s)
		}
	}
	if grown := len(rep5.Entries) - len(rep4.Entries); grown < rep5.FusedFDEEntries {
		c.addf("eh-fusion", "config 5 grew the entry set by %d but reports %d fused FDE starts",
			grown, rep5.FusedFDEEntries)
	}
	if rep4.FusedFDEEntries != 0 {
		c.addf("eh-fusion", "config 4 reports %d fused FDE entries, want 0", rep4.FusedFDEEntries)
	}
	if cfg.NoCET {
		if len(rep5.Entries) == 0 && len(ix.Starts) > 0 {
			c.addf("eh-fusion", "config 5 found nothing on a no-CET binary with %d FDE starts",
				len(ix.Starts))
		}
		if len(rep5.Endbrs) != 0 {
			c.addf("eh-fusion", "no-CET binary swept %d end branches, want 0", len(rep5.Endbrs))
		}
	}
}

// checkRequireCET asserts the CET gate is orthogonal to fusion: with
// RequireCET set every configuration — including ⑤, whose gate fires
// before the fusion stage — errors with ErrNotCET exactly when the
// sweep found no end branch (no-CET builds, or manual-endbr builds with
// nothing address-taken), and identifies exactly as its ungated twin
// otherwise.
func (c *checker) checkRequireCET(actx *analysis.Context, cfg Config, reports []*core.Report, rep5 *core.Report) {
	gated := append(slices.Clone(fourConfigs), core.Config5)
	ungated := append(slices.Clone(reports), rep5)
	wantGate := len(reports[0].Endbrs) == 0
	if cfg.NoCET && !wantGate {
		c.addf("require-cet", "no-CET build swept %d end branches", len(reports[0].Endbrs))
	}
	for i, opts := range gated {
		opts.RequireCET = true
		rep, err := core.IdentifyCtx(context.Background(), actx, opts)
		if wantGate {
			if !errors.Is(err, core.ErrNotCET) {
				c.addf("require-cet", "config %d + RequireCET on marker-free binary: err = %v, want ErrNotCET",
					i+1, err)
			}
			continue
		}
		if err != nil {
			c.addf("require-cet", "config %d + RequireCET on CET binary: %v", i+1, err)
			continue
		}
		if !slices.Equal(rep.Entries, ungated[i].Entries) {
			c.addf("require-cet", "config %d + RequireCET changed the entry set: %s",
				i+1, diffSummary(ungated[i].Entries, rep.Entries))
		}
	}
}

// checkSuperset runs configuration ④ with the byte-level end-branch scan
// and asserts it is a conservative extension: E and the entry set only
// grow. On binaries without inline data the scan must find exactly the
// sweep's end branches — compiler-generated code never aliases an
// end-branch encoding at a misaligned offset.
func (c *checker) checkSuperset(actx *analysis.Context, rep4 *core.Report, hasData bool) []uint64 {
	opts := core.Config4
	opts.SupersetEndbrScan = true
	sup, err := core.IdentifyCtx(context.Background(), actx, opts)
	if err != nil {
		c.addf("identify", "superset scan: %v", err)
		return nil
	}
	if missing := firstNotIn(rep4.Endbrs, sup.Endbrs); missing != 0 {
		c.addf("superset-subset", "sweep endbr %#x missing from superset scan", missing)
	}
	if missing := firstNotIn(rep4.Entries, sup.Entries); missing != 0 {
		c.addf("superset-subset", "config 4 entry %#x lost under superset scan", missing)
	}
	if !hasData && !slices.Equal(sup.Endbrs, rep4.Endbrs) {
		c.addf("superset-alias", "byte-level scan found end-branch encodings the sweep did not: %s",
			diffSummary(rep4.Endbrs, sup.Endbrs))
	}
	return sup.Entries
}

// checkEndbrExactness asserts the sweep found exactly the end branches
// the synthesizer emitted.
func (c *checker) checkEndbrExactness(rep1 *core.Report, gt *groundtruth.GT) {
	want := make([]uint64, 0, len(gt.Endbrs))
	for _, e := range gt.Endbrs {
		want = append(want, e.Addr)
	}
	slices.Sort(want)
	if !slices.Equal(rep1.Endbrs, want) {
		c.addf("endbr-exact", "swept E != ground-truth end-branch sites: %s",
			diffSummary(want, rep1.Endbrs))
	}
}

// checkFilterCounts asserts FILTERENDBR removed exactly the ground-truth
// indirect-return and landing-pad sites, in every filtering configuration.
func (c *checker) checkFilterCounts(reports []*core.Report, gt *groundtruth.GT) {
	wantIR, wantEH := 0, 0
	for _, e := range gt.Endbrs {
		switch e.Role {
		case groundtruth.RoleIndirectReturn:
			wantIR++
		case groundtruth.RoleException:
			wantEH++
		}
	}
	for i, rep := range reports {
		if i == 0 {
			continue // configuration ① does not filter
		}
		if rep.FilteredIndirectReturn != wantIR {
			c.addf("filter-count", "config %d filtered %d indirect-return endbrs, ground truth has %d",
				i+1, rep.FilteredIndirectReturn, wantIR)
		}
		if rep.FilteredLandingPads != wantEH {
			c.addf("filter-count", "config %d filtered %d landing-pad endbrs, ground truth has %d",
				i+1, rep.FilteredLandingPads, wantEH)
		}
	}
}

// checkEntrySets asserts exactness modulo the paper's documented failure
// classes. A ground-truth function MUST be identified when its entry
// carries an end branch or is a direct-call target; only endbr-less
// functions referenced by nothing or only by tail jumps may be missed.
// Spurious entries must be .cold/.part fragments — except configuration
// ①, which may also report the unfiltered non-entry end branches, and
// configuration ③, which reports every direct jump target by design.
func (c *checker) checkEntrySets(reports []*core.Report, rep5 *core.Report, supEntries []uint64, gt *groundtruth.GT) {
	truth := gt.Entries()
	parts := make(map[uint64]bool, len(gt.PartBlocks))
	for _, p := range gt.PartBlocks {
		parts[p] = true
	}
	callTargets := make(map[uint64]bool, len(reports[0].CallTargets))
	for _, t := range reports[0].CallTargets {
		callTargets[t] = true
	}
	nonEntryEndbrs := make(map[uint64]bool)
	for _, e := range gt.Endbrs {
		if e.Role != groundtruth.RoleFuncEntry {
			nonEntryEndbrs[e.Addr] = true
		}
	}

	var must []uint64
	for _, f := range gt.Funcs {
		if f.HasEndbr || callTargets[f.Addr] {
			must = append(must, f.Addr)
		}
	}
	checkOne := func(label string, entries []uint64, extraFP map[uint64]bool) {
		for _, addr := range must {
			if !member(entries, addr) {
				c.addf("must-find", "%s: ground-truth entry %#x (endbr or call target) missed",
					label, addr)
			}
		}
		for _, e := range entries {
			if truth[e] || parts[e] {
				continue
			}
			if extraFP != nil && extraFP[e] {
				continue
			}
			c.addf("fp-class", "%s: spurious entry %#x is not a .part/.cold fragment", label, e)
		}
	}
	jumpTargets := make(map[uint64]bool, len(reports[2].JumpTargets))
	for _, t := range reports[2].JumpTargets {
		jumpTargets[t] = true
	}
	checkOne("config 1", reports[0].Entries, nonEntryEndbrs)
	checkOne("config 2", reports[1].Entries, nil)
	checkOne("config 3", reports[2].Entries, jumpTargets)
	checkOne("config 4", reports[3].Entries, nil)
	checkOne("config 5", rep5.Entries, nil)
	if supEntries != nil {
		checkOne("config 4+superset", supEntries, nil)
	}
}

// checkClassification cross-checks the Table I study: the end-branch
// distribution computed from the binary's own metadata must match the
// ground-truth role counts exactly.
func (c *checker) checkClassification(actx *analysis.Context, gt *groundtruth.GT) {
	dist, err := core.ClassifyEndbrsWithContext(actx)
	if err != nil {
		c.addf("identify", "classify endbrs: %v", err)
		return
	}
	var want core.EndbrDistribution
	for _, e := range gt.Endbrs {
		switch e.Role {
		case groundtruth.RoleIndirectReturn:
			want.IndirectReturn++
		case groundtruth.RoleException:
			want.Exception++
		default:
			want.FuncEntry++
		}
	}
	if dist != want {
		c.addf("classify", "endbr distribution %+v != ground truth %+v", dist, want)
	}
}

// checkBaselines runs the IDA, Ghidra, and FETCH models for structural
// sanity: no errors, sorted unique entries, all inside .text. Their
// recall is intentionally imperfect, so no exactness is asserted.
func (c *checker) checkBaselines(actx *analysis.Context, bin *elfx.Binary) {
	type run struct {
		name    string
		entries []uint64
		err     error
	}
	var runs []run
	if r, err := idapro.IdentifyWithContext(actx); err != nil {
		runs = append(runs, run{name: "idapro", err: err})
	} else {
		runs = append(runs, run{name: "idapro", entries: r.Entries})
	}
	if r, err := ghidra.IdentifyWithContext(actx); err != nil {
		runs = append(runs, run{name: "ghidra", err: err})
	} else {
		runs = append(runs, run{name: "ghidra", entries: r.Entries})
	}
	if r, err := fetch.IdentifyWithContext(actx); err != nil {
		runs = append(runs, run{name: "fetch", err: err})
	} else {
		runs = append(runs, run{name: "fetch", entries: r.Entries})
	}
	for _, r := range runs {
		if r.err != nil {
			c.addf("identify", "%s: %v", r.name, r.err)
			continue
		}
		if !strictlyAscending(r.entries) {
			c.addf("report-sorted", "%s: entries not strictly ascending", r.name)
		}
		for _, e := range r.entries {
			if !bin.InText(e) {
				c.addf("report-bounds", "%s: entry %#x outside .text", r.name, e)
			}
		}
	}
}

// checkRecdesc asserts the recursive-descent walker produces
// byte-identical results with and without the memoized sweep index (the
// PR-1 fallback contract), and stays inside .text.
func (c *checker) checkRecdesc(bin *elfx.Binary, actx *analysis.Context) {
	seeds := []uint64{bin.Entry}
	plain := recdesc.Traverse(bin, seeds)
	indexed := recdesc.TraverseIndexed(bin, actx.Index(), seeds)
	pe, ie := plain.Entries(), indexed.Entries()
	if !slices.Equal(pe, ie) {
		c.addf("recdesc-differential", "indexed traversal entries differ from plain: %s",
			diffSummary(pe, ie))
	}
	if !slices.Equal(plain.Covered, indexed.Covered) {
		c.addf("recdesc-differential", "indexed traversal coverage differs from plain")
	}
	for _, e := range pe {
		if !bin.InText(e) {
			c.addf("recdesc-bounds", "entry %#x outside .text", e)
		}
	}
}

// checkParallelSweep asserts the sharded-sweep stitching contract: for
// any worker count, BuildIndexParallel must produce an index
// byte-identical to the sequential BuildIndex — same instruction stream
// (every field, compared with ==) and the same skipped-byte accounting,
// including on binaries with data-in-text where the shard seams can land
// mid-garbage. Odd worker counts are used deliberately so the seams
// fall at unaligned offsets.
func (c *checker) checkParallelSweep(bin *elfx.Binary, seq *x86.Index) {
	for _, workers := range []int{2, 3, 7} {
		par := x86.BuildIndexParallel(bin.Text, bin.TextAddr, bin.Mode, workers)
		if len(par.Insts) != len(seq.Insts) {
			c.addf("parallel-sweep", "workers=%d: %d instructions vs %d sequential",
				workers, len(par.Insts), len(seq.Insts))
			continue
		}
		for i := range seq.Insts {
			if par.Insts[i] != seq.Insts[i] {
				c.addf("parallel-sweep", "workers=%d: inst %d differs: parallel %+v vs sequential %+v",
					workers, i, par.Insts[i], seq.Insts[i])
				break
			}
		}
		if par.Skipped != seq.Skipped {
			c.addf("parallel-sweep", "workers=%d: skipped %d bytes vs %d sequential",
				workers, par.Skipped, seq.Skipped)
		}
	}
}

// checkSweepRecords asserts the records sweep behind FunSeeker's
// DISASSEMBLE step — boundaries, skipped bytes, end branches, calls and
// jumps, never materialized as instructions — finds exactly what a walk
// over the sequential materialized index finds, for the sequential sweep
// and for sharded sweeps whose odd worker counts put seams at unaligned
// offsets.
func (c *checker) checkSweepRecords(bin *elfx.Binary, seq *x86.Index) {
	ref := seq.Records()
	for _, workers := range []int{1, 2, 3, 7} {
		r, err := x86.SweepRecords(context.Background(), bin.Text, bin.TextAddr, bin.Mode, workers)
		if err != nil {
			c.addf("sweep-records-vs-index", "workers=%d: %v", workers, err)
			continue
		}
		if d := r.Diff(ref); d != "" {
			c.addf("sweep-records-vs-index", "workers=%d: %s", workers, d)
		}
	}
}

// checkStats asserts the shared-context memoization contract after the
// full battery above: one linear sweep, at most one .eh_frame parse and
// landing-pad join, at most one superset scan, and a healthy hit count.
func (c *checker) checkStats(actx *analysis.Context, bin *elfx.Binary) {
	st := actx.Stats()
	if st.Sweep.Computes != 1 {
		c.addf("stats", "linear sweep ran %d times on one context, want exactly 1", st.Sweep.Computes)
	}
	if st.Sweep.Hits < 5 {
		c.addf("stats", "sweep cache hits = %d, want >= 5 after the full tool battery", st.Sweep.Hits)
	}
	if st.EHParse.Computes > 1 {
		c.addf("stats", ".eh_frame parsed %d times, want at most 1", st.EHParse.Computes)
	}
	if len(bin.EHFrame) > 0 && st.EHParse.Computes != 1 {
		c.addf("stats", ".eh_frame present but parsed %d times, want exactly 1", st.EHParse.Computes)
	}
	if st.LandingPad.Computes > 1 {
		c.addf("stats", "landing-pad join ran %d times, want at most 1", st.LandingPad.Computes)
	}
	if st.Superset.Computes > 1 {
		c.addf("stats", "superset scan ran %d times, want at most 1", st.Superset.Computes)
	}
	if st.FDEIndex.Computes != 1 {
		c.addf("stats", "FDE index built %d times across the battery, want exactly 1", st.FDEIndex.Computes)
	}
}

// --- small set helpers --------------------------------------------------

// strictlyAscending reports whether s is sorted with no duplicates.
func strictlyAscending(s []uint64) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// member reports whether sorted slice s contains v.
func member(s []uint64, v uint64) bool {
	_, ok := slices.BinarySearch(s, v)
	return ok
}

// firstNotIn returns the first element of sub missing from super (both
// sorted), or 0 when sub ⊆ super. Address 0 is never a valid entry.
func firstNotIn(sub, super []uint64) uint64 {
	for _, v := range sub {
		if !member(super, v) {
			return v
		}
	}
	return 0
}

// diffSummary renders the symmetric difference of two sorted sets,
// truncated for log readability.
func diffSummary(want, got []uint64) string {
	var onlyWant, onlyGot []uint64
	for _, v := range want {
		if !member(got, v) {
			onlyWant = append(onlyWant, v)
		}
	}
	for _, v := range got {
		if !member(want, v) {
			onlyGot = append(onlyGot, v)
		}
	}
	const maxShow = 8
	trunc := func(s []uint64) []uint64 {
		if len(s) > maxShow {
			return s[:maxShow]
		}
		return s
	}
	return fmt.Sprintf("missing=%#x extra=%#x (want %d, got %d)",
		trunc(onlyWant), trunc(onlyGot), len(want), len(got))
}
