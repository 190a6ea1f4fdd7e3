package diffcheck

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/armsynth"
	"github.com/funseeker/funseeker/internal/bticore"
	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/groundtruth"
	"github.com/funseeker/funseeker/internal/synth"
)

// BTIConfig aliases the ARM synthesizer's build configuration. It is a
// distinct type from Config (the x86 synth.Config alias) on purpose:
// the two synthesizers share ProgSpec but nothing about their build
// knobs, and the pinned x86 regression specs must keep deserializing
// into the exact shape they were captured with.
type BTIConfig = armsynth.Config

// BTICaseResult is the outcome of checking one generated AArch64 case.
type BTICaseResult struct {
	// Seed is the generator seed the case came from.
	Seed int64
	// Spec is the generated program specification.
	Spec *ProgSpec
	// Config is the ARM build configuration.
	Config BTIConfig
	// Violations lists every invariant breach (empty = clean).
	Violations []Violation
}

// Failed reports whether any invariant was violated.
func (r *BTICaseResult) Failed() bool { return len(r.Violations) > 0 }

// String summarizes the case for logs.
func (r *BTICaseResult) String() string {
	if !r.Failed() {
		return fmt.Sprintf("bti seed %d (%s/%s): ok", r.Seed, r.Spec.Name, r.Config)
	}
	s := fmt.Sprintf("bti seed %d (%s/%s): %d violation(s)", r.Seed, r.Spec.Name, r.Config, len(r.Violations))
	for _, v := range r.Violations {
		s += "\n  " + v.String()
	}
	return s
}

// GenBTICase draws one random (program spec, ARM build configuration)
// pair from rng. The spec distribution is the shared genSpec one — the
// ARM synthesizer ignores the x86-only features (PLT imports,
// indirect-return calls, EH, cold splitting, trailing data) and models
// everything else, so one generator covers both backends.
func GenBTICase(rng *rand.Rand, opts GenOptions) (*ProgSpec, BTIConfig) {
	opts.fill()
	cfg := BTIConfig{
		Opt: synth.AllOptLevels()[rng.Intn(6)],
		PAC: rng.Intn(2) == 0,
	}
	return genSpec(rng, opts), cfg
}

// CheckBTISeed generates the AArch64 case for one seed and checks every
// invariant.
func CheckBTISeed(seed int64, opts GenOptions) *BTICaseResult {
	rng := rand.New(rand.NewSource(seed))
	spec, cfg := GenBTICase(rng, opts)
	return &BTICaseResult{
		Seed:       seed,
		Spec:       spec,
		Config:     cfg,
		Violations: CheckBTISpec(spec, cfg),
	}
}

// CheckBTISpec compiles the spec into a BTI-enabled AArch64 image and
// checks the AArch64 slice of the invariant battery:
//
//   - compilation, loading, and every configuration run without
//     panicking, the loader reports ArchAArch64 with the BTI property
//     bit, and every report says arch "aarch64";
//   - identification through a shared analysis.Context equals
//     identification through a private one and is stable across repeats;
//   - the configurations nest (②⊆①, ②⊆③, ④⊆③, ②⊆④), and — since
//     AArch64 has no indirect-return or landing-pad analog — ① == ②
//     exactly (FILTERENDBR is a structural no-op);
//   - the superset marker scan equals the sweep exactly: on a
//     fixed-width ISA the byte-level scan degenerates to the word scan;
//   - configuration ④ through the generic core is entry-identical to
//     the dedicated bticore reference implementation, set by set — the
//     central backend-seam differential;
//   - the sweep's E is exactly the ground-truth call-accepting pads,
//     and its BTI j set is exactly the ground-truth jump-target sites;
//   - entry exactness modulo the documented failure classes (as on x86,
//     with config ③'s direct-jump targets the only FP class);
//   - the shared context swept exactly once.
func CheckBTISpec(spec *ProgSpec, cfg BTIConfig) (vs []Violation) {
	defer func() {
		if r := recover(); r != nil {
			vs = append(vs, Violation{
				Check:  "panic",
				Detail: fmt.Sprintf("%v\n%s", r, debug.Stack()),
			})
		}
	}()
	c := checker{}

	res, err := armsynth.Compile(spec, cfg)
	if err != nil {
		c.addf("compile", "valid spec failed to compile for arm64: %v", err)
		return c.vs
	}
	bin, err := elfx.Load(res.Image)
	if err != nil {
		c.addf("load", "arm64 image unloadable: %v", err)
		return c.vs
	}
	if bin.Arch != elfx.ArchAArch64 {
		c.addf("load", "loader reports arch %s, want aarch64", bin.Arch)
		return c.vs
	}
	if !bin.BTIEnabled {
		c.addf("load", "BTI property note not detected")
	}
	if bin.CETEnabled {
		c.addf("load", "CET flag set on an AArch64 binary")
	}
	gt := res.GT
	actx := analysis.NewContext(bin)

	reports := make([]*core.Report, len(fourConfigs))
	for i, opts := range fourConfigs {
		rep, err := core.IdentifyCtx(context.Background(), actx, opts)
		if err != nil {
			c.addf("identify", "config %d: %v", i+1, err)
			return c.vs
		}
		reports[i] = rep
		c.checkReportShape(fmt.Sprintf("config %d", i+1), rep, bin)
		if rep.Arch != "aarch64" {
			c.addf("arch", "config %d report says arch %q, want aarch64", i+1, rep.Arch)
		}
		if rep.FilteredIndirectReturn != 0 || rep.FilteredLandingPads != 0 {
			c.addf("filter-count", "config %d filtered %d+%d pads on an ISA with no filter classes",
				i+1, rep.FilteredIndirectReturn, rep.FilteredLandingPads)
		}
	}
	c.checkBTIDifferentials(bin, actx, reports)
	c.checkNesting(reports)
	if !slices.Equal(reports[0].Entries, reports[1].Entries) {
		c.addf("filter-noop", "config 1 and 2 differ though FILTERENDBR has nothing to remove: %s",
			diffSummary(reports[0].Entries, reports[1].Entries))
	}
	c.checkBTISuperset(actx, reports[3])
	c.checkBTICore(res.Image, reports[3])
	c.checkBTIPadExactness(actx, reports[0], gt)
	c.checkBTIEntrySets(reports, gt)

	st := actx.Stats()
	if st.Sweep.Computes != 1 {
		c.addf("stats", "linear sweep ran %d times on one context, want exactly 1", st.Sweep.Computes)
	}
	if st.Superset.Computes > 1 {
		c.addf("stats", "superset scan ran %d times, want at most 1", st.Superset.Computes)
	}
	return c.vs
}

// checkBTIDifferentials asserts shared-context identification equals
// private-context identification and repeats are stable. (There is no
// stripped-vs-unstripped leg: the ARM synthesizer always emits one
// stripped image.)
func (c *checker) checkBTIDifferentials(bin *elfx.Binary, actx *analysis.Context, reports []*core.Report) {
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
}

// checkBTISuperset asserts the byte-level marker scan is an exact no-op
// extension on a fixed-width ISA: same E, same entries.
func (c *checker) checkBTISuperset(actx *analysis.Context, rep4 *core.Report) {
	opts := core.Config4
	opts.SupersetEndbrScan = true
	sup, err := core.IdentifyCtx(context.Background(), actx, opts)
	if err != nil {
		c.addf("identify", "superset scan: %v", err)
		return
	}
	if !slices.Equal(sup.Endbrs, rep4.Endbrs) {
		c.addf("superset-alias", "word-aligned superset scan must equal the sweep on arm64: %s",
			diffSummary(rep4.Endbrs, sup.Endbrs))
	}
	if !slices.Equal(sup.Entries, rep4.Entries) {
		c.addf("superset-subset", "config 4 entries changed under superset scan: %s",
			diffSummary(rep4.Entries, sup.Entries))
	}
}

// checkBTICore asserts the generic arch-dispatched core produces exactly
// the sets of the dedicated bticore reference implementation. This is
// the load-bearing differential of the backend seam: two independent
// codepaths — one reading elfx/analysis/core, one standalone — must
// agree on every address.
func (c *checker) checkBTICore(image []byte, rep4 *core.Report) {
	ref, err := bticore.IdentifyBytes(image)
	if err != nil {
		c.addf("identify", "bticore reference: %v", err)
		return
	}
	if !slices.Equal(ref.Entries, rep4.Entries) {
		c.addf("core-vs-bticore", "entries: %s", diffSummary(ref.Entries, rep4.Entries))
	}
	if !slices.Equal(ref.CallTargets, rep4.CallTargets) {
		c.addf("core-vs-bticore", "call targets: %s", diffSummary(ref.CallTargets, rep4.CallTargets))
	}
	if !slices.Equal(ref.JumpTargets, rep4.JumpTargets) {
		c.addf("core-vs-bticore", "jump targets: %s", diffSummary(ref.JumpTargets, rep4.JumpTargets))
	}
	if !slices.Equal(ref.TailCallTargets, rep4.TailCallTargets) {
		c.addf("core-vs-bticore", "tail-call targets: %s", diffSummary(ref.TailCallTargets, rep4.TailCallTargets))
	}
	if ref.CallPads != len(rep4.Endbrs) {
		c.addf("core-vs-bticore", "call-pad count %d vs %d", len(rep4.Endbrs), ref.CallPads)
	}
}

// checkBTIPadExactness asserts the sweep recovered exactly the pads the
// synthesizer emitted: E is the call-accepting (func-entry role) sites,
// and the excluded BTI j set is the jump-target-role sites.
func (c *checker) checkBTIPadExactness(actx *analysis.Context, rep1 *core.Report, gt *groundtruth.GT) {
	var wantE, wantJ []uint64
	for _, e := range gt.Endbrs {
		if e.Role == groundtruth.RoleJumpTarget {
			wantJ = append(wantJ, e.Addr)
		} else {
			wantE = append(wantE, e.Addr)
		}
	}
	slices.Sort(wantE)
	slices.Sort(wantJ)
	if !slices.Equal(rep1.Endbrs, wantE) {
		c.addf("endbr-exact", "swept E != ground-truth call pads: %s", diffSummary(wantE, rep1.Endbrs))
	}
	sw := actx.Sweep()
	if !slices.Equal(sw.JumpPads, wantJ) {
		c.addf("jumppad-exact", "swept BTI j set != ground-truth jump-target sites: %s",
			diffSummary(wantJ, sw.JumpPads))
	}
	for _, j := range sw.JumpPads {
		if member(rep1.Endbrs, j) {
			c.addf("jumppad-exact", "BTI j pad %#x leaked into E", j)
		}
	}
}

// checkBTIEntrySets asserts exactness modulo the documented failure
// classes, as on x86 — except the ARM ground truth has no .cold/.part
// fragments and no non-entry call pads, so configurations ①②④ must be
// exact over the must-find set with zero unexplained extras, and only
// configuration ③'s direct-jump targets are an allowed FP class.
func (c *checker) checkBTIEntrySets(reports []*core.Report, gt *groundtruth.GT) {
	truth := gt.Entries()
	callTargets := make(map[uint64]bool, len(reports[0].CallTargets))
	for _, t := range reports[0].CallTargets {
		callTargets[t] = true
	}
	var must []uint64
	for _, f := range gt.Funcs {
		if f.HasEndbr || callTargets[f.Addr] {
			must = append(must, f.Addr)
		}
	}
	jumpTargets := make(map[uint64]bool, len(reports[2].JumpTargets))
	for _, t := range reports[2].JumpTargets {
		jumpTargets[t] = true
	}
	checkOne := func(label string, entries []uint64, extraFP map[uint64]bool) {
		for _, addr := range must {
			if !member(entries, addr) {
				c.addf("must-find", "%s: ground-truth entry %#x (pad or call target) missed", label, addr)
			}
		}
		for _, e := range entries {
			if truth[e] {
				continue
			}
			if extraFP != nil && extraFP[e] {
				continue
			}
			c.addf("fp-class", "%s: spurious entry %#x has no documented FP class", label, e)
		}
	}
	checkOne("config 1", reports[0].Entries, nil)
	checkOne("config 2", reports[1].Entries, nil)
	checkOne("config 3", reports[2].Entries, jumpTargets)
	checkOne("config 4", reports[3].Entries, nil)
}
