package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/groundtruth"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// studySpec mirrors the feature-complete program used by the synth tests.
func studySpec(lang synth.Lang) *synth.ProgSpec {
	spec := &synth.ProgSpec{
		Name: "coretest",
		Lang: lang,
		Seed: 99,
		Funcs: []synth.FuncSpec{
			{Name: "main", Calls: []int{1, 2, 11}, CallsPLT: []string{"printf"}, HasSwitch: true, SwitchCases: 6},
			{Name: "helper_a", Calls: []int{3}},
			{Name: "helper_b", Calls: []int{3}, IndirectReturnCall: "setjmp"},
			{Name: "shared_leaf", Static: true},
			{Name: "callback", AddressTaken: true},
			{Name: "tail_target", Static: true},
			{Name: "tail_caller1", TailCalls: []int{5}},
			{Name: "tail_caller2", TailCalls: []int{5}},
			{Name: "dead_static", Static: true, Dead: true},
			{Name: "cold_owner", ColdPart: true, SharedColdWith: []int{1}},
			{Name: "called_part_owner", ColdPart: true, ColdCalled: true},
			{Name: "lone_tail_target", Static: true},
			{Name: "lone_tail_caller", TailCalls: []int{11}},
		},
	}
	// lone_tail_target is also direct-called by main (index 11 in Calls)
	// so it stays reachable; wait — keep it tail-only: remove from Calls.
	spec.Funcs[0].Calls = []int{1, 2}
	if lang == synth.LangCPP {
		spec.Funcs = append(spec.Funcs, synth.FuncSpec{
			Name: "may_throw", HasEH: true, NumLandingPads: 2,
			CallsPLT: []string{"__cxa_throw"},
		})
		n := len(spec.Funcs) - 1
		spec.Funcs[0].Calls = append(spec.Funcs[0].Calls, n)
	}
	return spec
}

func compileAndLoad(t *testing.T, spec *synth.ProgSpec, cfg synth.Config) (*elfx.Binary, *groundtruth.GT) {
	t.Helper()
	res, err := synth.Compile(spec, cfg)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	bin, err := elfx.Load(res.Stripped)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return bin, res.GT
}

// score computes (truePos, falsePos, falseNeg) for found vs gt.
func score(found []uint64, gt *groundtruth.GT) (tp, fp, fn int, fpAddrs, fnAddrs []uint64) {
	truth := gt.Entries()
	fset := make(map[uint64]bool, len(found))
	for _, f := range found {
		fset[f] = true
		if truth[f] {
			tp++
		} else {
			fp++
			fpAddrs = append(fpAddrs, f)
		}
	}
	for addr := range truth {
		if !fset[addr] {
			fn++
			fnAddrs = append(fnAddrs, addr)
		}
	}
	return tp, fp, fn, fpAddrs, fnAddrs
}

func defaultCfg() synth.Config {
	return synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2}
}

func TestIdentifyFullAlgorithm(t *testing.T) {
	for _, cfg := range []synth.Config{
		{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2},
		{Compiler: synth.GCC, Mode: x86.Mode32, Opt: synth.O0},
		{Compiler: synth.Clang, Mode: x86.Mode64, PIE: true, Opt: synth.O3},
		{Compiler: synth.Clang, Mode: x86.Mode32, Opt: synth.Os},
	} {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			bin, gt := compileAndLoad(t, studySpec(synth.LangCPP), cfg)
			report, err := Identify(bin, Config4)
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, fpAddrs, fnAddrs := score(report.Entries, gt)

			// Every live function must be found; only dead static
			// functions and single-reference tail targets may be missed.
			allowedFN := map[uint64]bool{}
			for _, f := range gt.Funcs {
				if f.Dead && f.Static {
					allowedFN[f.Addr] = true
				}
				if f.Name == "lone_tail_target" {
					allowedFN[f.Addr] = true
				}
			}
			for _, addr := range fnAddrs {
				if !allowedFN[addr] {
					f, _ := gt.FuncAt(addr)
					t.Errorf("missed live function %s at %#x", f.Name, addr)
				}
			}
			// All false positives must be .part/.cold blocks.
			parts := map[uint64]bool{}
			for _, p := range gt.PartBlocks {
				parts[p] = true
			}
			for _, addr := range fpAddrs {
				if !parts[addr] {
					t.Errorf("false positive at %#x is not a part block", addr)
				}
			}
		})
	}
}

func TestConfig1VsConfig2OnCPP(t *testing.T) {
	bin, gt := compileAndLoad(t, studySpec(synth.LangCPP), defaultCfg())

	r1, err := Identify(bin, Config1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Identify(bin, Config2)
	if err != nil {
		t.Fatal(err)
	}
	_, fp1, _, _, _ := score(r1.Entries, gt)
	_, fp2, _, _, _ := score(r2.Entries, gt)
	// Config ① counts landing pads and the setjmp return point as
	// entries; config ② must remove them.
	if fp1 <= fp2 {
		t.Fatalf("FILTERENDBR did not reduce false positives: %d -> %d", fp1, fp2)
	}
	if r2.FilteredLandingPads == 0 {
		t.Error("no landing pads filtered in a C++ binary")
	}
	if r2.FilteredIndirectReturn == 0 {
		t.Error("no indirect-return end branches filtered")
	}
	// Recall must not drop: ② only removes non-entries.
	_, _, fn1, _, _ := score(r1.Entries, gt)
	_, _, fn2, _, _ := score(r2.Entries, gt)
	if fn2 > fn1 {
		t.Errorf("FILTERENDBR hurt recall: FN %d -> %d", fn1, fn2)
	}
}

func TestConfig3PrecisionCollapse(t *testing.T) {
	bin, gt := compileAndLoad(t, studySpec(synth.LangCPP), defaultCfg())
	r3, err := Identify(bin, Config3)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Identify(bin, Config4)
	if err != nil {
		t.Fatal(err)
	}
	_, fp3, fn3, _, _ := score(r3.Entries, gt)
	_, fp4, _, _, _ := score(r4.Entries, gt)
	// ③ treats every interior jump target as an entry: many FPs.
	if fp3 <= fp4 {
		t.Fatalf("expected ③ (%d FPs) to have more false positives than ④ (%d)", fp3, fp4)
	}
	// ③ is the most inclusive configuration: essentially no FNs beyond
	// dead functions.
	tp3 := len(gt.Funcs) - fn3
	if tp3 < len(gt.Funcs)-2 {
		t.Errorf("③ missed too many functions: %d of %d", tp3, len(gt.Funcs))
	}
}

func TestTailCallSelection(t *testing.T) {
	bin, gt := compileAndLoad(t, studySpec(synth.LangC), defaultCfg())
	report, err := Identify(bin, Config4)
	if err != nil {
		t.Fatal(err)
	}
	var tailTarget, loneTarget uint64
	for _, f := range gt.Funcs {
		switch f.Name {
		case "tail_target":
			tailTarget = f.Addr
		case "lone_tail_target":
			loneTarget = f.Addr
		}
	}
	found := map[uint64]bool{}
	for _, e := range report.Entries {
		found[e] = true
	}
	if !found[tailTarget] {
		t.Error("tail_target (2 callers) not identified")
	}
	if found[loneTarget] {
		t.Error("lone_tail_target (1 caller) should be rejected by SELECTTAILCALL")
	}
	inTails := false
	for _, a := range report.TailCallTargets {
		if a == tailTarget {
			inTails = true
		}
	}
	if !inTails {
		t.Error("tail_target missing from TailCallTargets")
	}
}

func TestClassifyEndbrs(t *testing.T) {
	bin, gt := compileAndLoad(t, studySpec(synth.LangCPP), defaultCfg())
	dist, err := ClassifyEndbrs(analysis.NewContext(bin))
	if err != nil {
		t.Fatal(err)
	}
	// Compare against ground-truth roles.
	var want EndbrDistribution
	for _, e := range gt.Endbrs {
		switch e.Role {
		case groundtruth.RoleFuncEntry:
			want.FuncEntry++
		case groundtruth.RoleIndirectReturn:
			want.IndirectReturn++
		case groundtruth.RoleException:
			want.Exception++
		}
	}
	if dist != want {
		t.Fatalf("ClassifyEndbrs = %+v, want %+v", dist, want)
	}
	if dist.Exception != 2 {
		t.Errorf("exception endbrs = %d, want 2", dist.Exception)
	}
	if dist.IndirectReturn != 1 {
		t.Errorf("indirect-return endbrs = %d, want 1", dist.IndirectReturn)
	}
}

func TestAnalyzeProperties(t *testing.T) {
	bin, gt := compileAndLoad(t, studySpec(synth.LangC), defaultCfg())
	actx := analysis.NewContext(bin)
	venn := AnalyzeProperties(actx, gt.SortedEntries())
	if venn.Total != len(gt.Funcs) {
		t.Fatalf("analyzed %d funcs, want %d", venn.Total, len(gt.Funcs))
	}
	// Cross-check per-function expectations.
	for _, f := range gt.Funcs {
		v := AnalyzeProperties(actx, []uint64{f.Addr})
		var mask int
		for m, c := range v.Region {
			if c == 1 {
				mask = m
			}
		}
		if f.HasEndbr != (mask&PropEndbr != 0) {
			t.Errorf("%s: endbr property mismatch (mask %03b, want endbr=%v)", f.Name, mask, f.HasEndbr)
		}
		switch f.Name {
		case "shared_leaf":
			if mask&PropDirCall == 0 {
				t.Errorf("shared_leaf should be a direct call target")
			}
		case "tail_target":
			if mask&PropDirJmp == 0 {
				t.Errorf("tail_target should be a direct jump target")
			}
		case "dead_static":
			if mask != 0 {
				t.Errorf("dead_static should satisfy no property, mask=%03b", mask)
			}
		}
	}
	// Percentage helpers.
	if venn.PctWith(0) != 100 {
		t.Errorf("PctWith(0) = %f, want 100", venn.PctWith(0))
	}
	sum := 0.0
	for m := 0; m < 8; m++ {
		sum += venn.Pct(m)
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("region percentages sum to %f", sum)
	}
}

func TestIdentifyCBinaryNoEH(t *testing.T) {
	// A C binary has no .gcc_except_table; FILTERENDBR must be a no-op
	// for landing pads and identification must still work.
	bin, gt := compileAndLoad(t, studySpec(synth.LangC), defaultCfg())
	if len(bin.ExceptTable) != 0 {
		t.Fatal("C binary unexpectedly has an exception table")
	}
	report, err := Identify(bin, Config4)
	if err != nil {
		t.Fatal(err)
	}
	if report.FilteredLandingPads != 0 {
		t.Error("landing pads filtered in a C binary")
	}
	_, _, fn, _, fnAddrs := score(report.Entries, gt)
	if fn > 2 {
		t.Errorf("too many false negatives in C binary: %d (%#x)", fn, fnAddrs)
	}
}

func TestReportSetsSorted(t *testing.T) {
	bin, _ := compileAndLoad(t, studySpec(synth.LangCPP), defaultCfg())
	report, err := Identify(bin, Config4)
	if err != nil {
		t.Fatal(err)
	}
	assertSorted := func(name string, s []uint64) {
		for i := 1; i < len(s); i++ {
			if s[i-1] >= s[i] {
				t.Fatalf("%s not strictly sorted at %d", name, i)
			}
		}
	}
	assertSorted("Entries", report.Entries)
	assertSorted("CallTargets", report.CallTargets)
	assertSorted("JumpTargets", report.JumpTargets)
	assertSorted("TailCallTargets", report.TailCallTargets)
}

// TestIdentifyStageClocksAddUp: every stage one configuration-⑤ run
// charges to a fresh context — the sweep, the .eh_frame parse, the
// landing-pad set, the FDE index, FILTERENDBR and both SELECTTAILCALL
// passes — is timed on its own clock, started once its inputs are in
// hand, so the stage times add up to no more than the run's wall time.
func TestIdentifyStageClocksAddUp(t *testing.T) {
	spec := studySpec(synth.LangCPP)
	for i := 0; i < 200; i++ {
		spec.Funcs = append(spec.Funcs, synth.FuncSpec{
			Name: fmt.Sprintf("thrower%d", i), HasEH: true, NumLandingPads: 3,
			CallsPLT: []string{"__cxa_throw"},
		})
		spec.Funcs[0].Calls = append(spec.Funcs[0].Calls, len(spec.Funcs)-1)
	}
	bin, _ := compileAndLoad(t, spec, defaultCfg())
	for trial := 0; trial < 3; trial++ {
		actx := analysis.NewContext(bin)
		start := time.Now()
		if _, err := IdentifyCtx(context.Background(), actx, Config5); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		var sum time.Duration
		var charged []string
		actx.Stats().EachStage(func(name string, st analysis.StageStat) {
			sum += st.Time
			if st.Computes > 0 {
				charged = append(charged, name)
			}
		})
		if sum > wall {
			t.Fatalf("stage times %v sum to %v, more than the run's wall time %v", charged, sum, wall)
		}
	}
}
