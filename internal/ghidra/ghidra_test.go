package ghidra

import (
	"context"
	"testing"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/groundtruth"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

func build(t *testing.T, spec *synth.ProgSpec, cfg synth.Config) (*elfx.Binary, *groundtruth.GT) {
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

func sampleSpec() *synth.ProgSpec {
	return &synth.ProgSpec{
		Name: "ghidratest",
		Lang: synth.LangC,
		Seed: 41,
		Funcs: []synth.FuncSpec{
			{Name: "main", Calls: []int{1}},
			{Name: "a", Calls: []int{2}},
			{Name: "b", Static: true},
			{Name: "island"},
			{Name: "datacb", AddressTakenData: true},
		},
	}
}

func TestFullRecallWithFDEs(t *testing.T) {
	bin, gt := build(t, sampleSpec(), synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
	rep, err := Identify(context.Background(), analysis.NewContext(bin))
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint64]bool{}
	for _, e := range rep.Entries {
		found[e] = true
	}
	for _, f := range gt.Funcs {
		if !found[f.Addr] {
			t.Errorf("%s missed despite FDE coverage", f.Name)
		}
	}
	if rep.FromFDE == 0 {
		t.Error("no FDE-derived entries")
	}
}

func TestClangX86RecallDrop(t *testing.T) {
	cfgNoFDE := synth.Config{Compiler: synth.Clang, Mode: x86.Mode32, Opt: synth.O2}
	bin, gt := build(t, sampleSpec(), cfgNoFDE)
	rep, err := Identify(context.Background(), analysis.NewContext(bin))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromFDE != 0 {
		t.Errorf("FromFDE = %d on a Clang x86 C binary", rep.FromFDE)
	}
	found := map[uint64]bool{}
	for _, e := range rep.Entries {
		found[e] = true
	}
	missed := 0
	for _, f := range gt.Funcs {
		if !found[f.Addr] {
			missed++
		}
	}
	if missed == 0 {
		t.Error("Ghidra model should miss functions without FDEs at O2")
	}
	// At O0, prologue signatures recover them.
	cfgO0 := cfgNoFDE
	cfgO0.Opt = synth.O0
	bin0, gt0 := build(t, sampleSpec(), cfgO0)
	rep0, err := Identify(context.Background(), analysis.NewContext(bin0))
	if err != nil {
		t.Fatal(err)
	}
	found0 := map[uint64]bool{}
	for _, e := range rep0.Entries {
		found0[e] = true
	}
	missed0 := 0
	for _, f := range gt0.Funcs {
		if !found0[f.Addr] {
			missed0++
		}
	}
	if missed0 > 1 {
		t.Errorf("missed %d functions at O0; prologue scan should recover them", missed0)
	}
	if rep0.FromPrologue == 0 {
		t.Error("prologue scan found nothing at O0")
	}
}

func TestPartBlockFalsePositives(t *testing.T) {
	spec := sampleSpec()
	spec.Funcs[0].ColdPart = true
	bin, gt := build(t, spec, synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
	rep, err := Identify(context.Background(), analysis.NewContext(bin))
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint64]bool{}
	for _, e := range rep.Entries {
		found[e] = true
	}
	for _, p := range gt.PartBlocks {
		if !found[p] {
			t.Errorf("part block %#x not reported — Ghidra inherits the FDE false positive", p)
		}
	}
}
