package idapro

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

func addrOf(t *testing.T, gt *groundtruth.GT, name string) uint64 {
	t.Helper()
	for _, f := range gt.Funcs {
		if f.Name == name {
			return f.Addr
		}
	}
	t.Fatalf("no function %s", name)
	return 0
}

func mixSpec() *synth.ProgSpec {
	return &synth.ProgSpec{
		Name: "idatest",
		Lang: synth.LangC,
		Seed: 31,
		Funcs: []synth.FuncSpec{
			{Name: "main", Calls: []int{1, 2}},
			{Name: "called", Calls: nil},
			{Name: "chained", Calls: []int{3}},
			{Name: "leaf", Static: true},
			{Name: "exported_leafy"},             // unreferenced, leaf body
			{Name: "codecb", AddressTaken: true}, // lea-referenced
			{Name: "datacb", AddressTakenData: true},
		},
	}
}

func TestFindsCallGraph(t *testing.T) {
	bin, gt := build(t, mixSpec(), synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
	rep, err := Identify(context.Background(), analysis.NewContext(bin))
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint64]bool{}
	for _, e := range rep.Entries {
		found[e] = true
	}
	for _, name := range []string{"main", "called", "chained", "leaf"} {
		if !found[addrOf(t, gt, name)] {
			t.Errorf("call-graph function %s not found", name)
		}
	}
	// Code-referenced (lea) function is found via reference analysis.
	if !found[addrOf(t, gt, "codecb")] {
		t.Error("lea-referenced callback missed")
	}
	// Data-table-referenced function: IDA's blind spot at O2.
	if found[addrOf(t, gt, "datacb")] {
		t.Error("data-table callback found — the model should miss indirect-only targets at O2")
	}
	// Exported unreferenced leaf at O2: no prologue, no call in body.
	if found[addrOf(t, gt, "exported_leafy")] {
		t.Error("unreferenced leaf found at O2 — nothing references it and it has no FP prologue")
	}
}

func TestPrologueScanAtO0(t *testing.T) {
	bin, gt := build(t, mixSpec(), synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O0})
	rep, err := Identify(context.Background(), analysis.NewContext(bin))
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint64]bool{}
	for _, e := range rep.Entries {
		found[e] = true
	}
	// At O0 every function carries the classic frame-pointer prologue,
	// so even unreferenced and data-referenced functions surface.
	for _, f := range gt.Funcs {
		if f.Name == "_start" {
			continue
		}
		if !found[f.Addr] {
			t.Errorf("%s missed at O0 despite push-rbp prologue", f.Name)
		}
	}
	if rep.FromPrologue == 0 {
		t.Error("prologue scan contributed nothing at O0")
	}
}

func Test32BitImmediateRefs(t *testing.T) {
	bin, gt := build(t, mixSpec(), synth.Config{Compiler: synth.GCC, Mode: x86.Mode32, Opt: synth.O2})
	rep, err := Identify(context.Background(), analysis.NewContext(bin))
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint64]bool{}
	for _, e := range rep.Entries {
		found[e] = true
	}
	// On x86 the address-taken callback is materialized with
	// mov reg, imm32 — the immediate scan must catch it.
	if !found[addrOf(t, gt, "codecb")] {
		t.Error("mov-imm referenced callback missed on x86")
	}
}

func TestReportCounters(t *testing.T) {
	bin, _ := build(t, mixSpec(), synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O0})
	rep, err := Identify(context.Background(), analysis.NewContext(bin))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromTraversal == 0 {
		t.Error("no traversal-found functions")
	}
	if len(rep.Entries) == 0 {
		t.Error("empty entry set")
	}
	for i := 1; i < len(rep.Entries); i++ {
		if rep.Entries[i-1] >= rep.Entries[i] {
			t.Fatal("entries not sorted")
		}
	}
}
