package synth

import (
	"bytes"
	"debug/elf"
	"testing"

	"github.com/funseeker/funseeker/internal/ehframe"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/groundtruth"
	"github.com/funseeker/funseeker/internal/x86"
)

// testSpec builds a program exercising every synthesized feature.
func testSpec(lang Lang) *ProgSpec {
	spec := &ProgSpec{
		Name: "testprog",
		Lang: lang,
		Seed: 7,
		Funcs: []FuncSpec{
			{Name: "main", Calls: []int{1, 2}, CallsPLT: []string{"printf"}, HasSwitch: true, SwitchCases: 5},
			{Name: "helper_a", Calls: []int{3}},
			{Name: "helper_b", Calls: []int{3}, IndirectReturnCall: "setjmp"},
			{Name: "shared_leaf", Static: true},
			{Name: "callback", AddressTaken: true},
			{Name: "tail_target", TailCalls: nil},
			{Name: "tail_caller1", TailCalls: []int{5}},
			{Name: "tail_caller2", TailCalls: []int{5}},
			{Name: "dead_static", Static: true, Dead: true},
			{Name: "cold_owner", ColdPart: true, SharedColdWith: []int{1}},
			{Name: "called_part_owner", ColdPart: true, ColdCalled: true},
			{Name: "intrinsic_helper", Intrinsic: true, Calls: nil},
		},
	}
	// Make the intrinsic actually called (intrinsics are reached by
	// direct calls only).
	spec.Funcs[0].Calls = append(spec.Funcs[0].Calls, 11)
	if lang == LangCPP {
		spec.Funcs = append(spec.Funcs, FuncSpec{
			Name: "may_throw", HasEH: true, NumLandingPads: 2,
			CallsPLT: []string{"__cxa_throw"},
		})
		spec.Funcs[0].Calls = append(spec.Funcs[0].Calls, 12)
	}
	return spec
}

func compileOrDie(t *testing.T, spec *ProgSpec, cfg Config) *Result {
	t.Helper()
	res, err := Compile(spec, cfg)
	if err != nil {
		t.Fatalf("Compile(%s): %v", cfg, err)
	}
	return res
}

func TestCompileAllConfigs(t *testing.T) {
	for _, lang := range []Lang{LangC, LangCPP} {
		spec := testSpec(lang)
		for _, cfg := range AllConfigs() {
			cfg := cfg
			t.Run(lang.String()+"/"+cfg.String(), func(t *testing.T) {
				res := compileOrDie(t, spec, cfg)
				bin, err := elfx.Load(res.Stripped)
				if err != nil {
					t.Fatalf("elfx.Load: %v", err)
				}
				if bin.Mode != cfg.Mode {
					t.Errorf("mode = %v, want %v", bin.Mode, cfg.Mode)
				}
				ef, err := elf.NewFile(bytes.NewReader(res.Stripped))
				if err != nil {
					t.Fatal(err)
				}
				if pie := ef.Type == elf.ET_DYN; pie != cfg.PIE {
					t.Errorf("PIE = %v, want %v", pie, cfg.PIE)
				}
				if !bin.CETEnabled {
					t.Error("binary not marked CET-enabled")
				}

				// The entire .text must decode with zero resync skips.
				skipped := x86.LinearSweep(bin.Text, bin.TextAddr, bin.Mode, func(*x86.Inst) bool { return true })
				if skipped != 0 {
					t.Errorf("linear sweep skipped %d bytes", skipped)
				}

				verifyEndbrs(t, res, bin)
				verifyPLT(t, ef, bin)
				verifyEHFrame(t, res, bin, cfg, spec)
			})
		}
	}
}

// verifyEndbrs checks that ground-truth endbr flags match the bytes and
// that the recorded endbr sites are exactly the end branches in .text.
func verifyEndbrs(t *testing.T, res *Result, bin *elfx.Binary) {
	t.Helper()
	found := make(map[uint64]bool)
	x86.LinearSweep(bin.Text, bin.TextAddr, bin.Mode, func(inst *x86.Inst) bool {
		if inst.IsEndbr() {
			found[inst.Addr] = true
		}
		return true
	})
	recorded := make(map[uint64]groundtruth.EndbrRole)
	for _, e := range res.GT.Endbrs {
		recorded[e.Addr] = e.Role
	}
	if len(found) != len(recorded) {
		t.Errorf("swept %d endbrs, ground truth records %d", len(found), len(recorded))
	}
	for addr := range found {
		if _, ok := recorded[addr]; !ok {
			t.Errorf("endbr at %#x not in ground truth", addr)
		}
	}
	for _, f := range res.GT.Funcs {
		if f.HasEndbr {
			if !found[f.Addr] {
				t.Errorf("func %s at %#x should start with endbr", f.Name, f.Addr)
			}
			if recorded[f.Addr] != groundtruth.RoleFuncEntry {
				t.Errorf("func %s endbr role = %v", f.Name, recorded[f.Addr])
			}
		} else if found[f.Addr] {
			t.Errorf("func %s at %#x should not start with endbr", f.Name, f.Addr)
		}
	}
}

// verifyPLT checks the PLT map resolves the imports used by the program.
func verifyPLT(t *testing.T, ef *elf.File, bin *elfx.Binary) {
	t.Helper()
	names := make(map[string]bool)
	for _, n := range bin.PLT {
		names[n] = true
	}
	for _, want := range []string{"__libc_start_main", "printf", "setjmp"} {
		if !names[want] {
			t.Errorf("PLT map missing %s (have %v)", want, names)
		}
	}
	for va := range bin.PLT {
		if !inSection(ef, ".plt", va) && !inSection(ef, ".plt.sec", va) {
			t.Errorf("PLT entry %#x outside .plt bounds", va)
		}
	}
}

// inSection reports whether va falls inside the named section of ef.
func inSection(ef *elf.File, name string, va uint64) bool {
	s := ef.Section(name)
	return s != nil && va >= s.Addr && va < s.Addr+s.Size
}

// verifyEHFrame checks FDE emission policy and LSDA wiring.
func verifyEHFrame(t *testing.T, res *Result, bin *elfx.Binary, cfg Config, spec *ProgSpec) {
	t.Helper()
	fdes, err := ehframe.Parse(bin.EHFrame, bin.EHFrameAddr, bin.PtrSize())
	if err != nil {
		t.Fatalf("eh_frame parse: %v", err)
	}
	entries := res.GT.Entries()
	starts := make(map[uint64]bool)
	lsdaCount := 0
	for _, f := range fdes {
		starts[f.PCBegin] = true
		if f.HasLSDA {
			lsdaCount++
		}
	}
	switch {
	case cfg.Compiler == GCC || cfg.Mode == x86.Mode64:
		// Every function (and every part block) has an FDE.
		for _, f := range res.GT.Funcs {
			if !starts[f.Addr] {
				t.Errorf("%s: no FDE for %s at %#x", cfg, f.Name, f.Addr)
			}
		}
	default:
		// Clang x86: only EH functions have FDEs.
		for _, f := range fdes {
			if !entries[f.PCBegin] {
				t.Errorf("%s: unexpected FDE at %#x", cfg, f.PCBegin)
			}
			if !f.HasLSDA {
				t.Errorf("%s: Clang x86 FDE without LSDA at %#x", cfg, f.PCBegin)
			}
		}
	}
	if spec.Lang == LangCPP && lsdaCount == 0 {
		t.Errorf("%s: C++ program produced no LSDA-carrying FDEs", cfg)
	}
	if spec.Lang == LangC && lsdaCount != 0 {
		t.Errorf("%s: C program produced %d LSDA FDEs", cfg, lsdaCount)
	}
	// Landing pads recorded in GT must lie inside their function's FDE.
	if spec.Lang == LangCPP {
		for _, e := range res.GT.Endbrs {
			if e.Role != groundtruth.RoleException {
				continue
			}
			covered := false
			for _, f := range fdes {
				if f.HasLSDA && e.Addr >= f.PCBegin && e.Addr < f.PCBegin+f.PCRange {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("%s: landing pad %#x not covered by any LSDA FDE", cfg, e.Addr)
			}
		}
	}
}

func TestStrippedHasNoSymtab(t *testing.T) {
	res := compileOrDie(t, testSpec(LangC), Config{Compiler: GCC, Mode: x86.Mode64, Opt: O2})
	ef, err := elf.NewFile(bytes.NewReader(res.Stripped))
	if err != nil {
		t.Fatal(err)
	}
	if ef.Section(".symtab") != nil {
		t.Fatal("stripped binary still has .symtab")
	}
	if ef.Section(".gcc_except_table") != nil && res.GT.Lang == "c" {
		// C programs produce no except table at all.
		t.Fatal("C binary has .gcc_except_table")
	}
	// The unstripped variant must expose the function symbols.
	ef2, err := elf.NewFile(bytes.NewReader(res.Image))
	if err != nil {
		t.Fatal(err)
	}
	syms, err := ef2.Symbols()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]elf.Symbol{}
	for _, s := range syms {
		byName[s.Name] = s
	}
	if _, ok := byName["main"]; !ok {
		t.Fatal("main symbol missing in unstripped image")
	}
	if _, ok := byName["cold_owner.cold"]; !ok {
		t.Fatal("cold fragment symbol missing")
	}
	if _, ok := byName["called_part_owner.part.0"]; !ok {
		t.Fatal("part fragment symbol missing")
	}
}

func TestGroundTruthShape(t *testing.T) {
	spec := testSpec(LangCPP)
	res := compileOrDie(t, spec, Config{Compiler: GCC, Mode: x86.Mode64, Opt: O2})
	gt := res.GT

	// _start and the regular functions are all present.
	wantFuncs := len(spec.Funcs) + 1 // + _start
	if len(gt.Funcs) != wantFuncs {
		t.Fatalf("GT has %d funcs, want %d", len(gt.Funcs), wantFuncs)
	}
	if len(gt.PartBlocks) != 2 {
		t.Fatalf("GT has %d part blocks, want 2", len(gt.PartBlocks))
	}
	entries := gt.Entries()
	for _, p := range gt.PartBlocks {
		if entries[p] {
			t.Errorf("part block %#x is also a GT entry", p)
		}
	}
	// Dead static functions are flagged.
	f, ok := gt.FuncAt(mustFind(t, gt, "dead_static"))
	if !ok || !f.Dead || !f.Static || f.HasEndbr {
		t.Fatalf("dead_static GT record wrong: %+v", f)
	}
	// The intrinsic has no endbr.
	f, _ = gt.FuncAt(mustFind(t, gt, "intrinsic_helper"))
	if f.HasEndbr || f.Static {
		t.Fatalf("intrinsic GT record wrong: %+v", f)
	}
	// Roles present: entry, indirect-return, exception.
	roles := map[groundtruth.EndbrRole]int{}
	for _, e := range gt.Endbrs {
		roles[e.Role]++
	}
	if roles[groundtruth.RoleFuncEntry] == 0 || roles[groundtruth.RoleIndirectReturn] == 0 || roles[groundtruth.RoleException] == 0 {
		t.Fatalf("missing endbr roles: %v", roles)
	}
	if roles[groundtruth.RoleException] != 2 {
		t.Fatalf("exception endbrs = %d, want 2", roles[groundtruth.RoleException])
	}
}

func mustFind(t *testing.T, gt *groundtruth.GT, name string) uint64 {
	t.Helper()
	for _, f := range gt.Funcs {
		if f.Name == name {
			return f.Addr
		}
	}
	t.Fatalf("function %s not in ground truth", name)
	return 0
}

func TestDeterministicOutput(t *testing.T) {
	spec := testSpec(LangC)
	cfg := Config{Compiler: Clang, Mode: x86.Mode32, PIE: true, Opt: O3}
	a := compileOrDie(t, spec, cfg)
	b := compileOrDie(t, spec, cfg)
	if !bytes.Equal(a.Image, b.Image) {
		t.Fatal("same spec+config produced different images")
	}
}

func TestConfigString(t *testing.T) {
	cfg := Config{Compiler: GCC, Mode: x86.Mode64, PIE: true, Opt: Ofast}
	if got := cfg.String(); got != "gcc-x86-64-pie-Ofast" {
		t.Fatalf("Config.String() = %q", got)
	}
	// 24 configurations per compiler (2 arch × 2 PIE × 6 opt), so 48 in
	// total across GCC and Clang — matching the paper's 8,136 ≈ 170×48
	// binaries.
	if len(AllConfigs()) != 48 {
		t.Fatalf("AllConfigs() returned %d configs, want 48", len(AllConfigs()))
	}
}

func TestSpecValidation(t *testing.T) {
	cases := map[string]*ProgSpec{
		"empty":        {Name: "x"},
		"noname":       {Name: "x", Funcs: []FuncSpec{{}}},
		"dup":          {Name: "x", Funcs: []FuncSpec{{Name: "a"}, {Name: "a"}}},
		"bad-call":     {Name: "x", Funcs: []FuncSpec{{Name: "a", Calls: []int{9}}}},
		"bad-tail":     {Name: "x", Funcs: []FuncSpec{{Name: "a", TailCalls: []int{0}}}},
		"eh-in-c":      {Name: "x", Lang: LangC, Funcs: []FuncSpec{{Name: "a", HasEH: true}}},
		"bad-ir":       {Name: "x", Funcs: []FuncSpec{{Name: "a", IndirectReturnCall: "nope"}}},
		"cold-sharing": {Name: "x", Funcs: []FuncSpec{{Name: "a"}, {Name: "b", SharedColdWith: []int{0}}}},
	}
	for name, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
	if _, err := Compile(&ProgSpec{}, Config{Compiler: GCC, Mode: x86.Mode64, Opt: O0}); err == nil {
		t.Error("Compile of invalid spec should fail")
	}
}

func TestCompileRejectsBadConfig(t *testing.T) {
	spec := testSpec(LangC)
	if _, err := Compile(spec, Config{}); err == nil {
		t.Fatal("want error for zero config")
	}
	if _, err := Compile(spec, Config{Compiler: GCC, Mode: x86.Mode64, Opt: OptLevel(99)}); err == nil {
		t.Fatal("want error for bad opt level")
	}
}

func TestIndirectReturnList(t *testing.T) {
	for _, n := range []string{"setjmp", "_setjmp", "sigsetjmp", "__sigsetjmp", "vfork"} {
		if !IsIndirectReturnFunc(n) {
			t.Errorf("%s should be indirect-return", n)
		}
	}
	if IsIndirectReturnFunc("longjmp") {
		t.Error("longjmp is not an indirect-return function")
	}
	if len(IndirectReturnFuncs) != 5 {
		t.Errorf("paper defines 5 indirect-return functions, list has %d", len(IndirectReturnFuncs))
	}
}

func TestSplitPLTLayout(t *testing.T) {
	res := compileOrDie(t, testSpec(LangC), Config{Compiler: GCC, Mode: x86.Mode64, Opt: O2})
	ef, err := elf.NewFile(bytes.NewReader(res.Stripped))
	if err != nil {
		t.Fatal(err)
	}
	plt := ef.Section(".plt")
	pltSec := ef.Section(".plt.sec")
	if plt == nil || pltSec == nil {
		t.Fatal("split PLT sections missing")
	}
	if pltSec.Addr <= plt.Addr {
		t.Errorf(".plt.sec at %#x should follow .plt at %#x", pltSec.Addr, plt.Addr)
	}
	// The loader must resolve .plt.sec entries to import names, and all
	// text call sites into the PLT must target .plt.sec.
	bin, err := elfx.Load(res.Stripped)
	if err != nil {
		t.Fatal(err)
	}
	foundSec := false
	for va, name := range bin.PLT {
		if inSection(ef, ".plt.sec", va) && name == "printf" {
			foundSec = true
		}
	}
	if !foundSec {
		t.Error("printf not resolved to a .plt.sec entry")
	}
	callsIntoSec := 0
	x86.LinearSweep(bin.Text, bin.TextAddr, bin.Mode, func(inst *x86.Inst) bool {
		if inst.Class == x86.ClassCallRel && inst.HasTarget && (inSection(ef, ".plt", inst.Target) || inSection(ef, ".plt.sec", inst.Target)) {
			if !inSection(ef, ".plt.sec", inst.Target) {
				t.Errorf("call at %#x targets lazy .plt stub %#x instead of .plt.sec", inst.Addr, inst.Target)
			}
			callsIntoSec++
		}
		return true
	})
	if callsIntoSec == 0 {
		t.Error("no PLT calls found in text")
	}
}
