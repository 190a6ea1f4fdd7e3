package fetch

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/ehframe"
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
		Name: "fetchtest",
		Lang: synth.LangC,
		Seed: 21,
		Funcs: []synth.FuncSpec{
			{Name: "main", Calls: []int{1, 2}},
			{Name: "a", Calls: []int{3}},
			{Name: "b", BodySize: 400, TailCalls: []int{3}},
			{Name: "leaf", Static: true},
			{Name: "island"},
		},
	}
}

func TestFDECoverageGCC64(t *testing.T) {
	bin, gt := build(t, sampleSpec(), synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
	rep, err := Identify(context.Background(), analysis.NewContext(bin))
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint64]bool{}
	for _, e := range rep.Entries {
		found[e] = true
	}
	// GCC emits FDEs for every function: all found.
	for _, f := range gt.Funcs {
		if !found[f.Addr] {
			t.Errorf("missed %s at %#x despite full FDE coverage", f.Name, f.Addr)
		}
	}
	if rep.FDEFunctions < len(gt.Funcs) {
		t.Errorf("FDEFunctions = %d < %d", rep.FDEFunctions, len(gt.Funcs))
	}
	if rep.AnalyzedInsts == 0 {
		t.Error("no instructions analyzed — the cost model is not running")
	}
}

func TestClangX86CollapseOnC(t *testing.T) {
	bin, gt := build(t, sampleSpec(), synth.Config{Compiler: synth.Clang, Mode: x86.Mode32, Opt: synth.O2})
	rep, err := Identify(context.Background(), analysis.NewContext(bin))
	if err != nil {
		t.Fatal(err)
	}
	// Clang emits no FDEs for 32-bit C binaries: FETCH finds nothing.
	if rep.FDEFunctions != 0 {
		t.Errorf("FDEFunctions = %d on Clang x86 C binary, want 0", rep.FDEFunctions)
	}
	if len(rep.Entries) != 0 {
		t.Errorf("found %d entries with no FDEs", len(rep.Entries))
	}
	_ = gt
}

func TestPartBlocksAreFalsePositives(t *testing.T) {
	spec := sampleSpec()
	spec.Funcs[0].ColdPart = true
	bin, gt := build(t, spec, synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
	rep, err := Identify(context.Background(), analysis.NewContext(bin))
	if err != nil {
		t.Fatal(err)
	}
	if len(gt.PartBlocks) == 0 {
		t.Fatal("no part blocks generated")
	}
	found := map[uint64]bool{}
	for _, e := range rep.Entries {
		found[e] = true
	}
	for _, p := range gt.PartBlocks {
		if !found[p] {
			t.Errorf("part block %#x not reported — FETCH should inherit the FDE false positive", p)
		}
	}
}

func TestProfileStackBalance(t *testing.T) {
	// Balanced function: push rbp; mov rbp,rsp; sub rsp,16; leave; ret.
	code := []byte{
		0x55,
		0x48, 0x89, 0xE5,
		0x48, 0x83, 0xEC, 0x10,
		0xC9,
		0xC3,
	}
	p := profile(code, 0x1000, x86.Mode64, 100)
	if !p.sawRet || !p.balanced {
		t.Errorf("balanced function profiled as %+v", p)
	}
	// Unbalanced: push rbp; ret (height -8 at ret).
	p = profile([]byte{0x55, 0xC3}, 0x1000, x86.Mode64, 100)
	if !p.sawRet || p.balanced {
		t.Errorf("unbalanced function profiled as %+v", p)
	}
	if p.looksLikeFunction() {
		t.Error("unbalanced profile accepted")
	}
	// Pops below entry: pop rax; ret.
	p = profile([]byte{0x58, 0xC3}, 0x1000, x86.Mode64, 100)
	if !p.popsBelowEntry {
		t.Errorf("pop at entry not flagged: %+v", p)
	}
	// Padding start.
	p = profile([]byte{0x90, 0xC3}, 0x1000, x86.Mode64, 100)
	if !p.startsWithPadding || p.looksLikeFunction() {
		t.Errorf("padding start not rejected: %+v", p)
	}
	// Decode error.
	p = profile([]byte{0x06}, 0x1000, x86.Mode64, 100)
	if !p.decodeError || p.looksLikeFunction() {
		t.Errorf("decode error not rejected: %+v", p)
	}
}

func TestProfileArgRegRead(t *testing.T) {
	// mov rax, rdi reads the first argument register before writing it.
	p := profile([]byte{0x48, 0x89, 0xF8, 0xC3}, 0, x86.Mode64, 100)
	if !p.argRegRead {
		t.Errorf("rdi read not detected: %+v", p)
	}
	// mov rdi, rax writes rdi first; xor edi, edi then read would not
	// count either.
	p = profile([]byte{0x48, 0x89, 0xC7, 0x48, 0x89, 0xF8, 0xC3}, 0, x86.Mode64, 100)
	if p.argRegRead {
		t.Errorf("write-then-read misdetected: %+v", p)
	}
}

func TestCFGProfileLoops(t *testing.T) {
	// A function with a backward branch must still reach the fixpoint:
	//   xor ecx,ecx; L: add ecx,1; cmp ecx,10; jl L; ret
	code := []byte{
		0x31, 0xC9,
		0x83, 0xC1, 0x01,
		0x83, 0xF9, 0x0A,
		0x0F, 0x8C, 0xF5, 0xFF, 0xFF, 0xFF, // jl -11
		0xC3,
	}
	p := cfgProfile(code, 0x2000, x86.Mode64)
	if !p.sawRet || !p.balanced {
		t.Errorf("loop function profiled as %+v", p)
	}
	if p.insts == 0 {
		t.Error("no instructions counted")
	}
}

func TestVerifiedTailCall(t *testing.T) {
	bin, gt := build(t, sampleSpec(), synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
	rep, err := Identify(context.Background(), analysis.NewContext(bin))
	if err != nil {
		t.Fatal(err)
	}
	// leaf is both called and tail-called; it has an FDE anyway under
	// GCC, so the tail-call machinery just must not crash and must have
	// examined some candidates or none — but on GCC everything has FDEs,
	// so candidates whose targets were already entries are skipped.
	if rep.VerifiedTailCalls+rep.RejectedCandidates < 0 {
		t.Error("negative counters")
	}
	_ = gt
}

// TestEscapingJumpsUnconditionalOnly: a direct jump leaving its FDE range
// is a tail-call candidate, a conditional jump leaving it is not, even
// when both targets pass verification.
func TestEscapingJumpsUnconditionalOnly(t *testing.T) {
	const base, ehVA = 0x1000, 0x3000
	body := []byte{0x55, 0x48, 0x89, 0xE5, 0x5D, 0xC3} // push rbp; mov rbp,rsp; pop rbp; ret
	text := bytes.Repeat([]byte{0xCC}, 0x40)
	copy(text, []byte{
		0x0F, 0x84, 0x1A, 0x00, 0x00, 0x00, // jz 0x1020
		0xE9, 0x25, 0x00, 0x00, 0x00, // jmp 0x1030
		0xC3,
	})
	copy(text[0x20:], body)
	copy(text[0x30:], body)
	eh := ehframe.NewBuilder(ehVA, 8)
	eh.AddFDE(base, 0x10, false, 0)
	bin := &elfx.Binary{
		Arch: elfx.ArchX86_64, Mode: x86.Mode64, Entry: base,
		Text: text, TextAddr: base, EHFrame: eh.Bytes(), EHFrameAddr: ehVA,
	}
	rep, err := Identify(context.Background(), analysis.NewContext(bin))
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{0x1000, 0x1030}; !slices.Equal(rep.Entries, want) {
		t.Fatalf("entries = %#x, want %#x", rep.Entries, want)
	}
}
