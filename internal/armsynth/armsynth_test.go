package armsynth

import (
	"bytes"
	"context"
	"debug/elf"
	"testing"

	"github.com/funseeker/funseeker/internal/arm64"
	"github.com/funseeker/funseeker/internal/groundtruth"
	"github.com/funseeker/funseeker/internal/synth"
)

func demoSpec() *synth.ProgSpec {
	return &synth.ProgSpec{
		Name: "armdemo",
		Lang: synth.LangC,
		Seed: 3,
		Funcs: []synth.FuncSpec{
			{Name: "main", Calls: []int{1}, HasSwitch: true, SwitchCases: 3},
			{Name: "a", Calls: []int{2}},
			{Name: "b", Static: true},
			{Name: "cb", AddressTakenData: true},
			{Name: "ti", Static: true},
			{Name: "t1", TailCalls: []int{4}},
			{Name: "t2", TailCalls: []int{4}},
		},
	}
}

func TestCompileProducesValidELF(t *testing.T) {
	res, err := Compile(demoSpec(), Config{Opt: synth.O2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf.NewFile(bytes.NewReader(res.Image))
	if err != nil {
		t.Fatalf("debug/elf rejected the image: %v", err)
	}
	defer f.Close()
	if f.Machine != elf.EM_AARCH64 {
		t.Errorf("machine = %v", f.Machine)
	}
	text := f.Section(".text")
	if text == nil || text.Addr != res.TextAddr {
		t.Fatal("bad .text")
	}
	data, err := text.Data()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != res.TextSize {
		t.Errorf("text size %d != %d", len(data), res.TextSize)
	}
	note := f.Section(".note.gnu.property")
	if note == nil {
		t.Fatal("no property note")
	}
}

func TestBTIPlacementPolicy(t *testing.T) {
	res, err := Compile(demoSpec(), Config{Opt: synth.O2})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := elf.NewFile(bytes.NewReader(res.Image))
	defer f.Close()
	text, _ := f.Section(".text").Data()

	// Cross-check GT endbr flags against the decoded first word of each
	// function.
	for _, fn := range res.GT.Funcs {
		off := fn.Addr - res.TextAddr
		word := uint32(text[off]) | uint32(text[off+1])<<8 |
			uint32(text[off+2])<<16 | uint32(text[off+3])<<24
		inst := arm64.Decode(word, fn.Addr)
		isPad := inst.Class == arm64.ClassBTI && inst.BTI.AcceptsCall() ||
			inst.Class == arm64.ClassPACIASP
		if fn.HasEndbr != isPad {
			t.Errorf("%s: GT endbr=%v but entry decodes as %v", fn.Name, fn.HasEndbr, inst.Class)
		}
	}
}

func TestJumpTableEntriesResolve(t *testing.T) {
	res, err := Compile(demoSpec(), Config{Opt: synth.O2})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := elf.NewFile(bytes.NewReader(res.Image))
	defer f.Close()
	text, _ := f.Section(".text").Data()

	// Every BTI j site recorded in the GT must decode as BTI j.
	jCount := 0
	for _, e := range res.GT.Endbrs {
		if e.Role != groundtruth.RoleJumpTarget {
			continue
		}
		jCount++
		off := e.Addr - res.TextAddr
		word := uint32(text[off]) | uint32(text[off+1])<<8 |
			uint32(text[off+2])<<16 | uint32(text[off+3])<<24
		inst := arm64.Decode(word, e.Addr)
		if inst.Class != arm64.ClassBTI || !inst.BTI.AcceptsJump() {
			t.Errorf("GT j-site %#x decodes as %v", e.Addr, inst.Class)
		}
	}
	if jCount != 3 {
		t.Errorf("expected 3 BTI j sites (switch cases), got %d", jCount)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.Label("x")
	b.Label("x")
	if _, err := b.Finalize(0); err == nil {
		t.Error("duplicate label must fail")
	}
	b2 := NewBuilder()
	b2.BL("nowhere")
	if _, err := b2.Finalize(0); err == nil {
		t.Error("undefined label must fail")
	}
}

func TestEncoderWords(t *testing.T) {
	b := NewBuilder()
	b.BTI(1)
	b.Paciasp()
	b.Nop()
	b.StpPre()
	b.MovSPToFP()
	b.LdpPost()
	b.Ret()
	b.BR(X9)
	b.BLR(X16)
	code, err := b.Finalize(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{
		0xD503245F, 0xD503233F, 0xD503201F,
		0xA9BF7BFD, 0x910003FD, 0xA8C17BFD,
		0xD65F03C0, 0xD61F0120, 0xD63F0200,
	}
	for i, w := range want {
		got := uint32(code[i*4]) | uint32(code[i*4+1])<<8 |
			uint32(code[i*4+2])<<16 | uint32(code[i*4+3])<<24
		if got != w {
			t.Errorf("word %d = %#08x, want %#08x", i, got, w)
		}
	}
}

func TestBranchFixupRoundtrip(t *testing.T) {
	b := NewBuilder()
	b.Label("top")
	b.BL("fn")
	b.B("top")
	b.Label("fn")
	b.BTI(1)
	b.Ret()
	code, err := b.Finalize(0x401000)
	if err != nil {
		t.Fatal(err)
	}
	var insts []arm64.Inst
	arm64.LinearSweep(context.Background(), code, 0x401000, func(i arm64.Inst) bool {
		insts = append(insts, i)
		return true
	})
	if insts[0].Class != arm64.ClassBL || insts[0].Target != 0x401008 {
		t.Errorf("bl = %+v", insts[0])
	}
	if insts[1].Class != arm64.ClassB || insts[1].Target != 0x401000 {
		t.Errorf("b = %+v", insts[1])
	}
}

func TestConfigString(t *testing.T) {
	if (Config{Opt: synth.O2}).String() != "arm64-bti-O2" {
		t.Error("config string changed")
	}
	if (Config{Opt: synth.O3, PAC: true}).String() != "arm64-bti+pac-O3" {
		t.Error("PAC config string changed")
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	if _, err := Compile(&synth.ProgSpec{}, Config{Opt: synth.O2}); err == nil {
		t.Error("empty spec must fail")
	}
}
