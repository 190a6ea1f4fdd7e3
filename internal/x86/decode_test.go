package x86

import (
	"testing"
)

// decodeCase is one known encoding with its expected length and class.
type decodeCase struct {
	name   string
	code   []byte
	mode   Mode
	length int
	class  Class
	target uint64 // checked when nonzero or wantTgt set
	addr   uint64
}

func runDecodeCases(t *testing.T, cases []decodeCase) {
	t.Helper()
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			inst, err := Decode(tt.code, tt.addr, tt.mode)
			if err != nil {
				t.Fatalf("Decode(% x): %v", tt.code, err)
			}
			if inst.Len != tt.length {
				t.Errorf("Len = %d, want %d", inst.Len, tt.length)
			}
			if inst.Class != tt.class {
				t.Errorf("Class = %v, want %v", inst.Class, tt.class)
			}
			if tt.target != 0 {
				if !inst.HasTarget {
					t.Fatalf("HasTarget = false, want target %#x", tt.target)
				}
				if inst.Target != tt.target {
					t.Errorf("Target = %#x, want %#x", inst.Target, tt.target)
				}
			}
		})
	}
}

func TestDecodeCET(t *testing.T) {
	runDecodeCases(t, []decodeCase{
		{name: "endbr64", code: []byte{0xF3, 0x0F, 0x1E, 0xFA}, mode: Mode64, length: 4, class: ClassEndbr64},
		{name: "endbr32", code: []byte{0xF3, 0x0F, 0x1E, 0xFB}, mode: Mode32, length: 4, class: ClassEndbr32},
		{name: "endbr64-in-32bit-mode", code: []byte{0xF3, 0x0F, 0x1E, 0xFA}, mode: Mode32, length: 4, class: ClassEndbr64},
		// 0F 1E with a different ModRM is a hint NOP, not an end branch.
		{name: "hint-nop-not-endbr", code: []byte{0xF3, 0x0F, 0x1E, 0xC0}, mode: Mode64, length: 4, class: ClassOther},
		// Without the F3 prefix, 0F 1E is a plain reserved NOP form.
		{name: "no-f3-not-endbr", code: []byte{0x0F, 0x1E, 0xFA}, mode: Mode64, length: 3, class: ClassOther},
	})
}

func TestDecodeBranches(t *testing.T) {
	runDecodeCases(t, []decodeCase{
		{name: "call-rel32", code: []byte{0xE8, 0x10, 0x00, 0x00, 0x00}, mode: Mode64, length: 5, class: ClassCallRel, addr: 0x1000, target: 0x1015},
		{name: "call-rel32-negative", code: []byte{0xE8, 0xFB, 0xFF, 0xFF, 0xFF}, mode: Mode64, length: 5, class: ClassCallRel, addr: 0x1000, target: 0x1000},
		{name: "jmp-rel32", code: []byte{0xE9, 0x00, 0x01, 0x00, 0x00}, mode: Mode64, length: 5, class: ClassJmpRel, addr: 0x2000, target: 0x2105},
		{name: "jmp-rel8", code: []byte{0xEB, 0x05}, mode: Mode64, length: 2, class: ClassJmpRel, addr: 0x2000, target: 0x2007},
		{name: "jmp-rel8-backward", code: []byte{0xEB, 0xFE}, mode: Mode64, length: 2, class: ClassJmpRel, addr: 0x2000, target: 0x2000},
		{name: "je-rel8", code: []byte{0x74, 0x08}, mode: Mode64, length: 2, class: ClassJccRel, addr: 0x100, target: 0x10A},
		{name: "jne-rel32", code: []byte{0x0F, 0x85, 0x00, 0x02, 0x00, 0x00}, mode: Mode64, length: 6, class: ClassJccRel, addr: 0x100, target: 0x306},
		{name: "call-rel32-x86", code: []byte{0xE8, 0x10, 0x00, 0x00, 0x00}, mode: Mode32, length: 5, class: ClassCallRel, addr: 0x1000, target: 0x1015},
		{name: "call-rel-wraps-in-32bit", code: []byte{0xE8, 0xF0, 0xFF, 0xFF, 0xFF}, mode: Mode32, length: 5, class: ClassCallRel, addr: 0x2, target: 0xFFFFFFF7},
		{name: "loop", code: []byte{0xE2, 0xFC}, mode: Mode64, length: 2, class: ClassJccRel, addr: 0x10, target: 0xE},
		{name: "ret", code: []byte{0xC3}, mode: Mode64, length: 1, class: ClassRet},
		{name: "ret-imm16", code: []byte{0xC2, 0x08, 0x00}, mode: Mode64, length: 3, class: ClassRet},
		{name: "retf", code: []byte{0xCB}, mode: Mode64, length: 1, class: ClassRet},
	})
}

func TestDecodeIndirectBranches(t *testing.T) {
	runDecodeCases(t, []decodeCase{
		{name: "call-rax", code: []byte{0xFF, 0xD0}, mode: Mode64, length: 2, class: ClassCallInd},
		{name: "jmp-rdx", code: []byte{0xFF, 0xE2}, mode: Mode64, length: 2, class: ClassJmpInd},
		{name: "jmp-mem-rip", code: []byte{0xFF, 0x25, 0x10, 0x00, 0x00, 0x00}, mode: Mode64, length: 6, class: ClassJmpInd},
		{name: "call-mem-rip", code: []byte{0xFF, 0x15, 0x10, 0x00, 0x00, 0x00}, mode: Mode64, length: 6, class: ClassCallInd},
		{name: "push-rm-not-branch", code: []byte{0xFF, 0xF0}, mode: Mode64, length: 2, class: ClassOther},
		{name: "inc-rm-not-branch", code: []byte{0xFF, 0xC0}, mode: Mode64, length: 2, class: ClassOther},
		{name: "jmp-mem-abs-x86", code: []byte{0xFF, 0x24, 0x85, 0x00, 0x10, 0x40, 0x00}, mode: Mode32, length: 7, class: ClassJmpInd},
	})
}

func TestDecodeNotrack(t *testing.T) {
	inst, err := Decode([]byte{0x3E, 0xFF, 0xE2}, 0, Mode64)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Class != ClassJmpInd || !inst.Notrack {
		t.Fatalf("got class %v notrack %v, want jmp-ind with notrack", inst.Class, inst.Notrack)
	}
	if inst.Len != 3 {
		t.Fatalf("Len = %d, want 3", inst.Len)
	}
	// A 3E prefix on a non-branch is just a segment override.
	inst, err = Decode([]byte{0x3E, 0x89, 0x03}, 0, Mode64)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Notrack {
		t.Fatal("mov should not be marked notrack")
	}
}

func TestDecodeRIPRelative(t *testing.T) {
	// lea rax, [rip+0x20] at 0x1000: next = 0x1007, ref = 0x1027.
	inst, err := Decode([]byte{0x48, 0x8D, 0x05, 0x20, 0x00, 0x00, 0x00}, 0x1000, Mode64)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Len != 7 {
		t.Fatalf("Len = %d, want 7", inst.Len)
	}
	if !inst.HasRIPRef || inst.RIPRef != 0x1027 {
		t.Fatalf("RIPRef = (%v, %#x), want 0x1027", inst.HasRIPRef, inst.RIPRef)
	}
	// Negative displacement.
	inst, err = Decode([]byte{0x48, 0x8B, 0x0D, 0xF9, 0xFF, 0xFF, 0xFF}, 0x1000, Mode64)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.HasRIPRef || inst.RIPRef != 0x1000 {
		t.Fatalf("RIPRef = (%v, %#x), want 0x1000", inst.HasRIPRef, inst.RIPRef)
	}
	// In 32-bit mode, mod=00 rm=101 is an absolute disp32, not RIP-relative.
	inst, err = Decode([]byte{0x8B, 0x0D, 0x00, 0x10, 0x40, 0x00}, 0x1000, Mode32)
	if err != nil {
		t.Fatal(err)
	}
	if inst.HasRIPRef {
		t.Fatal("32-bit mode must not produce a RIP reference")
	}
	if !inst.HasMemDisp || inst.MemDisp != 0x401000 {
		t.Fatalf("MemDisp = (%v, %#x), want 0x401000", inst.HasMemDisp, inst.MemDisp)
	}
}

func TestDecodeLengthsCommon(t *testing.T) {
	runDecodeCases(t, []decodeCase{
		{name: "push-rbp", code: []byte{0x55}, mode: Mode64, length: 1, class: ClassOther},
		{name: "mov-rbp-rsp", code: []byte{0x48, 0x89, 0xE5}, mode: Mode64, length: 3, class: ClassOther},
		{name: "sub-rsp-imm8", code: []byte{0x48, 0x83, 0xEC, 0x10}, mode: Mode64, length: 4, class: ClassOther},
		{name: "sub-rsp-imm32", code: []byte{0x48, 0x81, 0xEC, 0x00, 0x01, 0x00, 0x00}, mode: Mode64, length: 7, class: ClassOther},
		{name: "mov-eax-imm32", code: []byte{0xB8, 0x01, 0x00, 0x00, 0x00}, mode: Mode64, length: 5, class: ClassOther},
		{name: "mov-rax-imm64", code: []byte{0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8}, mode: Mode64, length: 10, class: ClassOther},
		{name: "mov-ax-imm16", code: []byte{0x66, 0xB8, 0x01, 0x00}, mode: Mode64, length: 4, class: ClassOther},
		{name: "nop", code: []byte{0x90}, mode: Mode64, length: 1, class: ClassNop},
		{name: "nop-66", code: []byte{0x66, 0x90}, mode: Mode64, length: 2, class: ClassNop},
		{name: "pause-not-nop", code: []byte{0xF3, 0x90}, mode: Mode64, length: 2, class: ClassOther},
		{name: "xchg-r8-not-nop", code: []byte{0x41, 0x90}, mode: Mode64, length: 2, class: ClassOther},
		{name: "nop-multi-4", code: []byte{0x0F, 0x1F, 0x40, 0x00}, mode: Mode64, length: 4, class: ClassNop},
		{name: "nop-multi-8", code: []byte{0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00}, mode: Mode64, length: 8, class: ClassNop},
		{name: "nop-word-9", code: []byte{0x66, 0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00}, mode: Mode64, length: 9, class: ClassNop},
		{name: "int3", code: []byte{0xCC}, mode: Mode64, length: 1, class: ClassInt3},
		{name: "leave", code: []byte{0xC9}, mode: Mode64, length: 1, class: ClassLeave},
		{name: "hlt", code: []byte{0xF4}, mode: Mode64, length: 1, class: ClassHlt},
		{name: "ud2", code: []byte{0x0F, 0x0B}, mode: Mode64, length: 2, class: ClassUD},
		{name: "test-eax-eax", code: []byte{0x85, 0xC0}, mode: Mode64, length: 2, class: ClassOther},
		{name: "test-rm-imm", code: []byte{0xF7, 0xC0, 0x01, 0x00, 0x00, 0x00}, mode: Mode64, length: 6, class: ClassOther},
		{name: "not-rm-no-imm", code: []byte{0xF7, 0xD0}, mode: Mode64, length: 2, class: ClassOther},
		{name: "neg-mem-no-imm", code: []byte{0xF7, 0x5D, 0xFC}, mode: Mode64, length: 3, class: ClassOther},
		{name: "lea-sib-disp32", code: []byte{0x8D, 0x84, 0x88, 0x00, 0x01, 0x00, 0x00}, mode: Mode64, length: 7, class: ClassOther},
		{name: "mov-moffs-64", code: []byte{0xA1, 1, 2, 3, 4, 5, 6, 7, 8}, mode: Mode64, length: 9, class: ClassOther},
		{name: "mov-moffs-32", code: []byte{0xA1, 1, 2, 3, 4}, mode: Mode32, length: 5, class: ClassOther},
		{name: "enter", code: []byte{0xC8, 0x10, 0x00, 0x00}, mode: Mode64, length: 4, class: ClassOther},
		{name: "syscall", code: []byte{0x0F, 0x05}, mode: Mode64, length: 2, class: ClassOther},
		{name: "cpuid", code: []byte{0x0F, 0xA2}, mode: Mode64, length: 2, class: ClassOther},
		{name: "movzx", code: []byte{0x0F, 0xB6, 0xC0}, mode: Mode64, length: 3, class: ClassOther},
		{name: "imul-3op-imm8", code: []byte{0x6B, 0xC0, 0x08}, mode: Mode64, length: 3, class: ClassOther},
		{name: "imul-3op-imm32", code: []byte{0x69, 0xC0, 0x00, 0x01, 0x00, 0x00}, mode: Mode64, length: 6, class: ClassOther},
		{name: "shld-imm8", code: []byte{0x0F, 0xA4, 0xC2, 0x04}, mode: Mode64, length: 4, class: ClassOther},
		{name: "bt-imm8", code: []byte{0x0F, 0xBA, 0xE0, 0x07}, mode: Mode64, length: 4, class: ClassOther},
		{name: "bswap", code: []byte{0x0F, 0xC8}, mode: Mode64, length: 2, class: ClassOther},
		{name: "x87-fadd", code: []byte{0xD8, 0x03}, mode: Mode64, length: 2, class: ClassOther},
		{name: "x87-fld-mem", code: []byte{0xDD, 0x45, 0xF8}, mode: Mode64, length: 3, class: ClassOther},
		{name: "push-imm32", code: []byte{0x68, 0x10, 0x20, 0x30, 0x40}, mode: Mode64, length: 5, class: ClassOther},
		{name: "push-imm8", code: []byte{0x6A, 0x01}, mode: Mode64, length: 2, class: ClassOther},
		{name: "push-imm16-66", code: []byte{0x66, 0x68, 0x10, 0x20}, mode: Mode32, length: 4, class: ClassOther},
		{name: "movsxd", code: []byte{0x48, 0x63, 0xC7}, mode: Mode64, length: 3, class: ClassOther},
		{name: "cmp-al-imm8", code: []byte{0x3C, 0x41}, mode: Mode64, length: 2, class: ClassOther},
		{name: "cmp-eax-imm32", code: []byte{0x3D, 0x00, 0x01, 0x00, 0x00}, mode: Mode64, length: 5, class: ClassOther},
	})
}

func TestDecode32BitSpecific(t *testing.T) {
	runDecodeCases(t, []decodeCase{
		{name: "inc-eax", code: []byte{0x40}, mode: Mode32, length: 1, class: ClassOther},
		{name: "dec-edi", code: []byte{0x4F}, mode: Mode32, length: 1, class: ClassOther},
		{name: "pusha", code: []byte{0x60}, mode: Mode32, length: 1, class: ClassOther},
		{name: "les", code: []byte{0xC4, 0x00}, mode: Mode32, length: 2, class: ClassOther},
		{name: "lds", code: []byte{0xC5, 0x03}, mode: Mode32, length: 2, class: ClassOther},
		{name: "bound", code: []byte{0x62, 0x02}, mode: Mode32, length: 2, class: ClassOther},
		{name: "arpl", code: []byte{0x63, 0xC8}, mode: Mode32, length: 2, class: ClassOther},
		{name: "callf-ptr32", code: []byte{0x9A, 1, 2, 3, 4, 5, 6}, mode: Mode32, length: 7, class: ClassOther},
		{name: "jmp-rel16-with-66", code: []byte{0x66, 0xE9, 0x10, 0x00}, mode: Mode32, length: 4, class: ClassJmpRel},
		{name: "aam", code: []byte{0xD4, 0x0A}, mode: Mode32, length: 2, class: ClassOther},
		{name: "addr16-mov", code: []byte{0x67, 0x8B, 0x46, 0x04}, mode: Mode32, length: 4, class: ClassOther},
		{name: "addr16-disp16", code: []byte{0x67, 0x8B, 0x06, 0x34, 0x12}, mode: Mode32, length: 5, class: ClassOther},
		{name: "get-pc-thunk-body", code: []byte{0x8B, 0x0C, 0x24}, mode: Mode32, length: 3, class: ClassOther},
	})
}

func TestDecodeInvalidIn64(t *testing.T) {
	invalid := [][]byte{
		{0x06},                   // push es
		{0x27},                   // daa
		{0x60},                   // pusha
		{0x9A, 1, 2, 3, 4, 5, 6}, // callf
		{0xCE},                   // into
		{0xD4, 0x0A},             // aam
		{0x0F, 0x24, 0xC0},       // mov tr
	}
	for _, code := range invalid {
		if _, err := Decode(code, 0, Mode64); err == nil {
			t.Errorf("Decode(% x) in 64-bit mode succeeded, want error", code)
		}
	}
}

func TestDecodeVEX(t *testing.T) {
	runDecodeCases(t, []decodeCase{
		// vzeroupper: C5 F8 77
		{name: "vzeroupper", code: []byte{0xC5, 0xF8, 0x77}, mode: Mode64, length: 3, class: ClassOther},
		// vmovaps xmm0, xmm1: C5 F8 28 C1
		{name: "vmovaps", code: []byte{0xC5, 0xF8, 0x28, 0xC1}, mode: Mode64, length: 4, class: ClassOther},
		// vpaddd ymm0,ymm1,ymm2 (VEX3, map 0F): C4 E1 75 FE C2
		{name: "vpaddd-vex3", code: []byte{0xC4, 0xE1, 0x75, 0xFE, 0xC2}, mode: Mode64, length: 5, class: ClassOther},
		// vpshufb (map 0F38): C4 E2 71 00 C2
		{name: "vpshufb", code: []byte{0xC4, 0xE2, 0x71, 0x00, 0xC2}, mode: Mode64, length: 5, class: ClassOther},
		// vpalignr (map 0F3A, imm8): C4 E3 71 0F C2 04
		{name: "vpalignr", code: []byte{0xC4, 0xE3, 0x71, 0x0F, 0xC2, 0x04}, mode: Mode64, length: 6, class: ClassOther},
		// VEX in 32-bit mode requires modrm-like byte >= 0xC0.
		{name: "vex2-in-32bit", code: []byte{0xC5, 0xF8, 0x77}, mode: Mode32, length: 3, class: ClassOther},
		// EVEX: 62 F1 7C 48 28 C1 (vmovaps zmm0, zmm1)
		{name: "evex-vmovaps", code: []byte{0x62, 0xF1, 0x7C, 0x48, 0x28, 0xC1}, mode: Mode64, length: 6, class: ClassOther},
		// EVEX with disp8: 62 F1 7C 48 28 40 01
		{name: "evex-disp8", code: []byte{0x62, 0xF1, 0x7C, 0x48, 0x28, 0x40, 0x01}, mode: Mode64, length: 7, class: ClassOther},
	})
}

func TestDecodeTruncated(t *testing.T) {
	truncated := [][]byte{
		{},
		{0xE8},
		{0xE8, 0x00, 0x00},
		{0x48},
		{0x0F},
		{0xF3, 0x0F, 0x1E},
		{0xFF},
		{0x8B, 0x84},
		{0x8B, 0x84, 0x88, 0x00, 0x01},
		{0xC4, 0xE2},
		{0x62, 0xF1, 0x7C},
	}
	for _, code := range truncated {
		if _, err := Decode(code, 0, Mode64); err == nil {
			t.Errorf("Decode(% x) succeeded, want truncation error", code)
		}
	}
}

func TestDecodeTooLong(t *testing.T) {
	// 14 operand-size prefixes followed by a two-byte instruction exceeds
	// the 15-byte limit.
	code := make([]byte, 0, 17)
	for i := 0; i < 14; i++ {
		code = append(code, 0x66)
	}
	code = append(code, 0x89, 0xC8)
	if _, err := Decode(code, 0, Mode64); err == nil {
		t.Fatal("want error for >15 byte instruction")
	}
}

func TestDecodeRexHandling(t *testing.T) {
	// REX followed by a legacy prefix is dead; the 66 still applies.
	inst, err := Decode([]byte{0x48, 0x66, 0xB8, 0x01, 0x00}, 0, Mode64)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Len != 5 {
		t.Fatalf("Len = %d, want 5 (dead REX, imm16)", inst.Len)
	}
	// Two REX prefixes: only the last one counts.
	inst, err = Decode([]byte{0x40, 0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8}, 0, Mode64)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Len != 11 {
		t.Fatalf("Len = %d, want 11 (REX.W imm64)", inst.Len)
	}
}

func TestLinearSweepResync(t *testing.T) {
	// A valid mov, one junk byte invalid in 64-bit mode (0x06 = push es),
	// then a ret. The sweep must skip exactly the junk byte and
	// resynchronize on the ret.
	code := []byte{
		0xB8, 0x01, 0x00, 0x00, 0x00, // mov eax, 1
		0x06, // invalid in 64-bit mode
		0xC3, // ret
	}
	var classes []Class
	skipped := LinearSweep(code, 0x1000, Mode64, func(inst *Inst) bool {
		classes = append(classes, inst.Class)
		return true
	})
	if skipped == 0 {
		t.Fatal("expected skipped bytes for undefined opcode")
	}
	if len(classes) == 0 || classes[len(classes)-1] != ClassRet {
		t.Fatalf("sweep did not recover to the trailing ret: %v", classes)
	}
}

func TestLinearSweepStop(t *testing.T) {
	code := []byte{0x90, 0x90, 0x90}
	n := 0
	LinearSweep(code, 0, Mode64, func(*Inst) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("sweep visited %d instructions, want 2 (early stop)", n)
	}
}

func TestLinearSweepContiguous(t *testing.T) {
	code := []byte{
		0xF3, 0x0F, 0x1E, 0xFA, // endbr64
		0x55,             // push rbp
		0x48, 0x89, 0xE5, // mov rbp, rsp
		0xE8, 0x00, 0x00, 0x00, 0x00, // call
		0xC9, // leave
		0xC3, // ret
	}
	var insts []Inst
	LinearSweep(code, 0x400000, Mode64, func(inst *Inst) bool {
		insts = append(insts, *inst)
		return true
	})
	if len(insts) != 6 {
		t.Fatalf("got %d instructions, want 6", len(insts))
	}
	// Verify contiguity.
	next := uint64(0x400000)
	for _, inst := range insts {
		if inst.Addr != next {
			t.Fatalf("gap: inst at %#x, expected %#x", inst.Addr, next)
		}
		next = inst.Next()
	}
	if insts[0].Class != ClassEndbr64 {
		t.Errorf("first inst class = %v, want endbr64", insts[0].Class)
	}
	if insts[3].Class != ClassCallRel || insts[3].Target != insts[4].Addr {
		t.Errorf("call target = %#x, want %#x", insts[3].Target, insts[4].Addr)
	}
}

func TestModeString(t *testing.T) {
	if Mode32.String() != "x86" || Mode64.String() != "x86-64" {
		t.Fatal("unexpected mode names")
	}
	if Mode(0).String() == "" {
		t.Fatal("unknown mode must still render")
	}
}

func TestDecodeRejectsBadMode(t *testing.T) {
	if _, err := Decode([]byte{0x90}, 0, Mode(16)); err == nil {
		t.Fatal("want error for unsupported mode")
	}
}

func TestInstAccessors(t *testing.T) {
	inst, err := Decode([]byte{0xFF, 0xE2}, 0x10, Mode64)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Mod() != 3 || inst.Reg() != 4 || inst.RM() != 2 {
		t.Fatalf("modrm fields = %d/%d/%d, want 3/4/2", inst.Mod(), inst.Reg(), inst.RM())
	}
	if inst.Next() != 0x12 {
		t.Fatalf("Next = %#x, want 0x12", inst.Next())
	}
	if !inst.Class.IsBranch() {
		t.Fatal("jmp-ind must be a branch class")
	}
	if ClassNop.IsBranch() {
		t.Fatal("nop must not be a branch class")
	}
	endbr, err := Decode([]byte{0xF3, 0x0F, 0x1E, 0xFA}, 0, Mode64)
	if err != nil {
		t.Fatal(err)
	}
	if !endbr.IsEndbr() {
		t.Fatal("endbr64 must report IsEndbr")
	}
}
