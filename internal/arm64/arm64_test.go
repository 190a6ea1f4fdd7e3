package arm64

import (
	"context"
	"errors"
	"testing"
)

func TestDecodeKnown(t *testing.T) {
	tests := []struct {
		name   string
		word   uint32
		addr   uint64
		class  Class
		bti    BTIKind
		target uint64
	}{
		{name: "bti", word: 0xD503241F, class: ClassBTI, bti: BTINone},
		{name: "bti-c", word: 0xD503245F, class: ClassBTI, bti: BTIC},
		{name: "bti-j", word: 0xD503249F, class: ClassBTI, bti: BTIJ},
		{name: "bti-jc", word: 0xD50324DF, class: ClassBTI, bti: BTIJC},
		{name: "paciasp", word: 0xD503233F, class: ClassPACIASP},
		{name: "pacibsp", word: 0xD503237F, class: ClassPACIASP},
		{name: "nop", word: 0xD503201F, class: ClassNop},
		{name: "bl-forward", word: 0x94000004, addr: 0x1000, class: ClassBL, target: 0x1010},
		{name: "bl-backward", word: 0x97FFFFFF, addr: 0x1000, class: ClassBL, target: 0xFFC},
		{name: "b-forward", word: 0x14000002, addr: 0x2000, class: ClassB, target: 0x2008},
		{name: "b-eq", word: 0x54000040, addr: 0x100, class: ClassBCond, target: 0x108},
		{name: "b-cond-backward", word: 0x54FFFFE0, addr: 0x100, class: ClassBCond, target: 0x100 - 4},
		{name: "cbz-x0", word: 0xB4000040, addr: 0, class: ClassBCond, target: 8},
		{name: "cbnz-w1", word: 0x35000061, addr: 0, class: ClassBCond, target: 12},
		{name: "tbz", word: 0x36000040, addr: 0x10, class: ClassBCond, target: 0x18},
		{name: "ret", word: 0xD65F03C0, class: ClassRet},
		{name: "ret-x1", word: 0xD65F0020, class: ClassRet},
		{name: "br-x9", word: 0xD61F0120, class: ClassBR},
		{name: "blr-x16", word: 0xD63F0200, class: ClassBLR},
		{name: "udf", word: 0x00000000, class: ClassUDF},
		{name: "add-imm", word: 0x91000400, class: ClassOther},
		{name: "movz", word: 0xD2800020, class: ClassOther},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			inst := Decode(tt.word, tt.addr)
			if inst.Class != tt.class {
				t.Fatalf("class = %v, want %v", inst.Class, tt.class)
			}
			if tt.class == ClassBTI && inst.BTI != tt.bti {
				t.Errorf("bti kind = %v, want %v", inst.BTI, tt.bti)
			}
			if tt.target != 0 {
				if !inst.HasTarget || inst.Target != tt.target {
					t.Errorf("target = (%v, %#x), want %#x", inst.HasTarget, inst.Target, tt.target)
				}
			}
			if inst.Next() != tt.addr+4 {
				t.Errorf("Next = %#x", inst.Next())
			}
		})
	}
}

func TestBTIKindPredicates(t *testing.T) {
	if !BTIC.AcceptsCall() || BTIC.AcceptsJump() {
		t.Error("BTI c predicates wrong")
	}
	if BTIJ.AcceptsCall() || !BTIJ.AcceptsJump() {
		t.Error("BTI j predicates wrong")
	}
	if !BTIJC.AcceptsCall() || !BTIJC.AcceptsJump() {
		t.Error("BTI jc predicates wrong")
	}
	if BTINone.AcceptsCall() || BTINone.AcceptsJump() {
		t.Error("plain BTI predicates wrong")
	}
	for k, want := range map[BTIKind]string{BTINone: "bti", BTIC: "bti c", BTIJ: "bti j", BTIJC: "bti jc"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestLinearSweep(t *testing.T) {
	// bti c; bl +8; ret — little-endian words.
	words := []uint32{0xD503245F, 0x94000002, 0xD65F03C0}
	var code []byte
	for _, w := range words {
		code = append(code, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	var classes []Class
	LinearSweep(context.Background(), code, 0x1000, func(inst Inst) bool {
		classes = append(classes, inst.Class)
		return true
	})
	if len(classes) != 3 || classes[0] != ClassBTI || classes[1] != ClassBL || classes[2] != ClassRet {
		t.Fatalf("classes = %v", classes)
	}
	// Early stop.
	n := 0
	LinearSweep(context.Background(), code, 0, func(Inst) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
	// Trailing partial word ignored.
	n = 0
	LinearSweep(context.Background(), append(code, 0xAA), 0, func(Inst) bool { n++; return true })
	if n != 3 {
		t.Fatalf("partial word handling: %d", n)
	}
	// A done context stops the sweep before its first word.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n = 0
	if err := LinearSweep(ctx, code, 0, func(Inst) bool { n++; return true }); !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("canceled sweep: err=%v after %d words, want context.Canceled after 0", err, n)
	}
}

func TestClassString(t *testing.T) {
	if ClassBTI.String() != "bti" || ClassBL.String() != "bl" {
		t.Error("class names changed")
	}
	if Class(99).String() == "" {
		t.Error("unknown class must render")
	}
}
