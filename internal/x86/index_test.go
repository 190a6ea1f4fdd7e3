package x86

import "testing"

func TestBuildIndexMatchesLinearSweep(t *testing.T) {
	code := []byte{
		0xF3, 0x0F, 0x1E, 0xFA, // endbr64
		0x55,             // push rbp
		0x48, 0x89, 0xE5, // mov rbp, rsp
		0xE8, 0x00, 0x00, 0x00, 0x00, // call +0
		0xC9, // leave
		0xC3, // ret
	}
	idx := BuildIndex(code, 0x4000, Mode64)
	var flat []Inst
	LinearSweep(code, 0x4000, Mode64, func(inst *Inst) bool {
		flat = append(flat, *inst)
		return true
	})
	if len(idx.Insts) != len(flat) {
		t.Fatalf("index has %d instructions, LinearSweep %d", len(idx.Insts), len(flat))
	}
	for i := range flat {
		if idx.Insts[i].Addr != flat[i].Addr || idx.Insts[i].Len != flat[i].Len {
			t.Fatalf("inst %d: index %+v vs sweep %+v", i, idx.Insts[i], flat[i])
		}
	}
	if idx.Skipped != 0 {
		t.Errorf("Skipped = %d on well-formed code", idx.Skipped)
	}
}

func TestIndexAt(t *testing.T) {
	code := []byte{0x90, 0x90, 0xC3} // nop; nop; ret
	idx := BuildIndex(code, 0x100, Mode64)
	if inst, ok := idx.At(0x101); !ok || inst.Class != ClassNop {
		t.Errorf("At(0x101) = %+v, %v", inst, ok)
	}
	if _, ok := idx.At(0x103); ok {
		t.Error("At past the end must miss")
	}
	if _, ok := idx.At(0x0FF); ok {
		t.Error("At before the base must miss")
	}
}

func TestIndexRange(t *testing.T) {
	code := []byte{0x90, 0x90, 0x90, 0x90, 0xC3}
	idx := BuildIndex(code, 0x100, Mode64)
	if got := idx.Range(0x101, 0x104); len(got) != 3 {
		t.Errorf("Range(0x101,0x104) returned %d instructions, want 3", len(got))
	}
	if got := idx.Range(0x104, 0x104); got != nil {
		t.Errorf("empty range returned %d instructions", len(got))
	}
	if got := idx.Range(0x0, 0x1000); len(got) != 5 {
		t.Errorf("covering range returned %d instructions, want 5", len(got))
	}
}
