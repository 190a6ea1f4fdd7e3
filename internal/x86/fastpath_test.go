package x86

import (
	"math/rand"
	"testing"
)

// checkFastPath asserts the fast path's two layers on the encoding at the
// front of code: when the core accepts, DecodeInto's Inst is bit-identical
// to the full decoder's, its Len, Class and Target are the core's, and
// HasTarget holds exactly for the direct-branch classes. It reports
// whether the core accepted.
func checkFastPath(t testing.TB, code []byte, addr uint64, mode Mode) bool {
	t.Helper()
	n, class, target, ok := scan(code, addr, mode, nil)
	if !ok {
		return false
	}
	show := code[:min(len(code), 16)]
	var fast, slow Inst
	if err := DecodeInto(code, addr, mode, &fast); err != nil {
		t.Fatalf("mode %v bytes % x: core accepted, DecodeInto failed: %v", mode, show, err)
	}
	if err := decodeSlow(code, addr, mode, &slow); err != nil {
		t.Fatalf("mode %v bytes % x: fast path accepted what the full decoder rejects: %v", mode, show, err)
	}
	if fast != slow {
		t.Fatalf("mode %v bytes % x:\nfast %+v\nslow %+v", mode, show, fast, slow)
	}
	if n != fast.Len || class != fast.Class || target != fast.Target {
		t.Fatalf("mode %v bytes % x: core (len %d, %v, target %#x), DecodeInto (len %d, %v, target %#x)",
			mode, show, n, class, target, fast.Len, fast.Class, fast.Target)
	}
	rel := class == ClassCallRel || class == ClassJmpRel || class == ClassJccRel
	if fast.HasTarget != rel {
		t.Fatalf("mode %v bytes % x: class %v with HasTarget %v", mode, show, class, fast.HasTarget)
	}
	return true
}

// TestFastPathMatchesFullDecode is the fast path's defining invariant:
// every byte sequence the core accepts decodes, through DecodeInto's
// detail layer, to an Inst bit-identical to the full decoder's, with the
// core's length, class and target. Driven over random byte soup and
// compiler-shaped text, in both modes, at every offset and at every
// truncation of a compiler-shaped instruction.
func TestFastPathMatchesFullDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	buffers := make([][]byte, 0, 64)
	for i := 0; i < 24; i++ {
		buf := make([]byte, 64+rng.Intn(512))
		rng.Read(buf)
		buffers = append(buffers, buf)
	}
	for _, mode := range []Mode{Mode32, Mode64} {
		buffers = append(buffers,
			GenText(4096, mode, rng, 0),
			GenText(4096, mode, rng, 0.2))
	}
	const addr = 0x401000
	checked := 0
	for _, mode := range []Mode{Mode32, Mode64} {
		for _, buf := range buffers {
			for off := 0; off < len(buf); off++ {
				if checkFastPath(t, buf[off:], addr+uint64(off), mode) {
					checked++
				}
			}
		}
		// Truncations: the core declines a cut-short encoding exactly
		// when the full decoder reports it truncated.
		text := GenText(1024, mode, rng, 0)
		for off := 0; off+15 < len(text); off += 7 {
			for cut := 0; cut <= 15; cut++ {
				code := text[off : off+cut]
				if !checkFastPath(t, code, addr, mode) {
					if _, _, _, ok := scan(text[off:], addr, mode, nil); ok {
						if _, err := Decode(code, addr, mode); err != ErrTruncated {
							t.Fatalf("mode %v % x: core declined a truncation the full decoder reports as %v", mode, code, err)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("fast path never engaged")
	}
}

// TestFastPathDeclineSet pins the decline behavior of the two-byte
// table: the escape bytes into maps 3A/38, the undefined map-2 rows,
// every VEX/EVEX-adjacent first byte, prefix runs and dead REX prefixes
// must make the core decline — the slow path is the only decoder allowed
// to judge them. The test then
// confirms the slow path really does own each declined sequence (decode
// or reject, its call — the fast path just must not have an opinion).
func TestFastPathDeclineSet(t *testing.T) {
	const addr = 0x401000
	tail := []byte{0xC0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}

	// Map-2 escapes and undefined rows, with and without an operand-size
	// prefix: three-byte-map instructions share the 0F prefix with the
	// families the fast path accepts, so a table bug here would mis-size
	// every SSE4/SHA instruction in real text.
	declined := [][]byte{
		append([]byte{0x0F, 0x38}, tail...),       // three-byte map 38
		append([]byte{0x0F, 0x3A}, tail...),       // three-byte map 3A (imm8)
		append([]byte{0x66, 0x0F, 0x38}, tail...), // 66-prefixed map 38
		append([]byte{0x0F, 0x04}, tail...),       // undefined map-2 row
		append([]byte{0x0F, 0x0A}, tail...),       // undefined map-2 row
		append([]byte{0x0F, 0xA6}, tail...),       // undefined map-2 row
	}
	// VEX/EVEX-adjacent first bytes: C4/C5/62 open multi-byte prefix
	// forms in some mode/ModRM combinations; the fast path declines them
	// all rather than re-implementing the mode-dependent disambiguation.
	for _, b := range []byte{0xC4, 0xC5, 0x62} {
		declined = append(declined, append([]byte{b}, tail...))
	}
	// Prefix forms other than one 66/F3/F2 ahead of 0F, 66 90, or 3E FF:
	// prefix runs, other prefixed one-byte opcodes (F3 90 is PAUSE), the
	// address-size and other segment prefixes, 3E ahead of anything but
	// FF, and 3E ahead of a REX.
	declined = append(declined,
		[]byte{0x66, 0x66, 0x90},
		[]byte{0xF3, 0x90},
		[]byte{0x66, 0x05, 0x01, 0x02},
		[]byte{0x67, 0x8B, 0x00},
		[]byte{0x2E, 0x8B, 0x00},
		[]byte{0x3E, 0x8B, 0x00},
		[]byte{0x3E, 0x3E, 0xFF, 0xE0},
		[]byte{0x3E, 0x41, 0xFF, 0xE2},
		[]byte{0x3E},
		[]byte{0xF3, 0x48, 0x0F, 0x1E, 0xFA},
	)
	for _, mode := range []Mode{Mode32, Mode64} {
		for _, code := range declined {
			if n, class, _, ok := scan(code, addr, mode, nil); ok {
				t.Errorf("mode %v % x: core accepted a decline-set sequence (len %d, %v)", mode, code, n, class)
				continue
			}
			// The slow path must own the sequence: whatever it says is the
			// DecodeInto result, bit-identical.
			var slow, full Inst
			slowErr := decodeSlow(code, addr, mode, &slow)
			fullErr := DecodeInto(code, addr, mode, &full)
			if (slowErr == nil) != (fullErr == nil) || (slowErr == nil && slow != full) {
				t.Errorf("mode %v % x: DecodeInto diverged from decodeSlow on a declined sequence", mode, code)
			}
		}
	}

	// Mode32 + operand-size Jcc flips relZ to rel16: the one map-2 row
	// whose length is prefix-dependent, and exactly why the fast path
	// declines it in Mode32 while accepting it in Mode64.
	jcc := []byte{0x66, 0x0F, 0x84, 0x10, 0x20, 0x30, 0x40}
	var inst Inst
	if _, _, _, ok := scan(jcc, addr, Mode32, nil); ok {
		t.Errorf("mode32 % x: core accepted 66-prefixed Jcc (rel16 form)", jcc)
	}
	if err := decodeSlow(jcc, addr, Mode32, &inst); err != nil || inst.Len != 5 {
		t.Errorf("mode32 % x: slow path len = %d err = %v, want rel16 len 5", jcc, inst.Len, err)
	}
	if n, _, _, ok := scan(jcc, addr, Mode64, nil); !ok || n != 7 {
		t.Errorf("mode64 % x: core len = %d accepted = %v, want rel32 len 7", jcc, n, ok)
	}

	// In Mode64, 40-4F are REX: a dead REX (followed by a legacy prefix
	// or another REX) and a lone REX decline, while in Mode32 the same
	// bytes are one-byte INC/DEC the core accepts.
	for _, code := range [][]byte{{0x48}, {0x48, 0x66, 0x90}, {0x48, 0x41, 0x90}, {0x40, 0xF0, 0x01, 0x00}} {
		if _, _, _, ok := scan(code, addr, Mode64, nil); ok {
			t.Errorf("mode64 % x: core accepted a lone or dead REX", code)
		}
		if n, _, _, ok := scan(code, addr, Mode32, nil); !ok || n != 1 {
			t.Errorf("mode32 % x: core len = %d accepted = %v, want INC/DEC len 1", code, n, ok)
		}
	}
}

// TestFastPathAcceptSet pins encodings the core must take, with their
// length and class: the shapes the records sweep reads (end branches,
// direct branches), the group-5 indirect branches, REX.B 90 demoted to
// Other, and every ModRM addressing form.
func TestFastPathAcceptSet(t *testing.T) {
	const addr = 0x401000
	cases := []struct {
		code  []byte
		mode  Mode
		n     int
		class Class
	}{
		{[]byte{0xF3, 0x0F, 0x1E, 0xFA}, Mode64, 4, ClassEndbr64},
		{[]byte{0xF3, 0x0F, 0x1E, 0xFB}, Mode32, 4, ClassEndbr32},
		{[]byte{0x0F, 0x1E, 0xFA}, Mode64, 3, ClassOther},       // no F3: a hint NOP
		{[]byte{0xF3, 0x0F, 0x1E, 0xC8}, Mode64, 4, ClassOther}, // rdsspd
		{[]byte{0xE8, 0, 0, 0, 0}, Mode64, 5, ClassCallRel},
		{[]byte{0xE9, 0, 0, 0, 0}, Mode32, 5, ClassJmpRel},
		{[]byte{0xEB, 0xFE}, Mode64, 2, ClassJmpRel},
		{[]byte{0x74, 0x10}, Mode64, 2, ClassJccRel},
		{[]byte{0xE3, 0x10}, Mode32, 2, ClassJccRel}, // jecxz
		{[]byte{0x0F, 0x85, 0, 0, 0, 0}, Mode64, 6, ClassJccRel},
		{[]byte{0x66, 0x0F, 0x85, 0, 0, 0, 0}, Mode64, 7, ClassJccRel},
		{[]byte{0xFF, 0xD0}, Mode64, 2, ClassCallInd},
		{[]byte{0xFF, 0x24, 0xC5, 0, 0, 0, 0}, Mode64, 7, ClassJmpInd},
		{[]byte{0xFF, 0x15, 0, 0, 0, 0}, Mode32, 6, ClassCallInd},
		{[]byte{0xFF, 0xF0}, Mode64, 2, ClassOther}, // push r/m
		// NOTRACK indirect branches, the CET switch dispatch: length and
		// class of the FF form, one byte longer.
		{[]byte{0x3E, 0xFF, 0xE0}, Mode64, 3, ClassJmpInd},
		{[]byte{0x3E, 0xFF, 0xE0}, Mode32, 3, ClassJmpInd},
		{[]byte{0x3E, 0xFF, 0xD1}, Mode64, 3, ClassCallInd},
		{[]byte{0x3E, 0xFF, 0x24, 0x85, 0, 0x10, 0x40, 0}, Mode32, 8, ClassJmpInd}, // absolute table
		{[]byte{0x3E, 0xFF, 0x25, 0, 0, 0, 0}, Mode64, 7, ClassJmpInd},             // RIP-relative
		{[]byte{0x3E, 0xFF, 0x30}, Mode64, 3, ClassOther},                          // push r/m
		{[]byte{0x90}, Mode64, 1, ClassNop},
		{[]byte{0x66, 0x90}, Mode64, 2, ClassNop},
		{[]byte{0x41, 0x90}, Mode64, 2, ClassOther}, // xchg r8d, eax
		{[]byte{0x0F, 0x1F, 0x44, 0x00, 0x00}, Mode64, 5, ClassNop},
		{[]byte{0x0F, 0x0B}, Mode64, 2, ClassUD},
		{[]byte{0xC3}, Mode64, 1, ClassRet},
		{[]byte{0xC2, 0x08, 0x00}, Mode32, 3, ClassRet},
		{[]byte{0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8}, Mode64, 10, ClassOther}, // mov rax, imm64
		{[]byte{0xB8, 1, 2, 3, 4}, Mode64, 5, ClassOther},
		{[]byte{0x8B, 0x04, 0x25, 0, 0, 0, 0}, Mode64, 7, ClassOther},        // SIB, no base
		{[]byte{0x8B, 0x44, 0x24, 0x08}, Mode64, 4, ClassOther},              // SIB + disp8
		{[]byte{0x8B, 0x84, 0x24, 0, 1, 0, 0}, Mode64, 7, ClassOther},        // SIB + disp32
		{[]byte{0x48, 0x8B, 0x05, 0, 0, 0, 0}, Mode64, 7, ClassOther},        // RIP-relative
		{[]byte{0xC7, 0x05, 0, 0, 0, 0, 1, 0, 0, 0}, Mode32, 10, ClassOther}, // absolute + imm32
		{[]byte{0x80, 0x7D, 0xF8, 0x01}, Mode64, 4, ClassOther},              // disp8 + imm8
	}
	for _, tc := range cases {
		n, class, _, ok := scan(tc.code, addr, tc.mode, nil)
		if !ok || n != tc.n || class != tc.class {
			t.Errorf("mode %v % x: core (len %d, %v, accepted %v), want (len %d, %v)",
				tc.mode, tc.code, n, class, ok, tc.n, tc.class)
			continue
		}
		checkFastPath(t, tc.code, addr, tc.mode)
	}
}

// TestFastPathTruncation: the fast path must decline truncated buffers
// rather than mis-size an instruction; Decode then reports ErrTruncated
// through the slow path.
func TestFastPathTruncation(t *testing.T) {
	cases := []struct {
		code  []byte
		modes []Mode
	}{
		{[]byte{0xE8, 0x00, 0x00}, []Mode{Mode32, Mode64}},     // call rel32 cut short
		{[]byte{0x48, 0x8B, 0x45}, []Mode{Mode64}},             // mov rax,[rbp-8] missing disp (0x48 is DEC EAX in 32-bit)
		{[]byte{0x81}, []Mode{Mode32, Mode64}},                 // group-1 immZ missing everything
		{[]byte{0xB8, 0x01}, []Mode{Mode32, Mode64}},           // mov eax, imm32 cut short
		{[]byte{0x48, 0xB8, 0, 0, 0, 0, 0, 0}, []Mode{Mode64}}, // REX.W mov imm64 cut short
		{[]byte{0xFF}, []Mode{Mode32, Mode64}},                 // group 5 without ModRM
		{[]byte{0x48}, []Mode{Mode64}},                         // lone REX
	}
	for _, tc := range cases {
		code := tc.code
		for _, mode := range tc.modes {
			var inst Inst
			full := append(code, make([]byte, 16)...)
			if _, fullErr := Decode(full, 0, mode); fullErr != nil {
				continue // not decodable even complete in this mode
			}
			if err := DecodeInto(code, 0, mode, &inst); err != ErrTruncated {
				t.Errorf("mode %v % x: err = %v, want ErrTruncated", mode, code, err)
			}
		}
	}
}

// TestDecodeIntoReuse: DecodeInto must fully overwrite a dirty Inst so a
// reused scratch value never leaks fields between instructions.
func TestDecodeIntoReuse(t *testing.T) {
	var inst Inst
	if err := DecodeInto([]byte{0xE8, 1, 0, 0, 0}, 0x1000, Mode64, &inst); err != nil {
		t.Fatal(err)
	}
	if !inst.HasTarget || inst.Class != ClassCallRel {
		t.Fatalf("call decoded as %+v", inst)
	}
	if err := DecodeInto([]byte{0x90}, 0x2000, Mode64, &inst); err != nil {
		t.Fatal(err)
	}
	want := Inst{Addr: 0x2000, Len: 1, Class: ClassNop, Opcode: 0x90, OpcodeMap: 1}
	if inst != want {
		t.Fatalf("stale fields leaked into reused Inst:\ngot  %+v\nwant %+v", inst, want)
	}
}
