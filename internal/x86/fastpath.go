package x86

import "fmt"

// The fast path: one table-driven decoder, in two layers, for the opcode
// families that dominate compiler-generated text — push/pop, mov/lea, the
// ALU register forms, test/cmp, shifts, direct call/jmp/jcc, ret, nop,
// int3, the FF indirect-branch group, and, through a second 256-entry
// table dispatched after the 0F escape, the two-byte families (Jcc rel32,
// setcc, cmovcc, movzx/movsx, imul, the 0F 1E/0F 1F hint-NOP rows). An
// optional REX prefix in 64-bit mode, or a single 66/F3/F2 prefix ahead
// of a 0F opcode (endbr64/endbr32 and the scalar SSE mov forms) or of 90,
// is handled too. Profiling the linear sweep shows >95% of decoded
// instructions take one of these shapes.
//
//   - The core layer sizes and classifies an encoding from two tables: a
//     per-opcode length descriptor (opDesc) and a per-ModRM
//     addressing-form table (modrmForm). It reads the length, the class
//     and a direct branch's target — exactly what the records sweep
//     (paper Algorithm 1's DISASSEMBLE) needs — and notes in a cursor
//     where the opcode, ModRM, displacement and immediate sit.
//   - The detail layer is the core plus operand detail: it fills a full
//     Inst by reading the bytes at the cursor positions, re-deciding
//     nothing.
//
// Both layers are one function, scan, whose detail layer runs only when
// it is given an Inst: DecodeInto and LinearSweep pass one, so a decode
// is one call, and the records sweep passes nil, so it never builds an
// Inst for an encoding the core accepts. The contract is strict:
// DecodeInto takes the fast path exactly where the core accepts, and
// there its Inst is bit-identical to the full decoder's, with the core's
// length, class and target. Anything ambiguous — legacy prefixes,
// escapes, VEX/EVEX, mode-dependent validity, truncated buffers — is
// declined and falls back to decodeSlow. TestFastPathMatchesFullDecode,
// FuzzDecode and FuzzDecodeCore enforce it.

// opDesc is one opcode's length descriptor: what follows the opcode byte
// and how the encoding classifies. The zero value declines.
type opDesc struct {
	imm   uint8 // immediate bytes after the addressing form
	rel   uint8 // relative branch displacement bytes (0, 1 or 4)
	flags uint8 // dAccept, dModRM, dImmW, dGroup5, dEndbr
	class uint8 // Class, before the ModRM-selected refinements below
}

// opDesc flags.
const (
	// dAccept marks opcodes the fast path takes.
	dAccept = 1 << iota
	// dModRM marks opcodes followed by a ModRM addressing form.
	dModRM
	// dImmW marks MOV r, iv: the immediate is 8 bytes under REX.W, else imm.
	dImmW
	// dGroup5 marks FF: ModRM /2 is an indirect call, /4 an indirect jump.
	dGroup5
	// dEndbr marks 0F 1E: behind F3, ModRM FA/FB is endbr64/endbr32; any
	// other form stays a reserved hint NOP (ClassOther).
	dEndbr
)

// fastOps maps a first opcode byte (after an optional REX in 64-bit
// mode) to its descriptor, and fastOps2 the second byte of a 0F-escaped
// opcode. Both are derived from the oneByte and twoByte attribute
// tables and opClass, so the fast path and the full decoder agree by
// construction. Entries are valid in both modes: any opcode whose length
// or validity differs between Mode32 and Mode64 — other than 40-4F,
// which the core intercepts as REX before the lookup — declines. The
// escapes decline too: 0F (scan switches to fastOps2) and the 0F 38 /
// 0F 3A three-byte escapes (VEX/EVEX-adjacent territory).
var fastOps, fastOps2 = buildFastOps(), buildFastOps2()

func buildFastOps() [256]opDesc {
	var t [256]opDesc
	for b := range t {
		if b != 0x0F {
			t[b] = fastDesc(oneByte[b], opClass(1, byte(b)))
		}
	}
	t[0xFF].flags |= dGroup5
	return t
}

func buildFastOps2() [256]opDesc {
	var t [256]opDesc
	for b := range t {
		if b != 0x38 && b != 0x3A {
			t[b] = fastDesc(twoByte[b], opClass(2, byte(b)))
		}
	}
	t[0x1E].flags |= dEndbr
	return t
}

// fastDesc is one opcode-map entry's descriptor, or the zero (declining)
// descriptor where its length or validity depends on more than the
// opcode byte: prefix bytes, rows invalid in a mode or undefined, group
// 3's ModRM-selected immediate, and the address-sized, far-pointer and
// ENTER immediates. With no operand-size prefix in play (scan admits 66
// only ahead of 0F and 90), iz immediates and relZ displacements are 4
// bytes, and iv immediates 4, or 8 under REX.W (dImmW).
func fastDesc(info opinfo, class Class) opDesc {
	if info.has(fPrefix | fInval64 | fInval32 | fGroup3 | fUndef) {
		return opDesc{}
	}
	d := opDesc{flags: dAccept, class: uint8(class)}
	if info.has(fModRM) {
		d.flags |= dModRM
	}
	switch info.imm {
	case immNone:
	case imm8:
		d.imm = 1
	case imm16:
		d.imm = 2
	case immZ:
		d.imm = 4
	case immV:
		d.imm = 4
		d.flags |= dImmW
	case rel8:
		d.rel = 1
	case relZ:
		d.rel = 4 // the 16-bit Jcc form (66 0F 8x in Mode32) is declined by scan
	default:
		return opDesc{}
	}
	return d
}

// modrmForm gives, per ModRM byte, the addressing-form bytes that follow
// it in the 32/64-bit form — the fast path never runs under a 67 prefix,
// so the 16-bit form cannot occur: the displacement width (mDisp bits),
// whether a SIB byte comes first (mSIB; with mod 0 a SIB base of 5 adds a
// disp32 and no base register), and whether the form is mod 0 rm 5
// (mRIP: a disp32 that is RIP-relative in 64-bit mode, absolute in
// 32-bit mode).
var modrmForm = buildModRMForm()

// modrmForm bits.
const (
	mDisp = 0x07
	mSIB  = 0x08
	mRIP  = 0x10
)

func buildModRMForm() [256]uint8 {
	var t [256]uint8
	for m := 0; m < 256; m++ {
		mod, rm := m>>6, m&7
		var f uint8
		switch mod {
		case 1:
			f = 1
		case 2:
			f = 4
		}
		switch {
		case mod == 3:
		case rm == 4:
			f |= mSIB
		case mod == 0 && rm == 5:
			f = 4 | mRIP
		}
		t[m] = f
	}
	return t
}

// cursor records where the parts of an accepted encoding sit, packed into
// one word. The detail layer reads operands at these positions.
type cursor uint32

// cursor fields.
const (
	curOpPos  = 0x3  // offset of the opcode byte (0, 1 or 2)
	curPfx    = 0x4  // code[0] is the one legacy prefix
	curMap2   = 0x8  // the opcode is in map 2 (behind 0F)
	curModRM  = 0x10 // a ModRM byte follows the opcode
	curRel    = 0x20 // the trailing bytes are a branch displacement
	curMemRIP = 0x40 // mod 0 rm 5: a disp32 that is RIP-relative in Mode64, absolute in Mode32
	curMemAbs = 0x80 // a SIB with no base: an absolute disp32
)

// scan is the fast path: the core layer's length, class and (for a
// direct branch) target of the encoding at the front of code, and, when
// inst is non-nil, the detail layer's full Inst in *inst. ok is false
// when the encoding needs the full decoder; *inst is then untouched.
func scan(code []byte, addr uint64, mode Mode, inst *Inst) (n int, class Class, target uint64, ok bool) {
	var cur cursor
	if len(code) == 0 {
		return 0, ClassOther, 0, false
	}
	pos := 0
	b := code[0]
	var rex byte
	switch {
	case mode == Mode64 && b&0xF0 == 0x40:
		if len(code) < 2 {
			return 0, ClassOther, 0, false
		}
		nb := code[1]
		if legacyPrefixTab[nb] || nb&0xF0 == 0x40 {
			return 0, ClassOther, 0, false // dead REX: leave prefix bookkeeping to the slow path
		}
		rex, pos, b = b, 1, nb
	case b == 0x66 || b == 0xF3 || b == 0xF2:
		// Single legacy prefix forms. 66 90 is the two-byte NOP; a single
		// 66/F3/F2 ahead of a 0F escape covers endbr64/endbr32 and the
		// scalar/packed SSE families, whose map-2 lengths are independent
		// of the SIMD prefix. Anything else (prefix runs, prefix+REX,
		// other prefixed one-byte opcodes) declines to the slow path.
		if len(code) < 2 {
			return 0, ClassOther, 0, false
		}
		nb := code[1]
		if nb != 0x0F && (b != 0x66 || nb != 0x90) {
			return 0, ClassOther, 0, false
		}
		pos, b, cur = 1, nb, curPfx
	}
	d := fastOps[b]
	if b == 0x0F {
		// Two-byte map. REX ahead of 0F has no length effect there (no iv
		// immediates in map 2); the 16-bit Jcc displacement form (66 +
		// 0F 8x in 32-bit mode) is the one prefix-dependent length in the
		// map and declines.
		pos++
		if pos >= len(code) {
			return 0, ClassOther, 0, false
		}
		b = code[pos]
		d = fastOps2[b]
		cur |= curMap2
		if d.rel != 0 && cur&curPfx != 0 && code[0] == 0x66 && mode == Mode32 {
			return 0, ClassOther, 0, false // rel16 under the operand-size prefix
		}
	}
	if d.flags&dAccept == 0 {
		return 0, ClassOther, 0, false
	}
	cur |= cursor(pos)
	pos++
	class = Class(d.class)
	if d.flags&dModRM != 0 {
		if pos >= len(code) {
			return 0, ClassOther, 0, false
		}
		m := code[pos]
		pos++
		cur |= curModRM
		f := modrmForm[m]
		if f&(mSIB|mRIP) != 0 {
			if f&mRIP != 0 {
				cur |= curMemRIP
			} else {
				if pos >= len(code) {
					return 0, ClassOther, 0, false
				}
				if m < 0x40 && code[pos]&7 == 5 {
					f |= 4 // mod 0, no base: disp32
					cur |= curMemAbs
				}
				pos++
			}
		}
		pos += int(f & mDisp)
		if d.flags&(dGroup5|dEndbr) != 0 {
			switch {
			case d.flags&dGroup5 != 0:
				switch m >> 3 & 7 {
				case 2:
					class = ClassCallInd
				case 4:
					class = ClassJmpInd
				}
			case cur&curPfx != 0 && code[0] == 0xF3:
				switch m {
				case 0xFA:
					class = ClassEndbr64
				case 0xFB:
					class = ClassEndbr32
				}
			}
		}
	}
	imm := int(d.imm)
	if d.flags&dImmW != 0 && rex&0x08 != 0 {
		imm = 8
	}
	imm += int(d.rel)
	pos += imm
	if pos > len(code) {
		return 0, ClassOther, 0, false
	}
	if d.rel != 0 {
		cur |= curRel
		var disp int64
		if d.rel == 1 {
			disp = int64(int8(code[pos-1]))
		} else {
			disp = int64(int32(le32(code[pos-4:])))
		}
		target = truncAddr(mode, addr+uint64(pos)+uint64(disp))
	}
	if class == ClassNop && rex&1 != 0 && cur&curMap2 == 0 {
		class = ClassOther // REX.B 90 is XCHG R8, not NOP
	}
	if inst == nil {
		return pos, class, target, true
	}

	// The detail layer: the operands, read at the cursor positions. The
	// immediate (or branch displacement) is the trailing imm bytes, and a
	// memory disp32 ends where it starts.
	op := int(cur & curOpPos)
	*inst = Inst{Addr: addr, Len: pos, Class: class, OpcodeMap: 1}
	inst.Opcode = code[op]
	if cur&^curOpPos == 0 && imm == 0 {
		return pos, class, target, true // a bare opcode: no prefix, operand or target
	}
	if cur&curMap2 != 0 {
		inst.OpcodeMap = 2
	}
	if cur&curPfx != 0 {
		inst.Prefix[0] = code[0]
		inst.NPrefix = 1
	}
	if cur&curModRM != 0 {
		inst.ModRM = code[op+1]
		inst.HasModRM = true
	}
	if cur&curRel != 0 {
		inst.Target = target
		inst.HasTarget = true
	}
	at := pos - imm
	switch imm {
	case 0:
	case 1:
		inst.Imm = int64(int8(code[at]))
		inst.HasImm = true
	case 2:
		inst.Imm = int64(int16(uint16(code[at]) | uint16(code[at+1])<<8))
		inst.HasImm = true
	case 4:
		inst.Imm = int64(int32(le32(code[at:])))
		inst.HasImm = true
	default:
		inst.Imm = int64(uint64(le32(code[at:])) | uint64(le32(code[at+4:]))<<32)
		inst.HasImm = true
	}
	// A disp32 memory reference ends where the immediate starts; RIP-
	// relative addressing is next-instruction relative.
	if cur&(curMemRIP|curMemAbs) != 0 {
		disp := int64(int32(le32(code[at-4:])))
		if cur&curMemRIP != 0 && mode == Mode64 {
			inst.RIPRef = addr + uint64(pos) + uint64(disp)
			inst.HasRIPRef = true
		} else {
			inst.MemDisp = uint64(uint32(disp))
			inst.HasMemDisp = true
		}
	}
	return pos, class, target, true
}

// DecodeInto decodes a single instruction from the front of code into
// *inst, overwriting it completely. It is the allocation-free form of
// Decode: hot loops reuse one Inst across calls instead of copying a
// fresh value per instruction. On error *inst is zeroed.
//
// Where the fast path's core layer accepts (see the top of this file),
// the Inst is the core's length, class and target plus the detail
// layer's operands read at the core's cursor positions; every other
// encoding falls back to the complete Intel-SDM walk in decodeSlow. The
// two paths produce bit-identical Inst values (asserted by
// TestFastPathMatchesFullDecode and FuzzDecode).
func DecodeInto(code []byte, addr uint64, mode Mode, inst *Inst) error {
	if mode != Mode32 && mode != Mode64 {
		*inst = Inst{}
		return fmt.Errorf("x86: unsupported mode %d", int(mode))
	}
	if _, _, _, ok := scan(code, addr, mode, inst); !ok {
		return decodeSlow(code, addr, mode, inst)
	}
	return nil
}

// le32 is an inlinable little-endian 32-bit load (a single MOV on
// amd64); the generic signExtendLE byte loop shows up in sweep profiles
// for the 4-byte immediates and displacements that dominate branches.
func le32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// legacyPrefixTab is isLegacyPrefix as a direct-indexed table: the fast
// path consults it once per REX-prefixed instruction, where the 11-way
// switch shows up in sweep profiles.
var legacyPrefixTab = buildLegacyPrefixTab()

func buildLegacyPrefixTab() [256]bool {
	var t [256]bool
	for b := 0; b < 256; b++ {
		t[b] = isLegacyPrefix(byte(b))
	}
	return t
}

// truncAddr wraps an address to the mode's pointer width.
func truncAddr(mode Mode, v uint64) uint64 {
	if mode == Mode32 {
		return uint64(uint32(v))
	}
	return v
}
