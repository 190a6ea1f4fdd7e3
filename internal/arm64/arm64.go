// Package arm64 implements an AArch64 instruction decoder for
// function-identification sweeps over BTI-enabled binaries.
//
// The paper's closing observation (§VI) is that the FunSeeker algorithm
// transfers to ARMv8.5 Branch Target Identification almost unchanged:
// BTI landing pads play the role of ENDBR, BL of direct calls, and B of
// direct jumps. AArch64 instructions are fixed 4-byte words, so the
// sweep is trivially self-synchronizing; and unlike ENDBR, the BTI
// operand self-describes which indirect branches may land there:
//
//	BTI c  — indirect calls (BLR): function entries
//	BTI j  — indirect jumps (BR): switch-table case labels
//	BTI jc — both
//
// PACIASP (pointer-authentication prologue) acts as an implicit BTI c
// and is treated as such.
package arm64

import (
	"context"
	"encoding/binary"
	"fmt"
)

// Class is the coarse classification of one decoded instruction.
type Class int

// Instruction classes.
const (
	// ClassOther is any instruction without a dedicated class.
	ClassOther Class = iota
	// ClassBTI is a BTI landing pad (see BTIKind).
	ClassBTI
	// ClassPACIASP is PACIASP / PACIBSP, an implicit BTI c.
	ClassPACIASP
	// ClassBL is a direct call (branch with link).
	ClassBL
	// ClassB is a direct unconditional branch.
	ClassB
	// ClassBCond groups the conditional branches (B.cond, CBZ/CBNZ,
	// TBZ/TBNZ).
	ClassBCond
	// ClassRet is RET / RETAA / RETAB.
	ClassRet
	// ClassBR is an indirect branch (BR / BRAA...).
	ClassBR
	// ClassBLR is an indirect call (BLR / BLRAA...).
	ClassBLR
	// ClassNop is NOP and the other no-effect hints.
	ClassNop
	// ClassUDF is the permanently undefined encoding.
	ClassUDF
)

var classNames = map[Class]string{
	ClassOther:   "other",
	ClassBTI:     "bti",
	ClassPACIASP: "paciasp",
	ClassBL:      "bl",
	ClassB:       "b",
	ClassBCond:   "b.cond",
	ClassRet:     "ret",
	ClassBR:      "br",
	ClassBLR:     "blr",
	ClassNop:     "nop",
	ClassUDF:     "udf",
}

// String names the class.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// BTIKind is the BTI operand.
type BTIKind int

// BTI operand kinds, by the op2<6:5> field.
const (
	// BTINone is plain `BTI` (no indirect branches may land here; it
	// guards nothing but is a valid hint).
	BTINone BTIKind = iota
	// BTIC accepts indirect calls.
	BTIC
	// BTIJ accepts indirect jumps.
	BTIJ
	// BTIJC accepts both.
	BTIJC
)

// String renders "bti", "bti c", "bti j", or "bti jc".
func (k BTIKind) String() string {
	switch k {
	case BTIC:
		return "bti c"
	case BTIJ:
		return "bti j"
	case BTIJC:
		return "bti jc"
	default:
		return "bti"
	}
}

// AcceptsCall reports whether an indirect call may land on this pad.
func (k BTIKind) AcceptsCall() bool { return k == BTIC || k == BTIJC }

// AcceptsJump reports whether an indirect jump may land on this pad.
func (k BTIKind) AcceptsJump() bool { return k == BTIJ || k == BTIJC }

// Inst is one decoded instruction. AArch64 instructions are always four
// bytes.
type Inst struct {
	// Addr is the instruction address.
	Addr uint64
	// Raw is the instruction word.
	Raw uint32
	// Class is the classification.
	Class Class
	// BTI is the landing-pad kind for ClassBTI.
	BTI BTIKind
	// Target is the absolute branch destination for ClassBL / ClassB /
	// ClassBCond; valid when HasTarget.
	Target    uint64
	HasTarget bool
}

// Next returns the address of the following instruction.
func (i Inst) Next() uint64 { return i.Addr + 4 }

// Decode decodes the 32-bit word at addr.
func Decode(word uint32, addr uint64) Inst {
	inst := Inst{Addr: addr, Raw: word, Class: ClassOther}
	switch {
	case word == 0x00000000:
		inst.Class = ClassUDF
	case word&0xFFFFFF3F == 0xD503241F:
		inst.Class = ClassBTI
		inst.BTI = BTIKind(word >> 6 & 3)
	case word == 0xD503233F || word == 0xD503237F:
		// PACIASP / PACIBSP.
		inst.Class = ClassPACIASP
	case word&0xFFFFF01F == 0xD503201F:
		// HINT family (NOP, YIELD, WFE, ...), excluding the BTI and PAC
		// encodings matched above.
		inst.Class = ClassNop
	case word&0xFC000000 == 0x94000000:
		inst.Class = ClassBL
		inst.Target = branch26Target(word, addr)
		inst.HasTarget = true
	case word&0xFC000000 == 0x14000000:
		inst.Class = ClassB
		inst.Target = branch26Target(word, addr)
		inst.HasTarget = true
	case word&0xFF000000 == 0x54000000:
		// B.cond (and BC.cond, which sets bit 4).
		inst.Class = ClassBCond
		inst.Target = branch19Target(word, addr)
		inst.HasTarget = true
	case word&0x7E000000 == 0x34000000:
		// CBZ / CBNZ.
		inst.Class = ClassBCond
		inst.Target = branch19Target(word, addr)
		inst.HasTarget = true
	case word&0x7E000000 == 0x36000000:
		// TBZ / TBNZ: imm14 at bits 18:5.
		inst.Class = ClassBCond
		imm := int64(int32(word>>5&0x3FFF)<<18) >> 18 * 4
		inst.Target = uint64(int64(addr) + imm)
		inst.HasTarget = true
	case word&0xFFFFFC1F == 0xD65F0000 || word == 0xD65F0BFF || word == 0xD65F0FFF:
		// RET Xn, RETAA, RETAB.
		inst.Class = ClassRet
	case word&0xFFFFFC1F == 0xD61F0000:
		inst.Class = ClassBR
	case word&0xFFFFFC1F == 0xD63F0000:
		inst.Class = ClassBLR
	}
	return inst
}

// branch26Target computes a ±128 MiB BL/B destination.
func branch26Target(word uint32, addr uint64) uint64 {
	imm := int64(int32(word<<6)>>6) * 4
	return uint64(int64(addr) + imm)
}

// branch19Target computes a ±1 MiB conditional destination.
func branch19Target(word uint32, addr uint64) uint64 {
	imm := int64(int32(word>>5&0x7FFFF)<<13) >> 13 * 4
	return uint64(int64(addr) + imm)
}

// cancelStride is how many bytes LinearSweep decodes between
// cancellation checks, mirroring the x86 sweep's stride: frequent enough
// that an aborted request stops burning CPU within tens of microseconds,
// rare enough that the check never shows up in profiles.
const cancelStride = 64 << 10

// LinearSweep decodes code word by word, invoking fn for each
// instruction; fn may return false to stop the sweep. Trailing bytes
// that do not fill a word are ignored. Cancellation is checked at
// cancelStride boundaries (a background context short-circuits every
// check via the Done() == nil fast path); on cancellation the sweep
// stops and returns ctx.Err().
func LinearSweep(ctx context.Context, code []byte, base uint64, fn func(Inst) bool) error {
	done := ctx.Done()
	next := 0
	for off := 0; off+4 <= len(code); off += 4 {
		if done != nil && off >= next {
			if err := ctx.Err(); err != nil {
				return err
			}
			next = off + cancelStride
		}
		word := binary.LittleEndian.Uint32(code[off:])
		if !fn(Decode(word, base+uint64(off))) {
			return nil
		}
	}
	return nil
}

// ScanCallPads returns every address in code holding a call-accepting
// landmark encoding (BTI c, BTI jc, PACIASP/PACIBSP), ascending. Because
// AArch64 instructions are fixed-width and word-aligned, this equals the
// pad set the linear sweep discovers — superset disassembly degenerates
// to the sweep on this ISA, there are no misaligned encodings to
// recover. It exists so the byte-level-scan option has a uniform meaning
// across backends.
func ScanCallPads(code []byte, base uint64) []uint64 {
	var out []uint64
	for off := 0; off+4 <= len(code); off += 4 {
		word := binary.LittleEndian.Uint32(code[off:])
		inst := Decode(word, base+uint64(off))
		if isCallPad(&inst) {
			out = append(out, inst.Addr)
		}
	}
	return out
}

// isCallPad reports whether inst is a landmark an indirect call may land
// on: the AArch64 analog of ENDBR for entry identification.
func isCallPad(inst *Inst) bool {
	switch inst.Class {
	case ClassBTI:
		return inst.BTI.AcceptsCall()
	case ClassPACIASP:
		return true
	}
	return false
}
