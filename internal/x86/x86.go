// Package x86 implements an x86 / x86-64 instruction decoder tailored to
// linear-sweep disassembly of compiler-generated code.
//
// The decoder recovers the exact length of every instruction (legacy
// prefixes, REX, VEX, EVEX, ModRM/SIB, displacement, immediate) and
// classifies the instructions binary-analysis tools care about: CET
// end-branch markers, direct and indirect branches, calls, returns, and
// padding. Direct branch targets and RIP-relative memory references are
// materialized as absolute virtual addresses.
//
// The design follows the decode model of the Intel SDM Volume 2: a legacy
// prefix run, an optional REX/VEX/EVEX prefix, a one-, two-, or three-byte
// opcode selecting an attribute entry (ModRM present? immediate kind?), and
// the addressing-form bytes dictated by ModRM/SIB and the effective address
// size.
package x86

import (
	"errors"
	"fmt"
)

// Mode selects the CPU operating mode the bytes are decoded under.
type Mode int

// Supported decode modes.
const (
	// Mode32 decodes as 32-bit protected mode code (compat / IA-32).
	Mode32 Mode = 32
	// Mode64 decodes as 64-bit long mode code.
	Mode64 Mode = 64
)

// String returns "x86" or "x86-64".
func (m Mode) String() string {
	switch m {
	case Mode32:
		return "x86"
	case Mode64:
		return "x86-64"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Class is a coarse classification of a decoded instruction. Only the
// categories relevant to function identification are distinguished; all
// remaining instructions decode as ClassOther.
type Class int

// Instruction classes.
const (
	// ClassOther is any instruction without a dedicated class below.
	ClassOther Class = iota
	// ClassEndbr64 is the 64-bit CET end-branch marker (F3 0F 1E FA).
	ClassEndbr64
	// ClassEndbr32 is the 32-bit CET end-branch marker (F3 0F 1E FB).
	ClassEndbr32
	// ClassCallRel is a direct near call with a relative displacement (E8).
	ClassCallRel
	// ClassJmpRel is a direct unconditional near jump (E9 / EB).
	ClassJmpRel
	// ClassJccRel is a conditional near jump (70-7F, 0F 80-8F, E0-E3).
	ClassJccRel
	// ClassCallInd is an indirect near call (FF /2).
	ClassCallInd
	// ClassJmpInd is an indirect near jump (FF /4).
	ClassJmpInd
	// ClassRet is a near or far return (C3, C2, CB, CA).
	ClassRet
	// ClassInt3 is the software-breakpoint padding byte (CC).
	ClassInt3
	// ClassNop is a canonical no-op: 90, 66 90, or the 0F 1F multi-byte
	// NOP family used by compilers for alignment padding.
	ClassNop
	// ClassHlt is HLT (F4).
	ClassHlt
	// ClassUD is an intentional undefined instruction (0F 0B UD2, 0F B9 UD1).
	ClassUD
	// ClassLeave is LEAVE (C9).
	ClassLeave
)

var classNames = map[Class]string{
	ClassOther:   "other",
	ClassEndbr64: "endbr64",
	ClassEndbr32: "endbr32",
	ClassCallRel: "call-rel",
	ClassJmpRel:  "jmp-rel",
	ClassJccRel:  "jcc-rel",
	ClassCallInd: "call-ind",
	ClassJmpInd:  "jmp-ind",
	ClassRet:     "ret",
	ClassInt3:    "int3",
	ClassNop:     "nop",
	ClassHlt:     "hlt",
	ClassUD:      "ud",
	ClassLeave:   "leave",
}

// String returns a short lowercase name for the class.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// IsBranch reports whether the class transfers control.
func (c Class) IsBranch() bool {
	switch c {
	case ClassCallRel, ClassJmpRel, ClassJccRel, ClassCallInd, ClassJmpInd, ClassRet:
		return true
	default:
		return false
	}
}

// Inst is one decoded instruction.
type Inst struct {
	// Addr is the virtual address the instruction was decoded at.
	Addr uint64
	// Len is the total encoded length in bytes (1..15).
	Len int
	// Class is the coarse classification.
	Class Class

	// Target is the absolute destination of a direct branch
	// (ClassCallRel / ClassJmpRel / ClassJccRel). Valid when HasTarget.
	Target uint64
	// HasTarget reports whether Target is meaningful.
	HasTarget bool

	// RIPRef is the absolute address referenced by a RIP-relative memory
	// operand (64-bit mode only). Valid when HasRIPRef. This is how
	// x86-64 code addresses PLT-adjacent thunks and globals.
	RIPRef uint64
	// HasRIPRef reports whether RIPRef is meaningful.
	HasRIPRef bool

	// MemDisp is the raw (sign-extended) memory displacement when the
	// instruction has a memory operand with an absolute displacement and
	// no base register (mod=00, rm=101 in 32-bit mode, or a SIB with no
	// base). Used to resolve 32-bit non-PIC indirect targets. Valid when
	// HasMemDisp.
	MemDisp uint64
	// HasMemDisp reports whether MemDisp is meaningful.
	HasMemDisp bool

	// Notrack reports whether the CET NOTRACK (3E) prefix applies to an
	// indirect branch.
	Notrack bool

	// Opcode is the primary opcode byte (after escapes the last opcode
	// byte, e.g. 0x1E for F3 0F 1E FA).
	Opcode byte
	// OpcodeMap identifies the opcode map: 1 = one-byte, 2 = 0F,
	// 3 = 0F 38, 4 = 0F 3A.
	OpcodeMap int
	// ModRM is the ModRM byte. Valid when HasModRM.
	ModRM byte
	// HasModRM reports whether the instruction carried a ModRM byte.
	HasModRM bool
	// Imm is the sign-extended immediate operand, when one exists.
	Imm int64
	// HasImm reports whether Imm is meaningful.
	HasImm bool

	// Prefix records the first legacy prefixes seen, in order. Real
	// compiler output never exceeds the four architectural prefix groups;
	// the fixed array keeps Inst free of heap pointers so decoding is
	// allocation-free and Inst values are comparable with ==.
	Prefix [4]byte
	// NPrefix counts every legacy prefix seen. Degenerate hand-written
	// encodings may carry more than len(Prefix) prefixes; the overflow is
	// counted here but not recorded byte-for-byte.
	NPrefix uint8
}

// Reg returns the ModRM.reg field (the /digit selecting a group member).
func (i Inst) Reg() int { return int(i.ModRM>>3) & 7 }

// Mod returns the ModRM.mod field.
func (i Inst) Mod() int { return int(i.ModRM>>6) & 3 }

// RM returns the ModRM.rm field.
func (i Inst) RM() int { return int(i.ModRM) & 7 }

// Next returns the address of the following instruction.
func (i Inst) Next() uint64 { return i.Addr + uint64(i.Len) }

// IsEndbr reports whether the instruction is an end-branch marker of
// either width.
func (i Inst) IsEndbr() bool {
	return i.Class == ClassEndbr64 || i.Class == ClassEndbr32
}

// Decoding errors.
var (
	// ErrTruncated is returned when the byte stream ends mid-instruction.
	ErrTruncated = errors.New("x86: truncated instruction")
	// ErrInvalid is returned for byte sequences that do not decode to a
	// valid instruction in the selected mode.
	ErrInvalid = errors.New("x86: invalid instruction")
	// ErrTooLong is returned when the encoding exceeds the architectural
	// 15-byte limit.
	ErrTooLong = errors.New("x86: instruction exceeds 15 bytes")
)
