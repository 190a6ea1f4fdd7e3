package fetch

import (
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/x86"
)

// funcProfile summarizes the stack and register behaviour of a code
// region — the information FETCH's verifier consumes.
type funcProfile struct {
	// insts is the number of instructions walked.
	insts int
	// sawRet reports whether the walk reached a return.
	sawRet bool
	// balanced reports whether every return was reached with the stack
	// height restored to the entry height.
	balanced bool
	// popsBelowEntry reports whether the stack rose above the entry
	// height (popping into the caller's frame) at any point.
	popsBelowEntry bool
	// argRegRead reports whether an argument register (or, on x86, an
	// incoming stack slot) was read before being written.
	argRegRead bool
	// decodeError reports whether the walk hit undecodable bytes.
	decodeError bool
	// startsWithPadding reports whether the region begins with padding
	// (NOP or INT3), which disqualifies it as an entry.
	startsWithPadding bool
}

// looksLikeFunction is FETCH's acceptance predicate for tail-call
// candidates: reject only on positive evidence of non-functionhood.
func (p funcProfile) looksLikeFunction() bool {
	if p.decodeError || p.startsWithPadding || p.insts == 0 {
		return false
	}
	if p.popsBelowEntry {
		return false
	}
	if p.sawRet && !p.balanced {
		return false
	}
	return true
}

// profileRange analyzes the instructions of [begin, end) by building the
// function's CFG, lifting to micro-ops, and running the stack-height
// dataflow to a fixpoint — the analysis architecture of the real FETCH.
func profileRange(bin *elfx.Binary, begin, end uint64) funcProfile {
	if begin < bin.TextAddr {
		return funcProfile{decodeError: true}
	}
	lo := begin - bin.TextAddr
	hi := end - bin.TextAddr
	if hi > uint64(len(bin.Text)) {
		hi = uint64(len(bin.Text))
	}
	if lo >= hi {
		return funcProfile{decodeError: true}
	}
	return cfgProfile(bin.Text[lo:hi], begin, bin.Mode)
}

// profileWindow analyzes up to maxInsts instructions starting at va.
func profileWindow(bin *elfx.Binary, va uint64, maxInsts int) funcProfile {
	if !bin.InText(va) {
		return funcProfile{decodeError: true}
	}
	lo := va - bin.TextAddr
	return profile(bin.Text[lo:], va, bin.Mode, maxInsts)
}

// profile is the candidate-verification walk: linear disassembly with
// stack-height and argument-liveness modeling, stopping at the first
// return or unconditional control-flow diversion.
func profile(code []byte, base uint64, mode x86.Mode, maxInsts int) funcProfile {
	src := csrc{code: code, base: base, mode: mode}
	var p funcProfile
	ptr := int64(8)
	if mode == x86.Mode32 {
		ptr = 4
	}
	var (
		height     int64 // current stack height relative to entry (≤ 0)
		written    [16]bool
		checkedArg = false
	)
	var inst x86.Inst
	pc := src.base
	end := src.end()
	first := true
	for pc < end && p.insts < maxInsts {
		if err := src.decode(pc, &inst); err != nil {
			p.decodeError = true
			return p
		}
		if first {
			if inst.Class == x86.ClassNop || inst.Class == x86.ClassInt3 {
				p.startsWithPadding = true
				return p
			}
			first = false
		}
		p.insts++
		pc += uint64(inst.Len)

		// Stack-height effects.
		switch {
		case inst.OpcodeMap == 1 && inst.Opcode >= 0x50 && inst.Opcode <= 0x57:
			height -= ptr
		case inst.OpcodeMap == 1 && inst.Opcode >= 0x58 && inst.Opcode <= 0x5F:
			height += ptr
		case inst.Class == x86.ClassLeave:
			height = 0 // rsp <- rbp; pop rbp
		case isRspAdjust(&inst):
			if inst.Reg() == 5 { // sub
				height -= inst.Imm
			} else { // add
				height += inst.Imm
			}
		case inst.Class == x86.ClassCallRel || inst.Class == x86.ClassCallInd:
			// The callee balances its own frame.
		}
		if height > 0 {
			p.popsBelowEntry = true
		}

		// Argument-register liveness: only meaningful near the entry.
		if !checkedArg && p.insts <= 12 {
			reads, writes := regEffects(&inst, mode)
			for _, r := range reads {
				if mode == x86.Mode64 && argRegs64[r] && !written[r] {
					p.argRegRead = true
					checkedArg = true
				}
				// On x86, reading [esp+positive] or [ebp+positive]
				// reaches incoming arguments.
				if mode == x86.Mode32 && r == -1 {
					p.argRegRead = true
					checkedArg = true
				}
			}
			for _, w := range writes {
				if w >= 0 && w < 16 {
					written[w] = true
				}
			}
		}

		// Flow termination.
		switch inst.Class {
		case x86.ClassRet:
			p.sawRet = true
			p.balanced = height == 0
			return p
		case x86.ClassJmpRel, x86.ClassJmpInd, x86.ClassHlt, x86.ClassUD:
			return p
		}
	}
	return p
}

// argRegs64 is the SysV AMD64 integer argument register set, by encoder
// number: RDI(7), RSI(6), RDX(2), RCX(1), R8(8), R9(9).
var argRegs64 = map[int]bool{7: true, 6: true, 2: true, 1: true, 8: true, 9: true}

// isRspAdjust recognizes add/sub rsp, imm (group-1 83/81 with rm=RSP).
func isRspAdjust(inst *x86.Inst) bool {
	if inst.OpcodeMap != 1 || !inst.HasModRM || !inst.HasImm {
		return false
	}
	if inst.Opcode != 0x83 && inst.Opcode != 0x81 {
		return false
	}
	if inst.Mod() != 3 || inst.RM() != 4 {
		return false
	}
	return inst.Reg() == 0 || inst.Reg() == 5
}

// regEffects extracts a conservative (reads, writes) register summary for
// the common integer instructions. A read code of -1 denotes a read of an
// incoming stack slot ([esp+pos] / [ebp+pos] with mod≠3).
func regEffects(inst *x86.Inst, mode x86.Mode) (reads, writes []int) {
	if inst.OpcodeMap != 1 {
		return nil, nil
	}
	op := inst.Opcode
	reg := inst.Reg()
	rm := inst.RM()
	memRead := func() {
		// Memory operand with positive displacement off the stack:
		// incoming argument access on x86.
		if inst.Mod() != 3 && (rm == 4 || rm == 5) && inst.Imm >= 0 {
			reads = append(reads, -1)
		}
	}
	switch {
	case op < 0x40 && op&7 <= 3: // ALU MR/RM forms
		switch op & 7 {
		case 0, 1: // op r/m, r
			reads = append(reads, reg)
			if inst.Mod() == 3 {
				reads = append(reads, rm)
				if op>>3 != 7 { // cmp writes nothing
					writes = append(writes, rm)
				}
			}
		case 2, 3: // op r, r/m
			if inst.Mod() == 3 {
				reads = append(reads, rm)
			} else {
				memRead()
			}
			reads = append(reads, reg)
			if op>>3 != 7 {
				writes = append(writes, reg)
			}
		}
	case op >= 0x50 && op <= 0x57:
		reads = append(reads, int(op-0x50))
	case op >= 0x58 && op <= 0x5F:
		writes = append(writes, int(op-0x58))
	case op == 0x89: // mov r/m, r
		reads = append(reads, reg)
		if inst.Mod() == 3 {
			writes = append(writes, rm)
		}
	case op == 0x8B: // mov r, r/m
		if inst.Mod() == 3 {
			reads = append(reads, rm)
		} else {
			memRead()
		}
		writes = append(writes, reg)
	case op == 0x8D: // lea r, m
		writes = append(writes, reg)
	case op >= 0xB8 && op <= 0xBF:
		writes = append(writes, int(op-0xB8))
	case op == 0x85 || op == 0x84: // test
		reads = append(reads, reg)
		if inst.Mod() == 3 {
			reads = append(reads, rm)
		}
	case op == 0x81 || op == 0x83: // group 1 imm
		if inst.Mod() == 3 {
			reads = append(reads, rm)
			if reg != 7 {
				writes = append(writes, rm)
			}
		}
	}
	_ = mode
	return reads, writes
}
