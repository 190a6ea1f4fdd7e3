package fetch

import (
	"slices"

	"github.com/funseeker/funseeker/internal/x86"
)

// FETCH's published pipeline lifts machine code to an intermediate
// representation and runs stack-height and calling-convention analyses
// over each function's control-flow graph. This file reproduces that
// architecture: instructions are decoded once, lifted to micro-ops,
// partitioned into basic blocks, and a worklist dataflow propagates the
// stack height to a fixpoint. The work done here — not the final answer
// quality — is what makes FETCH measurably slower than FunSeeker's
// single syntactic sweep.

// opKind enumerates micro-op kinds in the mini-IR.
type opKind uint8

const (
	opNop opKind = iota
	// opStackAdj adjusts the stack pointer by imm bytes.
	opStackAdj
	// opStackReset models leave/ret epilogue resets.
	opStackReset
	// opRegRead reads a general-purpose register.
	opRegRead
	// opRegWrite writes a general-purpose register.
	opRegWrite
	// opMemRead / opMemWrite model memory accesses at [reg+imm].
	opMemRead
	opMemWrite
	// opCall models a (balanced) call.
	opCall
	// opRet terminates with a return.
	opRet
	// opBranch terminates with a branch.
	opBranch
)

// microOp is one lifted operation.
type microOp struct {
	kind opKind
	reg  int
	imm  int64
}

// lift expands a decoded instruction into micro-ops. The expansion covers
// the instruction classes the length decoder distinguishes plus the
// common integer forms via regEffects.
func lift(inst *x86.Inst, ptr int64, ops []microOp) []microOp {
	switch {
	case inst.OpcodeMap == 1 && inst.Opcode >= 0x50 && inst.Opcode <= 0x57:
		ops = append(ops,
			microOp{kind: opRegRead, reg: int(inst.Opcode - 0x50)},
			microOp{kind: opStackAdj, imm: -ptr},
			microOp{kind: opMemWrite, reg: 4})
	case inst.OpcodeMap == 1 && inst.Opcode >= 0x58 && inst.Opcode <= 0x5F:
		ops = append(ops,
			microOp{kind: opMemRead, reg: 4},
			microOp{kind: opStackAdj, imm: ptr},
			microOp{kind: opRegWrite, reg: int(inst.Opcode - 0x58)})
	case inst.Class == x86.ClassLeave:
		ops = append(ops, microOp{kind: opStackReset}, microOp{kind: opRegWrite, reg: 5})
	case isRspAdjust(inst):
		imm := inst.Imm
		if inst.Reg() == 5 {
			imm = -imm
		}
		ops = append(ops, microOp{kind: opStackAdj, imm: imm})
	case inst.Class == x86.ClassCallRel || inst.Class == x86.ClassCallInd:
		ops = append(ops, microOp{kind: opCall})
	case inst.Class == x86.ClassRet:
		ops = append(ops, microOp{kind: opRet})
	case inst.Class.IsBranch():
		ops = append(ops, microOp{kind: opBranch})
	default:
		reads, writes := regEffects(inst, x86.Mode64)
		for _, r := range reads {
			if r >= 0 {
				ops = append(ops, microOp{kind: opRegRead, reg: r})
			} else {
				ops = append(ops, microOp{kind: opMemRead, reg: 4, imm: inst.Imm})
			}
		}
		for _, w := range writes {
			ops = append(ops, microOp{kind: opRegWrite, reg: w})
		}
		if len(reads) == 0 && len(writes) == 0 {
			ops = append(ops, microOp{kind: opNop})
		}
	}
	return ops
}

// csrc is one contiguous code region. Its instructions are decoded on
// demand from the region's own bytes, so an instruction that would cross
// the region end fails to decode exactly as in a plain decode loop.
type csrc struct {
	code []byte // the region's bytes
	base uint64 // virtual address of code[0]
	mode x86.Mode
}

func (s csrc) end() uint64 { return s.base + uint64(len(s.code)) }

// decode decodes the instruction at pc into inst.
func (s csrc) decode(pc uint64, inst *x86.Inst) error {
	return x86.DecodeInto(s.code[pc-s.base:], pc, s.mode, inst)
}

// liftedInst is one instruction of the lifted stream: its class, its
// direct-branch target, and the range of its micro-ops in the function's
// shared arena. Keeping it small (instead of embedding the 128-byte
// decoded form) is what keeps the block partitioning allocation-light.
type liftedInst struct {
	class    x86.Class
	hasTgt   bool
	target   uint64
	opsStart int32
	opsEnd   int32
}

// basicBlock is one CFG node. insts is a subslice of the function's
// lifted stream (blocks partition it contiguously).
type basicBlock struct {
	insts []liftedInst
	// succs are indices of successor blocks (-1 entries removed).
	succs []int
}

// unknownHeight marks an unvisited or inconsistent block height.
const unknownHeight = int64(-1 << 62)

// buildCFG decodes the source region once and partitions it into basic
// blocks. It returns the blocks and the shared micro-op arena their
// liftedInsts index into.
func buildCFG(src csrc, ptr int64) ([]basicBlock, []microOp, bool) {
	est := len(src.code)/4 + 1
	lifted := make([]liftedInst, 0, est)
	addrs := make([]uint64, 0, est)
	arena := make([]microOp, 0, 2*est)
	var inst x86.Inst
	pc := src.base
	end := src.end()
	decodeOK := true
	for pc < end {
		if err := src.decode(pc, &inst); err != nil {
			decodeOK = false
			break
		}
		opsStart := int32(len(arena))
		arena = lift(&inst, ptr, arena)
		lifted = append(lifted, liftedInst{
			class:    inst.Class,
			hasTgt:   inst.HasTarget,
			target:   inst.Target,
			opsStart: opsStart,
			opsEnd:   int32(len(arena)),
		})
		addrs = append(addrs, pc)
		pc += uint64(inst.Len)
	}
	if len(lifted) == 0 {
		return nil, nil, decodeOK
	}
	// Leaders: the entry, branch targets, and fallthroughs after
	// control-flow instructions. addrs is ascending, so branch targets
	// resolve by binary search instead of a map.
	isLeader := make([]bool, len(lifted))
	isLeader[0] = true
	for i := range lifted {
		li := &lifted[i]
		if (li.class == x86.ClassJccRel || li.class == x86.ClassJmpRel) && li.hasTgt {
			if j, ok := slices.BinarySearch(addrs, li.target); ok {
				isLeader[j] = true
			}
		}
		if li.class.IsBranch() && i+1 < len(lifted) {
			isLeader[i+1] = true
		}
	}
	starts := make([]int, 0, 16)
	blockIdx := make([]int32, len(lifted))
	for i, l := range isLeader {
		if l {
			starts = append(starts, i)
		}
		blockIdx[i] = int32(len(starts) - 1)
	}
	blocks := make([]basicBlock, len(starts))
	for b, st := range starts {
		e := len(lifted)
		if b+1 < len(starts) {
			e = starts[b+1]
		}
		bb := &blocks[b]
		bb.insts = lifted[st:e]
		last := &lifted[e-1]
		blockOf := func(va uint64) (int, bool) {
			j, ok := slices.BinarySearch(addrs, va)
			if !ok {
				return 0, false
			}
			return int(blockIdx[j]), true
		}
		switch last.class {
		case x86.ClassRet, x86.ClassHlt, x86.ClassUD, x86.ClassJmpInd:
			// no successors
		case x86.ClassJmpRel:
			if last.hasTgt {
				if t, ok := blockOf(last.target); ok {
					bb.succs = append(bb.succs, t)
				}
			}
		case x86.ClassJccRel:
			if last.hasTgt {
				if t, ok := blockOf(last.target); ok {
					bb.succs = append(bb.succs, t)
				}
			}
			if e < len(lifted) {
				bb.succs = append(bb.succs, int(blockIdx[e]))
			}
		default:
			if e < len(lifted) {
				bb.succs = append(bb.succs, int(blockIdx[e]))
			}
		}
	}
	return blocks, arena, decodeOK
}

// analyzeCFG runs the stack-height fixpoint and argument-liveness scan
// over the lifted CFG, producing the verifier's profile.
func analyzeCFG(blocks []basicBlock, arena []microOp, decodeOK bool, ptr int64) funcProfile {
	var p funcProfile
	p.decodeError = !decodeOK
	if len(blocks) == 0 {
		return p
	}
	if len(blocks[0].insts) > 0 {
		if cl := blocks[0].insts[0].class; cl == x86.ClassNop || cl == x86.ClassInt3 {
			p.startsWithPadding = true
			return p
		}
	}
	in := make([]int64, len(blocks))
	for i := range in {
		in[i] = unknownHeight
	}
	in[0] = 0
	worklist := []int{0}
	var written [16]bool
	balancedAll := true
	sawRet := false
	entrySeen := false
	for len(worklist) > 0 {
		b := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		h := in[b]
		if h == unknownHeight {
			continue
		}
		for i := range blocks[b].insts {
			li := &blocks[b].insts[i]
			p.insts++
			for _, op := range arena[li.opsStart:li.opsEnd] {
				switch op.kind {
				case opStackAdj:
					h += op.imm
				case opStackReset:
					h = 0 // rsp restored from the frame pointer
				case opRet:
					sawRet = true
					if h != 0 {
						balancedAll = false
					}
				case opRegRead:
					if b == 0 && !entrySeen && !written[op.reg&15] && argRegs64[op.reg] {
						p.argRegRead = true
					}
				case opMemRead:
					if b == 0 && !entrySeen && op.imm > 0 {
						p.argRegRead = true
					}
				case opRegWrite:
					written[op.reg&15] = true
				}
			}
			if h > 0 {
				p.popsBelowEntry = true
			}
		}
		entrySeen = true
		for _, s := range blocks[b].succs {
			if in[s] == unknownHeight {
				in[s] = h
				worklist = append(worklist, s)
			} else if in[s] != h {
				// Conflicting heights: re-propagate the lower bound once
				// (bounded re-iteration keeps the fixpoint cheap yet
				// real).
				if h < in[s] {
					in[s] = h
					worklist = append(worklist, s)
				}
			}
		}
	}
	p.sawRet = sawRet
	p.balanced = sawRet && balancedAll
	return p
}

// cfgProfile is the CFG-based replacement for the linear range profiler.
func cfgProfile(code []byte, begin uint64, mode x86.Mode) funcProfile {
	src := csrc{code: code, base: begin, mode: mode}
	ptr := int64(8)
	if src.mode == x86.Mode32 {
		ptr = 4
	}
	blocks, arena, ok := buildCFG(src, ptr)
	return analyzeCFG(blocks, arena, ok, ptr)
}
