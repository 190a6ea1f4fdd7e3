// Package recdesc implements the recursive-descent code discovery shared
// by the IDA- and Ghidra-style baseline identifiers: starting from seed
// entry points, functions are explored block by block, direct call
// targets become new functions, and jumps that escape their function's
// explored extent are reported as tail-call candidates.
package recdesc

import (
	"slices"

	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/x86"
)

// Func is one discovered function.
type Func struct {
	// Entry is the function entry address.
	Entry uint64
	// End is one past the highest explored address.
	End uint64
	// EscapingJumps lists direct unconditional jump targets that left
	// the function's explored extent (tail-call candidates).
	EscapingJumps []uint64
}

// Result is the outcome of a traversal.
type Result struct {
	// Functions maps entry address to discovery data.
	Functions map[uint64]*Func
	// Covered marks every byte of .text reached by the traversal
	// (offset-indexed).
	Covered []bool
}

// Entries returns the sorted function entry addresses.
func (r *Result) Entries() []uint64 {
	out := make([]uint64, 0, len(r.Functions))
	for e := range r.Functions {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

// decodeAt decodes the instruction at va into inst. Decoding is served
// fresh from the section bytes every time: the same bytes at the same
// address always decode the same way, so no instruction is stored.
func decodeAt(bin *elfx.Binary, va uint64, inst *x86.Inst) error {
	return x86.DecodeInto(bin.Text[va-bin.TextAddr:], va, bin.Mode, inst)
}

// Walker carries the reusable state for repeated traversals over one
// binary: an epoch-numbered visited set, so per-function exploration
// allocates neither a map nor a fresh array.
type Walker struct {
	bin     *elfx.Binary
	visited []uint32
	gen     uint32
}

// NewWalker prepares traversal state for bin.
func NewWalker(bin *elfx.Binary) *Walker {
	return &Walker{bin: bin, visited: make([]uint32, len(bin.Text))}
}

// Traverse explores the binary from the seed entries into a fresh
// coverage array.
func (w *Walker) Traverse(seeds []uint64) *Result {
	return w.TraverseInto(seeds, make([]bool, len(w.bin.Text)))
}

// TraverseInto explores the binary from the seed entries, marking
// coverage directly into covered (length len(.text)), which the returned
// Result shares. Bytes already marked stay marked — merge semantics
// without the extra array and copy.
func (w *Walker) TraverseInto(seeds []uint64, covered []bool) *Result {
	bin := w.bin
	res := &Result{
		Functions: make(map[uint64]*Func),
		Covered:   covered,
	}
	queue := append([]uint64(nil), seeds...)
	for len(queue) > 0 {
		entry := queue[0]
		queue = queue[1:]
		if !bin.InText(entry) {
			continue
		}
		if _, done := res.Functions[entry]; done {
			continue
		}
		fn := &Func{Entry: entry}
		res.Functions[entry] = fn
		queue = append(queue, w.exploreFunction(fn, res)...)
	}
	return res
}

// Traverse explores the binary from the seed entries. Callers doing
// repeated traversals over one binary should hold a Walker instead.
func Traverse(bin *elfx.Binary, seeds []uint64) *Result {
	return NewWalker(bin).Traverse(seeds)
}

// exploreFunction walks one function's control flow. It returns newly
// discovered call targets.
func (w *Walker) exploreFunction(fn *Func, res *Result) []uint64 {
	bin := w.bin
	w.gen++
	gen := w.gen
	var calls []uint64
	var inst x86.Inst
	blocks := []uint64{fn.Entry}
	maxEnd := fn.Entry

	for len(blocks) > 0 {
		pc := blocks[len(blocks)-1]
		blocks = blocks[:len(blocks)-1]
		if !bin.InText(pc) || w.visited[pc-bin.TextAddr] == gen {
			continue
		}
	blockLoop:
		for bin.InText(pc) && w.visited[pc-bin.TextAddr] != gen {
			off := pc - bin.TextAddr
			w.visited[off] = gen
			if err := decodeAt(bin, pc, &inst); err != nil {
				break
			}
			for i := uint64(0); i < uint64(inst.Len) && off+i < uint64(len(res.Covered)); i++ {
				res.Covered[off+i] = true
			}
			next := pc + uint64(inst.Len)
			if next > maxEnd {
				maxEnd = next
			}
			switch inst.Class {
			case x86.ClassRet, x86.ClassHlt, x86.ClassUD, x86.ClassJmpInd:
				break blockLoop
			case x86.ClassCallRel:
				if inst.HasTarget && bin.InText(inst.Target) {
					calls = append(calls, inst.Target)
				}
			case x86.ClassJccRel:
				if inst.HasTarget && inTraversalExtent(fn.Entry, inst.Target, maxEnd) {
					blocks = append(blocks, inst.Target)
				}
			case x86.ClassJmpRel:
				if !inst.HasTarget {
					break blockLoop
				}
				_, isKnownFunc := res.Functions[inst.Target]
				if !isKnownFunc && inTraversalExtent(fn.Entry, inst.Target, maxEnd) {
					blocks = append(blocks, inst.Target)
				} else if bin.InText(inst.Target) && inst.Target != fn.Entry {
					fn.EscapingJumps = append(fn.EscapingJumps, inst.Target)
				}
				break blockLoop
			}
			pc = next
		}
	}
	fn.End = maxEnd
	return calls
}

// intraFunctionSpan bounds how far forward a jump may land and still be
// considered part of the same function during discovery. Compiler-split
// cold fragments live far past this span, which is how they surface as
// escaping jumps.
const intraFunctionSpan = 0x800

// inTraversalExtent decides whether a branch target belongs to the
// function being explored.
func inTraversalExtent(entry, target, maxEnd uint64) bool {
	if target < entry {
		return false
	}
	return target < maxEnd+intraFunctionSpan
}

// GapChunk is a maximal uncovered region of .text after padding removal.
type GapChunk struct {
	// Addr is the first non-padding address of the chunk.
	Addr uint64
	// Size is the chunk length in bytes.
	Size uint64
}

// Gaps returns the uncovered, non-padding chunks of .text in address
// order. Padding (NOP forms and INT3) at the start of each gap is
// skipped; a gap consisting only of padding is dropped.
func Gaps(bin *elfx.Binary, covered []bool) []GapChunk {
	var gaps []GapChunk
	n := len(bin.Text)
	for off := 0; off < n; {
		if covered[off] {
			off++
			continue
		}
		start := off
		for off < n && !covered[off] {
			off++
		}
		// Skip leading padding instructions.
		cur := start
		for cur < off {
			inst, err := x86.Decode(bin.Text[cur:], bin.TextAddr+uint64(cur), bin.Mode)
			if err != nil || (inst.Class != x86.ClassNop && inst.Class != x86.ClassInt3) {
				break
			}
			cur += inst.Len
		}
		if cur < off {
			gaps = append(gaps, GapChunk{
				Addr: bin.TextAddr + uint64(cur),
				Size: uint64(off - cur),
			})
		}
	}
	return gaps
}

// WalkGaps scans the uncovered portions of .text, invoking visit at each
// candidate start after skipping padding instructions. chunkStart is true
// when the candidate begins a fresh uncovered chunk (it follows covered
// code, padding, a control-flow break, or the section start) — the
// positions where disassemblers apply their more speculative heuristics.
// When visit returns true the caller is expected to have extended covered
// (typically by traversing a newly accepted function); scanning then
// resumes at the next uncovered byte. When visit returns false, the
// instruction at the candidate is marked covered and skipped. This
// per-instruction walk is what lets signature scans find back-to-back
// functions in one large gap (unaligned -O0/-O1 layouts).
func WalkGaps(bin *elfx.Binary, covered []bool, visit func(va uint64, chunkStart bool) bool) {
	var inst x86.Inst
	n := len(bin.Text)
	chunkStart := true
	for off := 0; off < n; {
		if covered[off] {
			off++
			chunkStart = true
			continue
		}
		if err := decodeAt(bin, bin.TextAddr+uint64(off), &inst); err != nil {
			covered[off] = true
			off++
			chunkStart = true
			continue
		}
		if inst.Class == x86.ClassNop || inst.Class == x86.ClassInt3 {
			markRange(covered, off, inst.Len)
			off += inst.Len
			chunkStart = true
			continue
		}
		if visit(bin.TextAddr+uint64(off), chunkStart) {
			if !covered[off] {
				// The visitor accepted but did not cover the entry;
				// avoid livelock.
				covered[off] = true
			}
			chunkStart = true
			continue
		}
		markRange(covered, off, inst.Len)
		off += inst.Len
		// After a control-flow break the following instruction begins a
		// new orphan chunk.
		chunkStart = inst.Class.IsBranch() && inst.Class != x86.ClassCallRel &&
			inst.Class != x86.ClassCallInd && inst.Class != x86.ClassJccRel ||
			inst.Class == x86.ClassHlt || inst.Class == x86.ClassUD
	}
}

func markRange(covered []bool, off, n int) {
	for i := 0; i < n && off+i < len(covered); i++ {
		covered[off+i] = true
	}
}

// PrologueKind classifies what a gap chunk starts with.
type PrologueKind int

// Prologue classifications.
const (
	// PrologueNone: no recognized pattern.
	PrologueNone PrologueKind = iota
	// PrologueFramePointer: [endbr] push rbp; mov rbp, rsp.
	PrologueFramePointer
	// PrologueEndbrOnly: an end-branch marker with no classic prologue.
	PrologueEndbrOnly
)

// ClassifyPrologue inspects the first instructions at va.
func ClassifyPrologue(bin *elfx.Binary, va uint64) PrologueKind {
	var buf [3]x86.Inst
	insts := decodeWindow(bin, va, buf[:0])
	if len(insts) == 0 {
		return PrologueNone
	}
	i := 0
	sawEndbr := false
	if insts[i].IsEndbr() {
		sawEndbr = true
		i++
	}
	if i+1 < len(insts) && isPushRBP(insts[i]) && isMovRBPRSP(insts[i+1]) {
		return PrologueFramePointer
	}
	if sawEndbr {
		return PrologueEndbrOnly
	}
	return PrologueNone
}

// ContainsEarlyCall reports whether a direct call appears within the
// first n instructions at va (the "orphan code rescue" heuristic).
func ContainsEarlyCall(bin *elfx.Binary, va uint64, n int) bool {
	buf := make([]x86.Inst, 0, n)
	for _, inst := range decodeWindow(bin, va, buf) {
		if inst.Class == x86.ClassCallRel || inst.Class == x86.ClassCallInd {
			return true
		}
	}
	return false
}

// decodeWindow fills out (an empty slice whose capacity bounds the
// window) with successive instructions starting at va.
func decodeWindow(bin *elfx.Binary, va uint64, out []x86.Inst) []x86.Inst {
	if !bin.InText(va) {
		return nil
	}
	var inst x86.Inst
	off := va - bin.TextAddr
	for len(out) < cap(out) && off < uint64(len(bin.Text)) {
		if err := decodeAt(bin, bin.TextAddr+off, &inst); err != nil {
			break
		}
		out = append(out, inst)
		off += uint64(inst.Len)
	}
	return out
}

func isPushRBP(inst x86.Inst) bool {
	return inst.OpcodeMap == 1 && inst.Opcode == 0x55
}

func isMovRBPRSP(inst x86.Inst) bool {
	// 48 89 E5 (x86-64) or 89 E5 (x86): mov rbp/ebp, rsp/esp.
	return inst.OpcodeMap == 1 && inst.Opcode == 0x89 &&
		inst.HasModRM && inst.ModRM == 0xE5
}
