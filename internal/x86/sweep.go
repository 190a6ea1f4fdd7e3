package x86

import (
	"context"
	"math/bits"
)

// noCancel is the context used by the non-Ctx entry points: Done() is
// nil, so every cooperative-cancellation check compiles down to one
// predictable branch.
var noCancel = context.Background()

// LinearSweep disassembles code linearly from base, invoking fn for every
// decoded instruction. On a decode error the sweep re-synchronizes by
// advancing one byte, mirroring the recovery strategy used by FunSeeker
// (Kim et al., DSN 2022, §IV-B). fn may return false to stop the sweep.
//
// The *Inst passed to fn points at a single buffer reused across the
// whole sweep — this is what makes the sweep allocation-free. Callbacks
// that need the instruction beyond the callback's return must copy the
// pointee, never retain the pointer.
//
// The returned count is the number of bytes that had to be skipped due to
// decode errors, which is zero for well-formed compiler-generated text.
func LinearSweep(code []byte, base uint64, mode Mode, fn func(*Inst) bool) (skipped int) {
	if mode != Mode32 && mode != Mode64 {
		// DecodeInto fails on every byte of an unsupported mode; short-
		// circuit the same observable result (nothing decoded, every byte
		// skipped) without paying the per-byte error path.
		return len(code)
	}
	var inst Inst
	off := 0
	for off < len(code) {
		// Dispatch fast/slow directly: the mode check above hoists the
		// only work DecodeInto would add per instruction.
		if !decodeFast(code[off:], base+uint64(off), mode, &inst) {
			if err := decodeSlow(code[off:], base+uint64(off), mode, &inst); err != nil {
				off++
				skipped++
				continue
			}
		}
		if !fn(&inst) {
			return skipped
		}
		off += inst.Len
	}
	return skipped
}

// Index is the materialized form of one linear sweep: every decoded
// instruction in address order plus enough bookkeeping to answer
// address-range queries without re-decoding. Building the index costs one
// sweep; afterwards any number of passes (entry identification, end-branch
// classification, property studies, code-reference scans) can share it,
// which is what makes the per-binary analysis context cheap. An Index is
// immutable after construction and safe for concurrent readers.
type Index struct {
	// Insts holds every decoded instruction in ascending address order.
	Insts []Inst
	// Base is the virtual address decoding started at.
	Base uint64
	// Skipped is the number of bytes the sweep had to skip to
	// re-synchronize after decode errors (zero for well-formed
	// compiler-generated text).
	Skipped int
	// Shards is the number of shards the index was decoded with
	// (1 for a sequential BuildIndex).
	Shards int
	// StitchRetries counts the instructions BuildIndexParallel had to
	// re-decode sequentially at shard seams before the speculative shard
	// streams re-synchronized (0 for a sequential build).
	StitchRetries int

	// Instruction boundaries are stored as a rank/select bitmap: one bit
	// per code byte (set = an instruction starts there) plus a per-word
	// running popcount so At/AtPtr resolve in O(1). Compared to the
	// earlier []int32 offset→position table this is 4 bytes/byte → 0.625
	// bytes/byte (boundary word + int32 rank per 64 bytes of text) and
	// skips the O(n) "-1" fill that dominated BuildIndex setup for large
	// texts; benchmarks showed the single extra popcount per lookup is
	// free next to the cache-miss the old 4×-larger table took.
	bits  []uint64
	ranks []int32
	n     int // len(code) the index was built over
}

// BuildIndex runs one sequential linear sweep over code and materializes
// it. For large texts BuildIndexParallel produces an identical index
// faster.
//
// The build is two-pass: a counting sweep that records only the boundary
// bitmap (one reused cache-resident Inst, no stores into a growing
// slice), then an exact-size materialization pass that decodes straight
// into the final Insts slots. Profiles showed the old single-pass
// append build spending over 70% of its time in growth memmoves and
// per-instruction struct copies — Inst is ~112 bytes against a ~3-byte
// average encoding, so the copy traffic dwarfs the decode itself. A
// second decode pass is cheaper than one round of copying, and it
// leaves the index allocating only its three final arrays.
func BuildIndex(code []byte, base uint64, mode Mode) *Index {
	idx, _ := buildIndexSeq(noCancel, code, base, mode)
	return idx
}

// buildIndexSeq is the shared sequential build behind BuildIndex and the
// single-shard fallback of BuildIndexParallelCtx. A context that can
// never cancel (noCancel / context.Background) skips every per-stride
// check.
func buildIndexSeq(ctx context.Context, code []byte, base uint64, mode Mode) (*Index, error) {
	words := (len(code) + 63) / 64
	idx := &Index{
		Base:   base,
		Shards: 1,
		bits:   make([]uint64, words),
		ranks:  make([]int32, words),
		n:      len(code),
	}
	done := ctx.Done()
	// Pass 1: count instructions and set boundary bits.
	var inst Inst
	total := 0
	off, next := 0, 0
	for off < len(code) {
		if done != nil && off >= next {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			next = off + cancelStride
		}
		if err := DecodeInto(code[off:], base+uint64(off), mode, &inst); err != nil {
			off++
			idx.Skipped++
			continue
		}
		idx.bits[off>>6] |= 1 << (off & 63)
		total++
		off += inst.Len
	}
	var c int32
	for w, word := range idx.bits {
		idx.ranks[w] = c
		c += int32(bits.OnesCount64(word))
	}
	// Pass 2: decode each boundary directly into its final slot. Walking
	// the bitmap instead of re-sweeping means skipped (undecodable) bytes
	// are never touched again, and decode determinism guarantees every
	// decode here succeeds with the same length as pass 1.
	idx.Insts = make([]Inst, total)
	i := 0
	next = 0
	for w, word := range idx.bits {
		if done != nil && w<<6 >= next {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			next = w<<6 + cancelStride
		}
		for word != 0 {
			off := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			_ = DecodeInto(code[off:], base+uint64(off), mode, &idx.Insts[i])
			i++
		}
	}
	return idx, nil
}

// lookup returns the position in Insts of the instruction starting at
// byte offset off, or -1 if no boundary falls there.
func (ix *Index) lookup(off uint64) int {
	if off >= uint64(ix.n) {
		return -1
	}
	w, b := off>>6, off&63
	word := ix.bits[w]
	if word>>b&1 == 0 {
		return -1
	}
	return int(ix.ranks[w]) + bits.OnesCount64(word&(1<<b-1))
}

// At returns the instruction decoded at exactly va, if the sweep placed an
// instruction boundary there.
func (ix *Index) At(va uint64) (Inst, bool) {
	p := ix.lookup(va - ix.Base)
	if p < 0 {
		return Inst{}, false
	}
	return ix.Insts[p], true
}

// AtPtr returns a pointer into the index for the instruction decoded at
// exactly va, or nil if no instruction boundary falls there. The pointee
// is shared with every other reader and must not be modified; the
// pointer form exists because Inst is large enough that copying it
// dominates hot per-instruction loops.
func (ix *Index) AtPtr(va uint64) *Inst {
	p := ix.lookup(va - ix.Base)
	if p < 0 {
		return nil
	}
	return &ix.Insts[p]
}

// Range returns the instructions whose addresses fall in [lo, hi), as a
// subslice of the index (callers must not mutate it).
func (ix *Index) Range(lo, hi uint64) []Inst {
	if hi <= lo {
		return nil
	}
	return ix.Insts[ix.searchAddr(lo):ix.searchAddr(hi)]
}

// searchAddr returns the position of the first instruction with
// Addr >= va.
func (ix *Index) searchAddr(va uint64) int {
	lo, hi := 0, len(ix.Insts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.Insts[mid].Addr < va {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
