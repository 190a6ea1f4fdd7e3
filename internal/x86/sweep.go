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
// address-range queries without re-decoding. It costs a records sweep
// plus a second decode of every instruction into ~112 bytes each, so
// only passes that read whole instructions (the baseline tool models'
// recursive descent, code-reference and stack-height scans) build one;
// FunSeeker's own identification reads the sparse Records instead. An
// Index is immutable after construction and safe for concurrent
// readers.
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
	// StitchRetries counts the instructions and skipped bytes the sharded
	// sweep re-decoded sequentially at shard seams before the speculative
	// shard streams re-synchronized (0 for a sequential build).
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
// The build is two-pass: the records sweep (SweepRecords) finds every
// instruction boundary, then an exact-size materialization pass decodes
// straight into the final Insts slots. Profiles showed the old
// single-pass append build spending over 70% of its time in growth
// memmoves and per-instruction struct copies — Inst is ~112 bytes
// against a ~3-byte average encoding, so the copy traffic dwarfs the
// decode itself. A second decode pass is cheaper than one round of
// copying.
func BuildIndex(code []byte, base uint64, mode Mode) *Index {
	idx, _ := buildIndex(noCancel, code, base, mode, 1)
	return idx
}

// buildIndex is the shared build behind BuildIndex, BuildIndexParallel
// and BuildIndexParallelCtx: one records sweep under the workers
// strategy, then materialize. A context that can never cancel
// (noCancel / context.Background) skips every per-stride check.
func buildIndex(ctx context.Context, code []byte, base uint64, mode Mode, workers int) (*Index, error) {
	r, err := SweepRecords(ctx, code, base, mode, workers)
	if err != nil {
		return nil, err
	}
	return r.materialize(ctx, code, mode, planShards(len(code), workers).conc)
}

// materialize builds the Index of a finished sweep: the rank directory
// over the sweep's boundary bitmap, then every boundary decoded directly
// into its final slot. Walking the bitmap instead of re-sweeping means
// skipped (undecodable) bytes are never touched again, and decode
// determinism guarantees every decode here succeeds with the length the
// sweep measured. Pieces of maxShardBytes of text are decoded by up to
// conc goroutines into disjoint windows of Insts. The index takes over
// r's bitmap.
func (r *Records) materialize(ctx context.Context, code []byte, mode Mode, conc int) (*Index, error) {
	words := len(r.bits)
	idx := &Index{
		Base:          r.Base,
		Skipped:       r.Skipped,
		Shards:        r.Shards,
		StitchRetries: r.StitchRetries,
		bits:          r.bits,
		ranks:         make([]int32, words),
		n:             r.n,
	}
	var c int32
	for w, word := range idx.bits {
		idx.ranks[w] = c
		c += int32(bits.OnesCount64(word))
	}
	idx.Insts = make([]Inst, c)
	const piece = maxShardBytes / 64 // bitmap words per work unit
	done := ctx.Done()
	runParallel((words+piece-1)/piece, conc, func(p int) {
		lo, hi := p*piece, (p+1)*piece
		if hi > words {
			hi = words
		}
		next := lo << 6
		for w := lo; w < hi; w++ {
			if done != nil && w<<6 >= next {
				if ctx.Err() != nil {
					return
				}
				next = w<<6 + cancelStride
			}
			i := idx.ranks[w]
			for word := idx.bits[w]; word != 0; word &= word - 1 {
				off := w<<6 + bits.TrailingZeros64(word)
				_ = DecodeInto(code[off:], r.Base+uint64(off), mode, &idx.Insts[i])
				i++
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
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
