package x86

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
)

// Ref is one direct branch the sweep decoded: the instruction's address,
// its absolute destination, and whether it is conditional (always false
// for calls).
type Ref struct {
	Src    uint64
	Target uint64
	Cond   bool
}

// Records is the sparse product of one linear sweep — exactly what
// FunSeeker's DISASSEMBLE step (paper Algorithm 1) returns, and nothing
// it does not read. The sweep decodes every instruction once into a
// single reused Inst and keeps only:
//
//   - the instruction-boundary bitmap (one bit per text byte), which is
//     what answers "which instruction precedes this one?";
//   - the end-branch addresses E;
//   - every direct call and direct jump (unconditional and conditional)
//     with its target, from which C and J derive.
//
// For compiler-generated text that is under 1 byte of output per byte of
// code (0.7–0.9 on the synthetic SPEC corpus), against ~37 bytes per byte
// for a materialized Index. Callers
// that need full instructions (the baseline tool models) build an Index
// instead. A Records value is immutable after construction and safe for
// concurrent readers.
type Records struct {
	// Base is the virtual address decoding started at.
	Base uint64
	// Skipped is the number of bytes the sweep skipped to re-synchronize
	// after decode errors (zero for well-formed compiler-generated text).
	Skipped int
	// Shards is the number of shards the text was decoded in (1 for a
	// sequential sweep).
	Shards int
	// StitchRetries counts the instructions and skipped bytes the
	// sharded sweep re-decoded sequentially at shard seams before the
	// speculative shard streams re-synchronized (0 for a sequential
	// sweep).
	StitchRetries int

	// Endbrs is every end-branch instruction address, ascending.
	Endbrs []uint64
	// Calls is every direct call (ClassCallRel with a target), ascending
	// by Src.
	Calls []Ref
	// Jumps is every direct jump (ClassJmpRel / ClassJccRel with a
	// target), ascending by Src.
	Jumps []Ref

	bits []uint64 // instruction-boundary bitmap, bit i = offset i
	n    int      // len(code) the sweep ran over
}

// SweepRecords runs one linear sweep over code and returns its sparse
// records. workers selects the strategy exactly as for
// BuildIndexParallel: workers <= 0 picks a count from GOMAXPROCS and the
// text size (sequential below minParallelBytes), workers == 1 is the
// sequential sweep, and an explicit workers >= 2 shards the text. Every
// strategy produces identical records. Cancellation is checked at
// cancelStride boundaries; on cancellation it returns (nil, ctx.Err()).
func SweepRecords(ctx context.Context, code []byte, base uint64, mode Mode, workers int) (*Records, error) {
	g := planShards(len(code), workers)
	if g.shards < 2 || (mode != Mode32 && mode != Mode64) {
		return sweepSeq(ctx, code, base, mode)
	}
	return sweepSharded(ctx, code, base, mode, g)
}

// newRecords allocates the records of one sweep over n bytes of code.
func newRecords(base uint64, n int) *Records {
	return &Records{Base: base, Shards: 1, bits: make([]uint64, (n+63)/64), n: n}
}

// add records one decoded instruction at byte offset off: its boundary
// bit plus, for the three classes FunSeeker reads, its sparse record.
func (r *Records) add(off int, inst *Inst) {
	r.bits[off>>6] |= 1 << (off & 63)
	r.Endbrs, r.Calls, r.Jumps = appendRecord(r.Endbrs, r.Calls, r.Jumps, inst)
}

// appendRecord appends inst's sparse record, if its class has one.
func appendRecord(endbrs []uint64, calls, jumps []Ref, inst *Inst) ([]uint64, []Ref, []Ref) {
	switch inst.Class {
	case ClassEndbr64, ClassEndbr32:
		endbrs = append(endbrs, inst.Addr)
	case ClassCallRel:
		if inst.HasTarget {
			calls = append(calls, Ref{Src: inst.Addr, Target: inst.Target})
		}
	case ClassJmpRel, ClassJccRel:
		if inst.HasTarget {
			jumps = append(jumps, Ref{Src: inst.Addr, Target: inst.Target, Cond: inst.Class == ClassJccRel})
		}
	}
	return endbrs, calls, jumps
}

// sweepSeq is the sequential records sweep: one decode per instruction
// into a reused Inst, re-synchronizing one byte at a time after decode
// errors like LinearSweep.
func sweepSeq(ctx context.Context, code []byte, base uint64, mode Mode) (*Records, error) {
	r := newRecords(base, len(code))
	if mode != Mode32 && mode != Mode64 {
		// Nothing decodes in an unsupported mode; skip the per-byte
		// error path (see LinearSweep).
		r.Skipped = len(code)
		return r, nil
	}
	done := ctx.Done()
	var inst Inst
	bm := r.bits
	var endbrs []uint64
	var calls, jumps []Ref
	off, next := 0, 0
	for off < len(code) {
		if done != nil && off >= next {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			next = off + cancelStride
		}
		if !decodeFast(code[off:], base+uint64(off), mode, &inst) {
			if err := decodeSlow(code[off:], base+uint64(off), mode, &inst); err != nil {
				off++
				r.Skipped++
				continue
			}
		}
		bm[off>>6] |= 1 << (off & 63)
		endbrs, calls, jumps = appendRecord(endbrs, calls, jumps, &inst)
		off += inst.Len
	}
	r.Endbrs, r.Calls, r.Jumps = endbrs, calls, jumps
	return r, nil
}

// prevBoundary returns the offset of the last instruction boundary
// strictly below off, or -1 when none exists.
func (r *Records) prevBoundary(off int) int {
	w := off >> 6
	word := r.bits[w] & (1<<(off&63) - 1)
	for word == 0 {
		w--
		if w < 0 {
			return -1
		}
		word = r.bits[w]
	}
	return w<<6 + 63 - bits.LeadingZeros64(word)
}

// CallBefore reports the target of the direct call that is the decoded
// instruction immediately preceding the instruction at va — "preceding"
// in the sweep's own stream, so undecodable bytes between the two are
// stepped over, exactly as a walk over the materialized instructions
// would. ok is false when va is not inside the swept text, no
// instruction precedes it, or the preceding instruction is not a direct
// call.
func (r *Records) CallBefore(va uint64) (target uint64, ok bool) {
	if va < r.Base || va-r.Base >= uint64(r.n) {
		return 0, false
	}
	p := r.prevBoundary(int(va - r.Base))
	if p < 0 {
		return 0, false
	}
	src := r.Base + uint64(p)
	i := sort.Search(len(r.Calls), func(i int) bool { return r.Calls[i].Src >= src })
	if i == len(r.Calls) || r.Calls[i].Src != src {
		return 0, false
	}
	return r.Calls[i].Target, true
}

// Records derives the sparse records from a materialized index by
// walking its instructions, each decoded in full at its boundary. It is
// the reference internal/diffcheck checks the records sweep against,
// for every worker count, on every generated binary.
func (ix *Index) Records() *Records {
	r := newRecords(ix.Base, ix.n)
	r.Skipped, r.Shards, r.StitchRetries = ix.Skipped, ix.Shards, ix.StitchRetries
	for i := range ix.Insts {
		r.add(int(ix.Insts[i].Addr-ix.Base), &ix.Insts[i])
	}
	return r
}

// Diff describes the first difference between r and o in the sweep's
// output — boundaries, skipped bytes, end branches, calls, jumps — or
// returns "" when they agree. The shard accounting (Shards,
// StitchRetries) describes how a sweep ran, not what it found, and is
// not compared.
func (r *Records) Diff(o *Records) string {
	switch {
	case r.Base != o.Base || r.n != o.n:
		return fmt.Sprintf("swept [%#x,+%d) vs [%#x,+%d)", r.Base, r.n, o.Base, o.n)
	case r.Skipped != o.Skipped:
		return fmt.Sprintf("skipped %d bytes vs %d", r.Skipped, o.Skipped)
	}
	for w := range r.bits {
		if r.bits[w] != o.bits[w] {
			off := w<<6 + bits.TrailingZeros64(r.bits[w]^o.bits[w])
			return fmt.Sprintf("instruction boundary at %#x: %v vs %v",
				r.Base+uint64(off), r.bits[w]>>(off&63)&1, o.bits[w]>>(off&63)&1)
		}
	}
	if d := diffSlice("endbr", r.Endbrs, o.Endbrs); d != "" {
		return d
	}
	if d := diffSlice("call", r.Calls, o.Calls); d != "" {
		return d
	}
	return diffSlice("jump", r.Jumps, o.Jumps)
}

// diffSlice describes the first difference between two record streams.
func diffSlice[T comparable](what string, a, b []T) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("%s record %d: %+v vs %+v", what, i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d %s records vs %d", len(a), what, len(b))
	}
	return ""
}
