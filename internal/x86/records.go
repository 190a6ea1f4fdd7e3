package x86

import (
	"context"
	"fmt"
	"math/bits"
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
// it does not read. The sweep decodes every instruction once, reading
// only its length, class and branch target, and keeps only:
//
//   - the instruction-boundary bitmap (one bit per text byte), which is
//     what answers "which instruction precedes this one?";
//   - the end-branch addresses E;
//   - every direct call and direct jump (unconditional and conditional)
//     with its target, from which C and J derive.
//
// For compiler-generated text that is under 1 byte of output per byte of
// code (0.7–0.9 on the synthetic SPEC corpus), against ~37 bytes per byte
// for one stored Inst per instruction. Callers that need full
// instructions (the baseline tool models) re-decode them on demand with
// DecodeInto. A Records value is immutable after construction and safe
// for concurrent readers.
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
// records. workers selects the strategy: workers <= 0 picks a count from
// GOMAXPROCS and the text size (one shard below minParallelBytes),
// workers == 1 is the sequential sweep — one shard covering the whole
// text — and an explicit workers >= 2 shards the text (see sweepSharded
// for the seam stitching). Every strategy produces identical records.
// Cancellation is checked at cancelStride boundaries; on cancellation it
// returns (nil, ctx.Err()).
func SweepRecords(ctx context.Context, code []byte, base uint64, mode Mode, workers int) (*Records, error) {
	if mode != Mode32 && mode != Mode64 {
		// Nothing decodes in an unsupported mode; skip the per-byte
		// error path (see LinearSweep).
		r := newRecords(base, len(code))
		r.Skipped = len(code)
		return r, nil
	}
	return sweepSharded(ctx, code, base, mode, planShards(len(code), workers))
}

// newRecords allocates the records of one sweep over n bytes of code.
func newRecords(base uint64, n int) *Records {
	return &Records{Base: base, Shards: 1, bits: make([]uint64, (n+63)/64), n: n}
}

// add records one decoded instruction at byte offset off: its boundary
// bit plus, for the three classes FunSeeker reads, its sparse record.
func (r *Records) add(off int, class Class, target uint64) {
	r.bits[off>>6] |= 1 << (off & 63)
	r.Endbrs, r.Calls, r.Jumps = appendRecord(r.Endbrs, r.Calls, r.Jumps, r.Base+uint64(off), class, target)
}

// recorded reports whether instructions of class c have a sparse record:
// the end branches and the direct branches, which are contiguous Class
// values so the sweep's per-instruction test is one compare. Testing it
// ahead of appendRecord spares the other instructions the write-back of
// three slice headers, about 15% of the sequential records sweep.
func (c Class) recorded() bool { return c >= ClassEndbr64 && c <= ClassJccRel }

// appendRecord appends the sparse record of the instruction at addr, if
// its class has one. Every direct-branch class carries its target.
func appendRecord(endbrs []uint64, calls, jumps []Ref, addr uint64, class Class, target uint64) ([]uint64, []Ref, []Ref) {
	switch class {
	case ClassEndbr64, ClassEndbr32:
		endbrs = append(endbrs, addr)
	case ClassCallRel:
		calls = append(calls, Ref{Src: addr, Target: target})
	case ClassJmpRel, ClassJccRel:
		jumps = append(jumps, Ref{Src: addr, Target: target, Cond: class == ClassJccRel})
	}
	return endbrs, calls, jumps
}

// decodeFull is the records sweep's fallback where the core (scan) declines:
// the full decoder's length, class and target (inst is its scratch). ok
// is false for undecodable bytes.
func decodeFull(code []byte, addr uint64, mode Mode, inst *Inst) (n int, class Class, target uint64, ok bool) {
	if decodeSlow(code, addr, mode, inst) != nil {
		return 0, ClassOther, 0, false
	}
	return inst.Len, inst.Class, inst.Target, true
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

// AfterCalls calls f, in ascending order, for every end branch whose
// preceding decoded instruction is a direct call, with that call's
// target — "preceding" in the sweep's own stream, so undecodable bytes
// between the two are stepped over, exactly as a walk over the decoded
// instructions would. It is one merge walk over the
// ascending Endbrs and Calls: each end branch's previous boundary comes
// from the bitmap, and the call cursor only moves forward.
func (r *Records) AfterCalls(f func(endbr, target uint64)) {
	c := 0
	for _, e := range r.Endbrs {
		if e < r.Base || e-r.Base >= uint64(r.n) {
			continue // address wrapped past the top of the address space
		}
		p := r.prevBoundary(int(e - r.Base))
		if p < 0 {
			continue
		}
		src := r.Base + uint64(p)
		for c < len(r.Calls) && r.Calls[c].Src < src {
			c++
		}
		if c < len(r.Calls) && r.Calls[c].Src == src {
			f(e, r.Calls[c].Target)
		}
	}
}

// ReferenceRecords is the reference the records sweep is checked
// against: LinearSweep's own loop, recording every decoded instruction
// into fresh records. internal/diffcheck compares SweepRecords with it,
// for every worker count, on every generated binary.
func ReferenceRecords(code []byte, base uint64, mode Mode) *Records {
	r := newRecords(base, len(code))
	r.Skipped = LinearSweep(code, base, mode, func(inst *Inst) bool {
		r.add(int(inst.Addr-base), inst.Class, inst.Target)
		return true
	})
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
