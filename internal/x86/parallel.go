package x86

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// minParallelBytes is the smallest text SweepRecords will shard
// when asked to pick a worker count itself: below this the goroutine
// fan-out and seam stitching cost more than the decode. This is the
// single auto-selection threshold — internal/analysis delegates to it by
// always requesting workers <= 0.
const minParallelBytes = 256 << 10

// minShardBytes is the smallest chunk the auto worker-count picker will
// hand a shard. Explicit worker counts bypass it (tests deliberately
// shard tiny texts to force odd seam placements).
const minShardBytes = 64 << 10

// maxShardBytes caps how much text one shard covers. Shard count is
// decoupled from worker count: workers bounds *concurrency* while the
// atomic work-stealing counter in runParallel hands out shards, so
// splitting a large text into more, smaller shards costs nothing and
// wins twice — per-shard working set (code + boundary bitmap) stays
// cache-sized, and stragglers shrink because a slow core holds at most
// one small shard, not 1/workers of the text. Low explicit worker
// counts on big texts otherwise run measurably *slower* than
// sequential (the workers=2 row on the 1 MiB bench corpus).
const maxShardBytes = 128 << 10

// shardScratch is one worker's reusable decode buffers: the skip
// offsets, the shard-local boundary bitmap, and the shard's speculative
// sparse records. Instances are pooled — a corpus run sweeps thousands
// of binaries and the buffers are pure scratch, so recycling them
// removes the dominant per-sweep allocations.
//
// The bitmap and the ascending skip offsets together answer the seam
// resolver's one question, "has this shard's stream visited offset X?"
// (shard.visited), so phase 0 never materializes an instruction: a
// chunk's speculative decode is described by about 0.2 bytes of scratch
// per byte instead of the ~35 bytes/byte an Inst stream costs (112-byte
// Inst per ~3-byte encoding). That footprint was the workers=8 collapse:
// eight full-size speculative Inst buffers live at once put the build
// allocation-bound (174-208 MB/op) instead of decode-bound.
type shardScratch struct {
	skips  []int32
	bits   []uint64
	endbrs []uint64
	calls  []Ref
	jumps  []Ref
}

var scratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

// shard is one worker's speculative decode of a chunk of the text.
//
// A linear sweep carries no state between instructions beyond the cursor
// offset — decoding is a pure function of the start offset. That is what
// makes speculative sharding sound: a shard decoded from its chunk start
// may begin misaligned with the true (sequential) instruction stream,
// but x86's self-synchronization property means the two streams merge
// after a handful of instructions, and from the first shared cursor
// offset onward they are identical by determinism.
//
// Chunk starts are 64-byte aligned so each shard-local boundary bitmap
// word maps one-to-one onto a word of the final bitmap and can be
// stitched by whole-word OR instead of re-walking the instructions.
type shard struct {
	start int // chunk start offset (relative to code[0]), 64-byte aligned
	end   int // chunk end offset; the stream may overrun it
	final int // cursor offset after the last decode step (>= end)
	sc    *shardScratch
}

// shardPlan is the sharding geometry of one sweep: shards chunks of
// chunk bytes (the last one takes the remainder), decoded by at most
// conc goroutines. A sequential sweep is one shard of the whole text.
type shardPlan struct {
	chunk, shards, conc int
}

// planShards picks the geometry for n bytes of code. workers <= 0
// selects a count from GOMAXPROCS and the text size and falls back to
// one shard for small texts; an explicit workers >= 2 shards whenever
// every worker can get at least one aligned 64-byte chunk (tests force
// odd seam placements this way). Shard count sets seam geometry; the
// number of shards decoding concurrently is capped separately.
func planShards(n, workers int) shardPlan {
	auto := workers <= 0
	if auto {
		workers = runtime.GOMAXPROCS(0)
		if mx := n / minShardBytes; workers > mx {
			workers = mx
		}
	}
	if workers < 2 || (auto && n < minParallelBytes) {
		return shardPlan{chunk: n, shards: 1, conc: 1}
	}
	// Chunks are rounded down to 64-byte multiples so shard-local bitmap
	// words coincide with final bitmap words. A zero chunk means the
	// text is too small to give every worker an aligned chunk; decoding
	// it sequentially is both correct and faster.
	chunk := (n / workers) &^ 63
	if chunk == 0 {
		return shardPlan{chunk: n, shards: 1, conc: 1}
	}
	shards := workers
	if chunk > maxShardBytes {
		chunk = maxShardBytes
		shards = (n + chunk - 1) / chunk
		// A tail chunk below one bitmap word merges into its
		// predecessor, mirroring the last-shard handling in
		// sweepSharded.
		if shards > 1 && n-(shards-1)*chunk < 64 {
			shards--
		}
	}
	// Concurrency is capped at both GOMAXPROCS and the physical core
	// count: goroutines beyond either cannot add decode throughput, they
	// only add scheduler churn and keep more scratch live at once (the
	// old one-goroutine-per-shard design is what made high worker counts
	// collapse on small machines, and a GOMAXPROCS pinned above NumCPU —
	// the bench's gomaxprocs=N series on a small host — reproduces the
	// same collapse without the cores cap).
	conc := workers
	if p := runtime.GOMAXPROCS(0); conc > p {
		conc = p
	}
	if p := runtime.NumCPU(); conc > p {
		conc = p
	}
	return shardPlan{chunk: chunk, shards: shards, conc: conc}
}

// sweepSharded is the records sweep, and its loop (shard.decode) is the
// only sweep loop in the package: a sequential sweep is one shard of the
// whole text, decoded inline. Phase 0 decodes the chunks
// speculatively in parallel, each shard recording boundary bits into a
// chunk-local bitmap, skipped offsets, and its sparse records into
// pooled scratch. Phase A (stitch) walks the seams sequentially and
// assembles the final records directly: seam instructions re-decoded
// until each speculative stream agrees with the authoritative cursor,
// then the shard's records from the splice point on, its skips counted
// and its bitmap OR-ed in by whole words. No instruction is
// materialized on either phase.
func sweepSharded(ctx context.Context, code []byte, base uint64, mode Mode, g shardPlan) (*Records, error) {
	shards := make([]shard, g.shards)
	for i := range shards {
		s, e := i*g.chunk, (i+1)*g.chunk
		if i == g.shards-1 {
			e = len(code)
		}
		shards[i] = shard{start: s, end: e, sc: scratchPool.Get().(*shardScratch)}
	}
	defer func() {
		for i := range shards {
			scratchPool.Put(shards[i].sc)
			shards[i].sc = nil
		}
	}()
	runParallel(len(shards), g.conc, func(i int) { shards[i].decode(ctx, code, base, mode) })
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return stitch(ctx, shards, code, base, mode)
}

// runParallel calls fn(i) for every i in [0, n) with at most conc
// goroutines handing out indexes through an atomic counter. A conc of 1
// runs inline — the sharded geometry is preserved (seam placement,
// Shards count) without spawning anything.
func runParallel(n, conc int, fn func(i int)) {
	if conc <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if conc > n {
		conc = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// decode runs the speculative sweep of one chunk: from start until the
// cursor reaches the chunk end (the final instruction may overrun it),
// recording each decode step in the chunk-local boundary bitmap or the
// skip offsets, and the shard's sparse records. A canceled ctx stops
// the shard at the next cancelStride boundary; the caller discards
// every shard after noticing the cancellation.
func (sh *shard) decode(ctx context.Context, code []byte, base uint64, mode Mode) {
	sc := sh.sc
	words := (sh.end - sh.start + 63) / 64
	bm := sc.bits
	if cap(bm) < words {
		bm = make([]uint64, words)
	} else {
		bm = bm[:words]
		clear(bm)
	}
	sc.skips, sc.endbrs, sc.calls, sc.jumps = sc.skips[:0], sc.endbrs[:0], sc.calls[:0], sc.jumps[:0]
	sc.bits = bm

	done := ctx.Done()
	tab := lenTableFor(mode)
	var inst Inst // the full decoder's scratch, for encodings the core declines
	start, end := sh.start, sh.end
	off, next := start, start
	for off < end {
		if done != nil && off >= next {
			if ctx.Err() != nil {
				return
			}
			next = off + cancelStride
		}
		rel := off - start
		// Most steps are one table load (lentab.go).
		if n := tableLen(tab, code, off); n != 0 {
			bm[rel>>6] |= 1 << (rel & 63)
			off += n
			continue
		}
		n, class, target, ok := scan(code[off:], base+uint64(off), mode, nil)
		if !ok {
			n, class, target, ok = decodeFull(code[off:], base+uint64(off), mode, &inst)
		}
		if !ok {
			sc.skips = append(sc.skips, int32(off))
			off++
			continue
		}
		bm[rel>>6] |= 1 << (rel & 63)
		if class.recorded() {
			sc.endbrs, sc.calls, sc.jumps = appendRecord(sc.endbrs, sc.calls, sc.jumps, base+uint64(off), class, target)
		}
		off += n
	}
	sh.final = off
}

// stitch walks the shards in cursor order and assembles the final
// records. At each seam the cursor either lands on an offset the shard
// visited (shard.visited), after which the shard's remaining
// stream is authoritative and is spliced in wholesale (records at or
// above the splice point, skips counted, bitmap OR-ed from the splice
// bit on) — or instructions are re-decoded one at a time from the true
// boundary, each counted as a stitch retry, until the streams
// re-synchronize. The output is identical to a one-shard sweep's, where
// the single shard's stream is spliced whole.
func stitch(ctx context.Context, shards []shard, code []byte, base uint64, mode Mode) (*Records, error) {
	r := newRecords(base, len(code))
	r.Shards = len(shards)
	ne, nc, nj := 0, 0, 0
	for i := range shards {
		ne += len(shards[i].sc.endbrs)
		nc += len(shards[i].sc.calls)
		nj += len(shards[i].sc.jumps)
	}
	r.Endbrs = make([]uint64, 0, ne)
	r.Calls = make([]Ref, 0, nc)
	r.Jumps = make([]Ref, 0, nj)

	done := ctx.Done()
	tab := lenTableFor(mode)
	cur, next := 0, 0
	var inst Inst
	for i := range shards {
		sh := &shards[i]
		for cur < sh.end {
			if done != nil && cur >= next {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				next = cur + cancelStride
			}
			if sh.visited(cur) {
				// The speculative stream visited this offset (instruction
				// or skip): everything from here on is authoritative.
				r.splice(sh, cur)
				cur = sh.final
				break
			}
			// The seam split an instruction: decode from the true
			// boundary until the speculative stream agrees.
			r.StitchRetries++
			if n := tableLen(tab, code, cur); n != 0 {
				r.bits[cur>>6] |= 1 << (cur & 63)
				cur += n
				continue
			}
			n, class, target, ok := scan(code[cur:], base+uint64(cur), mode, nil)
			if !ok {
				n, class, target, ok = decodeFull(code[cur:], base+uint64(cur), mode, &inst)
			}
			if !ok {
				r.Skipped++
				cur++
				continue
			}
			r.add(cur, class, target)
			cur += n
		}
	}
	// The last shard decodes to len(code) and chunks are wider than any
	// instruction, so the stream is complete once it is spliced or its
	// seam walk reaches the end; nothing is left to decode here.
	return r, nil
}

// visited reports whether the shard's speculative stream stepped on
// offset cur: an instruction starts there (its boundary bit) or the byte
// was skipped (its skip offset). From such an offset on, the shard's
// stream is the sequential one.
func (sh *shard) visited(cur int) bool {
	rel := cur - sh.start
	if rel < 0 {
		return false
	}
	if sh.sc.bits[rel>>6]&(1<<(rel&63)) != 0 {
		return true
	}
	_, skipped := slices.BinarySearch(sh.sc.skips, int32(cur))
	return skipped
}

// splice appends the authoritative suffix [from, sh.final) of a shard's
// speculative stream.
func (r *Records) splice(sh *shard, from int) {
	sc := sh.sc
	va := r.Base + uint64(from)
	e := sort.Search(len(sc.endbrs), func(i int) bool { return sc.endbrs[i] >= va })
	r.Endbrs = append(r.Endbrs, sc.endbrs[e:]...)
	c := sort.Search(len(sc.calls), func(i int) bool { return sc.calls[i].Src >= va })
	r.Calls = append(r.Calls, sc.calls[c:]...)
	j := sort.Search(len(sc.jumps), func(i int) bool { return sc.jumps[i].Src >= va })
	r.Jumps = append(r.Jumps, sc.jumps[j:]...)
	k := sort.Search(len(sc.skips), func(i int) bool { return sc.skips[i] >= int32(from) })
	r.Skipped += len(sc.skips) - k

	rel := from - sh.start
	gw, wf := sh.start>>6, rel>>6
	if wf < len(sc.bits) {
		r.bits[gw+wf] |= sc.bits[wf] &^ (1<<(rel&63) - 1)
		for w := wf + 1; w < len(sc.bits); w++ {
			r.bits[gw+w] |= sc.bits[w]
		}
	}
}
