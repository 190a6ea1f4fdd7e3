package x86

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"
)

// sweepWorkers are the worker counts every records check runs: auto,
// sequential, and sharded counts chosen so seams land at unaligned
// offsets.
var sweepWorkers = []int{0, 1, 2, 3, 4, 7, 8}

// stitchWorkers extends sweepWorkers with 5 and 13: on 2-10 KiB texts
// 13 workers give ~128-byte shards, more shards than most hosts have
// cores, which loads the seams and the concurrency cap hardest.
var stitchWorkers = []int{0, 1, 2, 3, 4, 5, 7, 8, 13}

// checkRecords asserts, for every worker count in sweepWorkers, that the
// records sweep equals the LinearSweep reference, and returns the
// sweeps' shard counts by worker count.
func checkRecords(t *testing.T, label string, code []byte, base uint64, mode Mode) map[int]int {
	t.Helper()
	return checkRecordsWorkers(t, label, code, base, mode, sweepWorkers)
}

// checkRecordsWorkers is checkRecords over an explicit worker list.
func checkRecordsWorkers(t *testing.T, label string, code []byte, base uint64, mode Mode, workerList []int) map[int]int {
	t.Helper()
	want := ReferenceRecords(code, base, mode)
	shards := make(map[int]int, len(workerList))
	for _, workers := range workerList {
		got, err := SweepRecords(context.Background(), code, base, mode, workers)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		if d := got.Diff(want); d != "" {
			t.Fatalf("%s workers=%d (%d shards): %s", label, workers, got.Shards, d)
		}
		shards[workers] = got.Shards
	}
	return shards
}

// TestSweepRecordsMatchReference is the records-sweep soundness
// property: sequential == sharded == reference across compiler-shaped
// text in both modes, tiny texts whose seams land at odd offsets, and
// junk where most bytes are undecodable.
func TestSweepRecordsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		for _, mode := range []Mode{Mode32, Mode64} {
			for _, data := range []float64{0, 0.15, 0.5} {
				code := GenText(2048+rng.Intn(8192), mode, rng, data)
				checkRecords(t, mode.String(), code, uint64(0x400000+rng.Intn(1<<20)), mode)
			}
		}
	}
	// Tiny texts: the smallest sizes that still give 2..8 workers an
	// aligned chunk each, plus odd tails.
	for _, n := range []int{0, 1, 15, 64, 127, 128, 129, 191, 257, 512 + 37, 1000} {
		for _, mode := range []Mode{Mode32, Mode64} {
			code := GenText(n, mode, rng, 0.1)[:n]
			checkRecords(t, "tiny", code, 0x1000, mode)
		}
	}
	for trial := 0; trial < 6; trial++ {
		junk := make([]byte, 512+rng.Intn(4096))
		rng.Read(junk)
		for _, mode := range []Mode{Mode32, Mode64} {
			checkRecords(t, "junk", junk, 0x1000, mode)
		}
	}
	// Undecodable bytes only: every byte a skip.
	bad := make([]byte, 700)
	for i := range bad {
		bad[i] = 0x06 // push es: invalid in 64-bit mode
	}
	checkRecords(t, "undecodable", bad, 0x1000, Mode64)
}

// TestSweepRecordsOneShard pins the sequential sweep as one shard: for
// workers 1, and for auto on texts below minParallelBytes, the records
// report one shard and no stitch retries, on empty and 1-byte texts too,
// and equal the reference. An unsupported mode decodes nothing: every
// byte is skipped and no record is kept.
func TestSweepRecordsOneShard(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, mode := range []Mode{Mode32, Mode64} {
		texts := [][]byte{{}, {0xC3}, {0x0F}, GenText(4096, mode, rng, 0.1), GenText(minParallelBytes-1, mode, rng, 0)}
		for _, code := range texts {
			want := ReferenceRecords(code, 0x401000, mode)
			for _, workers := range []int{1, 0} {
				r, err := SweepRecords(context.Background(), code, 0x401000, mode, workers)
				if err != nil {
					t.Fatal(err)
				}
				if r.Shards != 1 || r.StitchRetries != 0 {
					t.Errorf("%v %d bytes workers=%d: %d shards, %d stitch retries, want 1 and 0",
						mode, len(code), workers, r.Shards, r.StitchRetries)
				}
				if d := r.Diff(want); d != "" {
					t.Errorf("%v %d bytes workers=%d: %s", mode, len(code), workers, d)
				}
			}
		}
	}
	for _, code := range [][]byte{{}, {0xC3}, bytes.Repeat([]byte{0xE8, 0, 0, 0, 0}, 100)} {
		for _, workers := range []int{1, 0, 4} {
			r, err := SweepRecords(context.Background(), code, 0x1000, Mode(16), workers)
			if err != nil {
				t.Fatal(err)
			}
			if r.Skipped != len(code) || len(r.Endbrs)+len(r.Calls)+len(r.Jumps) != 0 || r.Shards != 1 {
				t.Errorf("unsupported mode, %d bytes workers=%d: skipped %d, %d records, %d shards",
					len(code), workers, r.Skipped, len(r.Endbrs)+len(r.Calls)+len(r.Jumps), r.Shards)
			}
		}
	}
}

// TestBuildIndexMatchesLinearSweep: on a hand-assembled prologue the
// records sweep marks exactly LinearSweep's instruction boundaries,
// skips nothing, and records the one end branch and the one call.
// The name is kept from the retired index; the test checks SweepRecords.
func TestBuildIndexMatchesLinearSweep(t *testing.T) {
	code := []byte{
		0xF3, 0x0F, 0x1E, 0xFA, // endbr64
		0x55,             // push rbp
		0x48, 0x89, 0xE5, // mov rbp, rsp
		0xE8, 0x00, 0x00, 0x00, 0x00, // call +0
		0xC9, // leave
		0xC3, // ret
	}
	const base = 0x4000
	r, err := SweepRecords(context.Background(), code, base, Mode64, 1)
	if err != nil {
		t.Fatal(err)
	}
	var flat []int
	LinearSweep(code, base, Mode64, func(inst *Inst) bool {
		flat = append(flat, int(inst.Addr-base))
		return true
	})
	var marked []int
	for off := range code {
		if r.bits[off>>6]>>(off&63)&1 != 0 {
			marked = append(marked, off)
		}
	}
	if !slices.Equal(marked, flat) {
		t.Fatalf("records boundaries %v, LinearSweep %v", marked, flat)
	}
	if r.Skipped != 0 {
		t.Errorf("Skipped = %d on well-formed code", r.Skipped)
	}
	if want := []uint64{base}; !slices.Equal(r.Endbrs, want) {
		t.Errorf("Endbrs = %#x, want %#x", r.Endbrs, want)
	}
	if want := []Ref{{Src: base + 8, Target: base + 13}}; !slices.Equal(r.Calls, want) {
		t.Errorf("Calls = %+v, want %+v", r.Calls, want)
	}
	checkRecords(t, "prologue", code, base, Mode64)
}

// TestBuildIndexParallelMatchesSequential is the stitching soundness
// property: across random compiler-shaped corpora — with and without
// data-in-text — both modes, and worker counts chosen to land seams at
// unaligned offsets (up to 13 shards), the sharded records equal the
// sequential ones, and every explicit worker count gets its own shard.
// The name is kept from the retired BuildIndexParallel; the test checks
// SweepRecords.
func TestBuildIndexParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		n := 2048 + rng.Intn(8192)
		dataRatio := 0.0
		if trial%3 == 1 {
			dataRatio = 0.15 // data-in-text: seams can land mid-garbage
		}
		if trial%3 == 2 {
			dataRatio = 0.5 // pathological: half the bytes are data
		}
		for _, mode := range []Mode{Mode32, Mode64} {
			code := GenText(n, mode, rng, dataRatio)
			base := uint64(0x400000 + rng.Intn(1<<20))
			for workers, got := range checkRecordsWorkers(t, mode.String(), code, base, mode, stitchWorkers) {
				if workers >= 2 && got != workers {
					t.Fatalf("%s workers=%d: sweep reports %d shards", mode, workers, got)
				}
			}
		}
	}
}

// TestBuildIndexParallelPureGarbage: every byte random, maximal skip
// churn — the stitcher's skip accounting must still agree exactly.
// The name is kept from the retired index; the test checks SweepRecords.
func TestBuildIndexParallelPureGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		code := make([]byte, 1024+rng.Intn(4096))
		rng.Read(code)
		for _, mode := range []Mode{Mode32, Mode64} {
			checkRecords(t, mode.String(), code, 0x1000, mode)
		}
	}
}

// TestBuildIndexParallelSmallInputs: degenerate sizes must not panic or
// diverge — empty text, a single byte, fewer bytes than workers×15.
// The name is kept from the retired index; the test checks SweepRecords.
func TestBuildIndexParallelSmallInputs(t *testing.T) {
	for _, n := range []int{0, 1, 2, 14, 15, 16, 29, 64} {
		checkRecords(t, "small", bytes.Repeat([]byte{0x90}, n), 0, Mode64)
	}
}

// TestCallBeforeAcrossSeam places an endbr right after a seam, behind a
// direct call (the setjmp-family shape FILTERENDBR looks for) that
// straddles the seam, and again with an undecodable byte between the
// two: AfterCalls pairs the endbr with that call in both cases, for the
// sequential and every sharded sweep, and reports nothing else.
func TestCallBeforeAcrossSeam(t *testing.T) {
	const base = 0x401000
	type pair struct{ endbr, target uint64 }
	afterCalls := func(r *Records) []pair {
		var out []pair
		r.AfterCalls(func(e, target uint64) { out = append(out, pair{e, target}) })
		return out
	}
	for _, gap := range [][]byte{nil, {0x06}} {
		code := make([]byte, 256)
		for i := range code {
			code[i] = 0x90
		}
		// An endbr behind a nop: not after a call.
		copy(code[40:], []byte{0xF3, 0x0F, 0x1E, 0xFA})
		// call rel32 at 125..129 straddles the workers=2 seam at 128.
		const callAt = 125
		copy(code[callAt:], []byte{0xE8, 0x10, 0x00, 0x00, 0x00})
		endbrAt := callAt + 5 + len(gap)
		copy(code[callAt+5:], gap)
		copy(code[endbrAt:], []byte{0xF3, 0x0F, 0x1E, 0xFA})
		want := []pair{{base + uint64(endbrAt), base + callAt + 5 + 0x10}}
		for _, workers := range []int{1, 2, 3, 4} {
			r, err := SweepRecords(context.Background(), code, base, Mode64, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(r.Endbrs, base+uint64(endbrAt)) || !slices.Contains(r.Endbrs, base+40) {
				t.Fatalf("gap=%x workers=%d: endbrs not found: %#x", gap, workers, r.Endbrs)
			}
			if got := afterCalls(r); !slices.Equal(got, want) {
				t.Fatalf("gap=%x workers=%d: AfterCalls = %#x, want %#x", gap, workers, got, want)
			}
		}
	}
	// An endbr at the first instruction has no predecessor; a call
	// right before the second one pairs it.
	code := []byte{0xF3, 0x0F, 0x1E, 0xFA, 0xE8, 0, 0, 0, 0, 0xF3, 0x0F, 0x1E, 0xFA}
	r, _ := SweepRecords(context.Background(), code, base, Mode64, 1)
	if got, want := afterCalls(r), []pair{{base + 9, base + 9}}; !slices.Equal(got, want) {
		t.Fatalf("AfterCalls = %#x, want %#x", got, want)
	}
}
