package x86

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// refRecords is the test reference for the records sweep: LinearSweep's
// own loop, recording every decoded instruction into fresh records.
func refRecords(code []byte, base uint64, mode Mode) *Records {
	r := newRecords(base, len(code))
	r.Skipped = LinearSweep(code, base, mode, func(inst *Inst) bool {
		r.add(int(inst.Addr-base), inst)
		return true
	})
	return r
}

// checkRecords asserts, for every worker count, that the records sweep
// equals the LinearSweep reference and the records derived from a
// materialized BuildIndex.
func checkRecords(t *testing.T, label string, code []byte, base uint64, mode Mode) {
	t.Helper()
	want := refRecords(code, base, mode)
	if d := BuildIndex(code, base, mode).Records().Diff(want); d != "" {
		t.Fatalf("%s: BuildIndex records vs reference: %s", label, d)
	}
	for _, workers := range []int{1, 2, 3, 4, 8} {
		got, err := SweepRecords(context.Background(), code, base, mode, workers)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		if d := got.Diff(want); d != "" {
			t.Fatalf("%s workers=%d (%d shards): %s", label, workers, got.Shards, d)
		}
	}
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

// TestCallBeforeAcrossSeam places an endbr right after a seam, behind a
// direct call (the setjmp-family shape FILTERENDBR looks for) that
// straddles the seam, and again with an undecodable byte between the
// two: the "preceding instruction" is the call in both cases, for the
// sequential and every sharded sweep.
func TestCallBeforeAcrossSeam(t *testing.T) {
	const base = 0x401000
	for _, gap := range [][]byte{nil, {0x06}} {
		code := make([]byte, 256)
		for i := range code {
			code[i] = 0x90
		}
		// call rel32 at 125..129 straddles the workers=2 seam at 128.
		const callAt = 125
		copy(code[callAt:], []byte{0xE8, 0x10, 0x00, 0x00, 0x00})
		endbrAt := callAt + 5 + len(gap)
		copy(code[callAt+5:], gap)
		copy(code[endbrAt:], []byte{0xF3, 0x0F, 0x1E, 0xFA})
		wantTarget := uint64(base + callAt + 5 + 0x10)
		for _, workers := range []int{1, 2, 3, 4} {
			r, err := SweepRecords(context.Background(), code, base, Mode64, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(r.Endbrs, base+uint64(endbrAt)) {
				t.Fatalf("gap=%x workers=%d: endbr not found: %#x", gap, workers, r.Endbrs)
			}
			got, ok := r.CallBefore(base + uint64(endbrAt))
			if !ok || got != wantTarget {
				t.Fatalf("gap=%x workers=%d: CallBefore = (%#x, %v), want (%#x, true)",
					gap, workers, got, ok, wantTarget)
			}
			if _, ok := r.CallBefore(base + callAt); ok {
				t.Fatalf("gap=%x workers=%d: a nop precedes the call, not a call", gap, workers)
			}
		}
	}
	r, _ := SweepRecords(context.Background(), []byte{0xE8, 0, 0, 0, 0}, base, Mode64, 1)
	if _, ok := r.CallBefore(base); ok {
		t.Fatal("CallBefore at the first instruction found a predecessor")
	}
	if _, ok := r.CallBefore(base + 5); ok {
		t.Fatal("CallBefore past the end of text found a call")
	}
}
