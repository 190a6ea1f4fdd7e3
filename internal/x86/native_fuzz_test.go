package x86

import (
	"bytes"
	"context"
	"testing"
)

// instEqual compares two instructions field-for-field. Inst holds no
// pointers (the prefix record is a fixed array), so this is plain ==.
func instEqual(a, b Inst) bool {
	return a == b
}

// decodeSeeds are the hand-picked encodings FuzzDecode and FuzzDecodeCore
// start from (each also seeds from its testdata/fuzz corpus).
var decodeSeeds = [][]byte{
	{0xf3, 0x0f, 0x1e, 0xfa},                   // endbr64
	{0xf3, 0x0f, 0x1e, 0xfb},                   // endbr32
	{0xe8, 0x00, 0x00, 0x00, 0x00},             // call rel32
	{0xe9, 0xfb, 0xff, 0xff, 0xff},             // jmp rel32
	{0xff, 0x25, 0x00, 0x10, 0x00, 0x00},       // jmp indirect
	{0x0f, 0x84, 0x10, 0x00, 0x00, 0x00},       // jz rel32
	{0x48, 0x8b, 0x04, 0xc5, 0, 0, 0, 0},       // mov rax,[rax*8+disp32]
	{0x66, 0x0f, 0x38, 0x00, 0xc0},             // three-byte opcode map
	{0xc4, 0xe2, 0x79, 0x00, 0xc0},             // vex3
	{0xc5, 0xf8, 0x77},                         // vex2 vzeroupper
	{0x62, 0xf1, 0x7c, 0x48, 0x28, 0xc0},       // evex
	{0xf0, 0x48, 0x0f, 0xb1, 0x0d, 0, 0, 0, 0}, // lock cmpxchg
	{0x66, 0x66, 0x66, 0x90},                   // redundant prefixes
	{0xc3},                                     // ret
	{0xcc},                                     // int3
	{0x00},
	{},
}

// FuzzDecode drives the decoder with arbitrary byte streams in both
// operating modes. Invariants: the decoder never panics; a successful
// decode consumes 1..15 bytes, no more than were supplied; decoding the
// exact consumed prefix again reproduces the identical instruction
// (determinism + no reliance on bytes past Len); and DecodeLen agrees
// with Decode.
func FuzzDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add(s, true)
		f.Add(s, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, mode64 bool) {
		mode := Mode32
		if mode64 {
			mode = Mode64
		}
		const addr = 0x401000
		inst, err := Decode(data, addr, mode)
		if err != nil {
			return
		}
		if inst.Len <= 0 || inst.Len > 15 {
			t.Fatalf("Len = %d, want 1..15 (input %x)", inst.Len, data)
		}
		if inst.Len > len(data) {
			t.Fatalf("Len = %d > len(data) = %d (input %x)", inst.Len, len(data), data)
		}
		// Decoding only the consumed bytes must reproduce the instruction
		// exactly: anything else means the decoder peeked past Len.
		again, err := Decode(data[:inst.Len], addr, mode)
		if err != nil {
			t.Fatalf("re-decode of consumed prefix failed: %v (input %x)", err, data[:inst.Len])
		}
		if !instEqual(again, inst) {
			t.Fatalf("re-decode mismatch:\n first %+v\nsecond %+v\ninput %x", inst, again, data[:inst.Len])
		}
		n, err := DecodeLen(data, mode)
		if err != nil || n != inst.Len {
			t.Fatalf("DecodeLen = (%d, %v), Decode.Len = %d (input %x)", n, err, inst.Len, data)
		}
	})
}

// FuzzDecodeSuffixStability: an instruction that decodes from a buffer
// must decode identically when trailing bytes are appended — the decoder
// must not let content past Len influence the result.
func FuzzDecodeSuffixStability(f *testing.F) {
	f.Add([]byte{0xe8, 0x00, 0x00, 0x00, 0x00, 0x90, 0x90}, true)
	f.Add([]byte{0xf3, 0x0f, 0x1e, 0xfa, 0xc3}, false)
	f.Add([]byte{0x66, 0x90}, true)
	f.Fuzz(func(t *testing.T, data []byte, mode64 bool) {
		mode := Mode32
		if mode64 {
			mode = Mode64
		}
		inst, err := Decode(data, 0, mode)
		if err != nil {
			return
		}
		padded := append(bytes.Clone(data), 0xcc, 0xcc)
		again, err := Decode(padded, 0, mode)
		if err != nil || !instEqual(again, inst) {
			t.Fatalf("padding changed decode: (%+v, %v) vs %+v (input %x)", again, err, inst, data)
		}
	})
}

// FuzzDecodeCore is the differential check of the fast path's two
// layers: for every byte string in both modes, where the core accepts,
// DecodeInto takes the fast path and its Inst equals the full decoder's,
// its (Len, Class, Target) equals the core's (n, class, target), and
// HasTarget holds exactly for the direct-branch classes; where the core
// declines, DecodeInto answers exactly as the full decoder does. Its
// corpus starts from FuzzDecode's.
func FuzzDecodeCore(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add(s, true)
		f.Add(s, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, mode64 bool) {
		mode := Mode32
		if mode64 {
			mode = Mode64
		}
		const addr = 0x401000
		if checkFastPath(t, data, addr, mode) {
			return
		}
		var got, want Inst
		gotErr := DecodeInto(data, addr, mode, &got)
		wantErr := decodeSlow(data, addr, mode, &want)
		if gotErr != wantErr || got != want {
			t.Fatalf("core declined, DecodeInto (%+v, %v) vs full decoder (%+v, %v) (input %x)", got, gotErr, want, wantErr, data)
		}
	})
}

// FuzzSweepRecords: for arbitrary bytes in both modes, the records sweep
// equals the LinearSweep reference, and the sharded sweep (seams forced
// at every 64-byte-aligned chunk the input allows) equals the sequential
// one.
func FuzzSweepRecords(f *testing.F) {
	f.Add([]byte{0xe8, 0x00, 0x00, 0x00, 0x00, 0xf3, 0x0f, 0x1e, 0xfa, 0xc3}, true)
	f.Add([]byte{0x0f, 0x84, 0x10, 0x00, 0x00, 0x00, 0xeb, 0xfe, 0x06, 0xe9, 0, 0, 0, 0}, false)
	f.Add(bytes.Repeat([]byte{0xe8, 0x01, 0x06, 0xf3, 0x0f, 0x1e, 0xfb}, 40), false)
	f.Add(bytes.Repeat([]byte{0x48, 0x8b, 0x04, 0xc5, 0xe9, 0x0f, 0x1e, 0xfa}, 50), true)
	f.Fuzz(func(t *testing.T, data []byte, mode64 bool) {
		mode := Mode32
		if mode64 {
			mode = Mode64
		}
		const base = 0x401000
		want := ReferenceRecords(data, base, mode)
		seq, err := SweepRecords(context.Background(), data, base, mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d := seq.Diff(want); d != "" {
			t.Fatalf("sequential vs reference: %s (input %x)", d, data)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := SweepRecords(context.Background(), data, base, mode, workers)
			if err != nil {
				t.Fatal(err)
			}
			if d := par.Diff(seq); d != "" {
				t.Fatalf("workers=%d (%d shards) vs sequential: %s (input %x)", workers, par.Shards, d, data)
			}
		}
	})
}
