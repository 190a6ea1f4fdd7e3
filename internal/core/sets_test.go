package core

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/x86"
)

// refTargets is the comparison-sort reference for a target set: the
// targets of the refs keep admits, deduplicated through a map and
// ordered by sort.Slice.
func refTargets(refs []analysis.JumpRef, keep func(analysis.JumpRef) bool) []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for _, r := range refs {
		if keep(r) && !seen[r.Target] {
			seen[r.Target] = true
			out = append(out, r.Target)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkSweepSets compares what DeriveSets built — C, J and each jump's
// index into J —
// the study's two sets, and SELECTTAILCALL over known in both modes with
// their references.
func checkSweepSets(t *testing.T, bin *elfx.Binary, sw *analysis.Sweep, known []uint64) {
	t.Helper()
	inText := func(r analysis.JumpRef) bool { return bin.InText(r.Target) }
	all := func(analysis.JumpRef) bool { return true }
	if want := refTargets(sw.Calls, inText); !slices.Equal(sw.CallTargets, want) {
		t.Fatalf("CallTargets %#x, want %#x", sw.CallTargets, want)
	}
	if want := refTargets(sw.JumpRefs, inText); !slices.Equal(sw.JumpTargets, want) {
		t.Fatalf("JumpTargets %#x, want %#x", sw.JumpTargets, want)
	}
	if len(sw.JumpTargetIndex) != len(sw.JumpRefs) {
		t.Fatalf("%d JumpTargetIndex entries for %d jumps", len(sw.JumpTargetIndex), len(sw.JumpRefs))
	}
	for i, r := range sw.JumpRefs {
		want, ok := slices.BinarySearch(sw.JumpTargets, r.Target)
		if !ok {
			want = -1
		}
		if got := int(sw.JumpTargetIndex[i]); got != want {
			t.Fatalf("JumpTargetIndex[%d] = %d for target %#x, want %d", i, got, r.Target, want)
		}
	}
	calls, uncond := studySets(sw)
	if want := refTargets(sw.Calls, all); !slices.Equal(calls, want) {
		t.Fatalf("study call targets %#x, want %#x", calls, want)
	}
	if want := refTargets(sw.JumpRefs, func(r analysis.JumpRef) bool { return !r.Cond }); !slices.Equal(uncond, want) {
		t.Fatalf("study unconditional jump targets %#x, want %#x", uncond, want)
	}
	for _, boundaryOnly := range []bool{false, true} {
		got := selectTailCalls(bin, sw, known, boundaryOnly)
		if want := refSelectTailCalls(bin, sw.JumpRefs, known, boundaryOnly); !slices.Equal(got, want) {
			t.Fatalf("boundaryOnly=%v: selectTailCalls %#x, reference %#x", boundaryOnly, got, want)
		}
	}
}

// TestSweepSetsGenerated: on real sweeps of generated text in both
// modes, C, J, the study's sets and SELECTTAILCALL over E ∪ C equal
// their references.
func TestSweepSetsGenerated(t *testing.T) {
	for _, mode := range []x86.Mode{x86.Mode32, x86.Mode64} {
		text := x86.GenText(1<<16, mode, rand.New(rand.NewSource(int64(mode))), 0.05)
		bin := &elfx.Binary{Mode: mode, Text: text, TextAddr: 0x401000}
		sw := analysis.NewContext(bin).Sweep()
		if len(sw.JumpRefs) < 256 || len(sw.Calls) < 64 {
			t.Fatalf("mode %v: only %d jumps and %d calls", mode, len(sw.JumpRefs), len(sw.Calls))
		}
		checkSweepSets(t, bin, sw, union(sw.Endbrs, sw.CallTargets))
	}
}

// FuzzSweepSets feeds arbitrary call and jump lists (ascending by
// source, as every backend records them) through DeriveSets and checks
// the sets and SELECTTAILCALL against their references. Each 9-byte
// record is a flag byte and a target: flag bit 0x80 folds the target
// near the text, 0x40 makes a jump conditional, 0x20 makes the record a
// call, 0x10 adds the target to the known starts, and the low nibble
// advances the source.
func FuzzSweepSets(f *testing.F) {
	f.Add([]byte{}, uint16(0x100))
	f.Add([]byte{0x81, 0x10, 0, 0, 0, 0, 0, 0, 0, 0xA2, 0x10, 0, 0, 0, 0, 0, 0, 0, 0x92, 0x40, 0, 0, 0, 0, 0, 0, 0}, uint16(0x40))
	seed := make([]byte, 9*300)
	rand.New(rand.NewSource(3)).Read(seed)
	f.Add(seed, uint16(0x1000))
	text := make([]byte, 1<<16) // shared: the sets only read its length
	f.Fuzz(func(t *testing.T, data []byte, textLen uint16) {
		bin := &elfx.Binary{Mode: x86.Mode64, Text: text[:textLen], TextAddr: 0x1000}
		sw := &analysis.Sweep{}
		var known []uint64
		src := uint64(0x1000)
		for ; len(data) >= 9; data = data[9:] {
			src += uint64(data[0] & 0x0F) // equal sources allowed
			target := binary.LittleEndian.Uint64(data[1:])
			if data[0]&0x80 != 0 {
				target = 0x1000 + target%0x2000 // mostly near the text, with duplicates
			}
			if data[0]&0x10 != 0 {
				known = append(known, target)
			}
			if data[0]&0x20 != 0 {
				sw.Calls = append(sw.Calls, analysis.JumpRef{Src: src, Target: target})
			} else {
				sw.JumpRefs = append(sw.JumpRefs, analysis.JumpRef{Src: src, Target: target, Cond: data[0]&0x40 != 0})
			}
		}
		sw.DeriveSets(bin)
		checkSweepSets(t, bin, sw, sortedAddrs(known))
	})
}
