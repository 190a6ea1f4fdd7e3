package analysis

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// checkSortKeys runs sortKeys over a copy of keys, with and without a
// payload, and compares it with slices.Sort (plus slices.Compact for
// sortCompact): the keys come out ascending, every payload value still
// names its own key, and equal keys keep their input order.
func checkSortKeys(t *testing.T, what string, keys []uint64) {
	t.Helper()
	want := slices.Clone(keys)
	slices.Sort(want)

	got := slices.Clone(keys)
	sortKeys(got, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d): sortKeys differs from slices.Sort", what, len(keys))
	}
	if c := sortCompact(slices.Clone(keys)); !slices.Equal(c, slices.Compact(slices.Clone(want))) {
		t.Fatalf("%s (n=%d): sortCompact differs from slices.Sort + slices.Compact", what, len(keys))
	}

	got = slices.Clone(keys)
	vals := make([]int32, len(keys))
	for i := range vals {
		vals[i] = int32(i)
	}
	sortKeys(got, vals)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d): keys with payload differ from slices.Sort", what, len(keys))
	}
	for i, v := range vals {
		if keys[v] != got[i] {
			t.Fatalf("%s (n=%d): vals[%d] = %d names key %#x, not %#x", what, len(keys), i, v, keys[v], got[i])
		}
		if i > 0 && got[i] == got[i-1] && v <= vals[i-1] {
			t.Fatalf("%s (n=%d): equal keys %#x out of input order (%d after %d)", what, len(keys), got[i], v, vals[i-1])
		}
	}
}

// TestSortKeysMatchesSlicesSort covers sizes from empty to thousands,
// around one bucket count (256), and the key shapes the byte-skipping
// has to get right.
func TestSortKeysMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 17, 255, 256, 257, 768, 5000} {
		gen := map[string]func(i int) uint64{
			"random":    func(int) uint64 { return rng.Uint64() },
			"text":      func(int) uint64 { return 0x401000 + uint64(rng.Intn(1<<20)) },
			"dups":      func(int) uint64 { return 0x401000 + uint64(rng.Intn(16))*0x10 },
			"all-equal": func(int) uint64 { return 0x401000 },
			// Keys that agree in every low byte: only the high passes run.
			"high-bytes": func(int) uint64 { return uint64(rng.Intn(256))<<56 | uint64(rng.Intn(256))<<40 | 0x1234 },
			// Mode32 branch targets wrap at 4 GiB: a text near the top
			// of the 32-bit space references small addresses too.
			"mode32-wrap": func(int) uint64 { return uint64(uint32(0xFFFFF000 + uint32(rng.Intn(0x2000)))) },
			"descending":  func(i int) uint64 { return uint64(n - i) },
		}
		for what, g := range gen {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = g(i)
			}
			checkSortKeys(t, what, keys)
		}
	}
}

// TestCursorMatchesHas: for any ascending query sequence, with repeats
// and misses, the forward-only Cursor answers as Has does.
func TestCursorMatchesHas(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 5, 300} {
		set := make([]uint64, n)
		for i := range set {
			set[i] = 0x401000 + uint64(rng.Intn(4*n+1))
		}
		set = sortCompact(set)
		queries := make([]uint64, 3*n+2)
		for i := range queries {
			queries[i] = 0x400ff0 + uint64(rng.Intn(4*n+40))
		}
		slices.Sort(queries)
		c := NewCursor(set)
		for _, q := range queries {
			if got, want := c.Has(q), Has(set, q); got != want {
				t.Fatalf("n=%d: Cursor.Has(%#x) = %v, Has = %v", n, q, got, want)
			}
		}
	}
}

// checkJumpOrder verifies a sweep's JumpOrder contract and the sets
// derived from it against a comparison-sort reference.
func checkJumpOrder(t *testing.T, bin *elfx.Binary, sw *Sweep) {
	t.Helper()
	if len(sw.JumpOrder) != len(sw.JumpRefs) {
		t.Fatalf("JumpOrder has %d entries for %d jumps", len(sw.JumpOrder), len(sw.JumpRefs))
	}
	seen := make([]bool, len(sw.JumpRefs))
	for i, x := range sw.JumpOrder {
		if x < 0 || int(x) >= len(seen) || seen[x] {
			t.Fatalf("JumpOrder is not a permutation: entry %d = %d", i, x)
		}
		seen[x] = true
		if i == 0 {
			continue
		}
		a, b := sw.JumpRefs[sw.JumpOrder[i-1]], sw.JumpRefs[x]
		if b.Target < a.Target || b.Target == a.Target && sw.JumpOrder[i-1] > x {
			t.Fatalf("JumpOrder[%d..%d] out of order: %+v then %+v", i-1, i, a, b)
		}
		if b.Target == a.Target && b.Src < a.Src {
			t.Fatalf("sources of target %#x descend: %#x then %#x", a.Target, a.Src, b.Src)
		}
	}
	var all, uncond []uint64
	for _, j := range sw.JumpRefs {
		if bin.InText(j.Target) {
			all = append(all, j.Target)
		}
		if !j.Cond {
			uncond = append(uncond, j.Target)
		}
	}
	slices.Sort(all)
	slices.Sort(uncond)
	if !slices.Equal(sw.JumpTargets, slices.Compact(all)) {
		t.Fatalf("JumpTargets %#x, want %#x", sw.JumpTargets, all)
	}
	if !slices.Equal(sw.UncondJumpTargets, slices.Compact(uncond)) {
		t.Fatalf("UncondJumpTargets %#x, want %#x", sw.UncondJumpTargets, uncond)
	}
}

// TestJumpOrderStable: on real sweeps of generated text in both modes,
// JumpOrder is a stable permutation of JumpRefs by target — each
// target's sources ascend — and J and the unconditional targets are
// exactly the deduplicated targets.
func TestJumpOrderStable(t *testing.T) {
	for _, mode := range []x86.Mode{x86.Mode32, x86.Mode64} {
		text := x86.GenText(1<<16, mode, rand.New(rand.NewSource(int64(mode))), 0.05)
		bin := &elfx.Binary{Mode: mode, Text: text, TextAddr: 0x401000}
		sw := NewContext(bin).Sweep()
		if len(sw.JumpRefs) < 256 {
			t.Fatalf("mode %v: only %d jumps, too few to fill the radix buckets", mode, len(sw.JumpRefs))
		}
		checkJumpOrder(t, bin, sw)
	}
}

// FuzzJumpOrder feeds arbitrary jump lists (ascending by source, as
// every backend records them) through finishSets and checks the
// JumpOrder contract and the derived target sets.
func FuzzJumpOrder(f *testing.F) {
	f.Add([]byte{}, uint16(0x100))
	f.Add([]byte{1, 0x10, 0, 0, 0, 0, 0, 0, 0, 2, 0x10, 0, 0, 0, 0, 0, 0, 0}, uint16(0x40))
	seed := make([]byte, 9*300)
	rand.New(rand.NewSource(3)).Read(seed)
	f.Add(seed, uint16(0x1000))
	text := make([]byte, 1<<16) // shared: the sets only read its length
	f.Fuzz(func(t *testing.T, data []byte, textLen uint16) {
		bin := &elfx.Binary{Mode: x86.Mode64, Text: text[:textLen], TextAddr: 0x1000}
		sw := &Sweep{}
		src := uint64(0x1000)
		for ; len(data) >= 9; data = data[9:] {
			src += uint64(data[0] & 0x0F) // equal sources allowed
			target := binary.LittleEndian.Uint64(data[1:])
			if data[0]&0x80 != 0 {
				target = 0x1000 + target%0x2000 // mostly near the text, with duplicates
			}
			sw.JumpRefs = append(sw.JumpRefs, JumpRef{Src: src, Target: target, Cond: data[0]&0x40 != 0})
		}
		sw.finishSets(bin, nil)
		checkJumpOrder(t, bin, sw)
	})
}

// ehBinary compiles a C++ program with many exception-handling
// functions, so the .eh_frame parse and the landing-pad join both take
// measurable time.
func ehBinary(t *testing.T) *elfx.Binary {
	t.Helper()
	spec := &synth.ProgSpec{Name: "ehclock", Lang: synth.LangCPP, Seed: 5}
	for i := 0; i < 300; i++ {
		spec.Funcs = append(spec.Funcs, synth.FuncSpec{
			Name: fmt.Sprintf("f%d", i), HasEH: true, NumLandingPads: 3, CallsPLT: []string{"__cxa_throw"},
		})
	}
	res, err := synth.Compile(spec, synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elfx.Load(res.Stripped)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestStageClocksDoNotNest: the landing-pad and FDE-index builds fetch
// the .eh_frame parse before their own clocks start, so the stage times
// one call charges (eh-parse plus its own stage) add up to no more than
// the call's wall time.
func TestStageClocksDoNotNest(t *testing.T) {
	bin := ehBinary(t)
	for _, call := range []struct {
		name  string
		run   func(*Context) error
		stage func(Stats) StageStat
	}{
		{"LandingPads", func(c *Context) error { _, err := c.LandingPads(); return err }, func(s Stats) StageStat { return s.LandingPad }},
		{"FDEIndex", func(c *Context) error { _, err := c.FDEIndex(); return err }, func(s Stats) StageStat { return s.FDEIndex }},
	} {
		ctx := NewContext(bin)
		start := time.Now()
		if err := call.run(ctx); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		st := ctx.Stats()
		if st.EHParse.Computes != 1 || call.stage(st).Computes != 1 {
			t.Fatalf("%s: eh-parse %+v, own stage %+v; want one compute each", call.name, st.EHParse, call.stage(st))
		}
		if sum := st.EHParse.Time + call.stage(st).Time; sum > wall {
			t.Errorf("%s: stage times sum to %v, more than the call's wall time %v", call.name, sum, wall)
		}
	}
}
