package analysis

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/funseeker/funseeker/internal/ehframe"
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

// TestFDEIndexOrderIndependent: the FDE index is a property of the set
// of FDEs, so the one-pass build over ascending starts and the sorting
// build over shuffled ones agree — on the starts and on Covers and
// Interior at every address around the FDEs.
func TestFDEIndexOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bin := &elfx.Binary{Mode: x86.Mode64, Text: make([]byte, 0x2000), TextAddr: 0x1000}
	for trial := 0; trial < 200; trial++ {
		var fdes []ehframe.FDE
		for n := rng.Intn(40); n > 0; n-- {
			fdes = append(fdes, ehframe.FDE{PCBegin: 0xF00 + uint64(rng.Intn(0x2200)), PCRange: uint64(rng.Intn(0x80))})
		}
		slices.SortStableFunc(fdes, func(a, b ehframe.FDE) int { return cmp.Compare(a.PCBegin, b.PCBegin) })
		sorted := buildFDEIndex(bin, fdes)
		rng.Shuffle(len(fdes), func(i, j int) { fdes[i], fdes[j] = fdes[j], fdes[i] })
		shuffled := buildFDEIndex(bin, fdes)
		if !slices.Equal(sorted.Starts, shuffled.Starts) || !slices.IsSorted(sorted.Starts) {
			t.Fatalf("trial %d: starts %#x (ascending input) vs %#x (shuffled)", trial, sorted.Starts, shuffled.Starts)
		}
		for a := uint64(0xF00); a < 0x3200; a++ {
			if sorted.Covers(a) != shuffled.Covers(a) || sorted.Interior(a) != shuffled.Interior(a) {
				t.Fatalf("trial %d: %#x: Covers %v/%v, Interior %v/%v", trial, a,
					sorted.Covers(a), shuffled.Covers(a), sorted.Interior(a), shuffled.Interior(a))
			}
		}
	}
}
