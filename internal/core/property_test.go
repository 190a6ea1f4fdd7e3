package core

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/x86"
)

// sortedAddrs turns raw fuzz values into the ascending, deduplicated
// form union is specified over.
func sortedAddrs(raw []uint64) []uint64 {
	out := slices.Clone(raw)
	slices.Sort(out)
	return slices.Compact(out)
}

// TestMergeSupersetEndbrsProperties checks the algebra of the E-merge:
// the result is the sorted union — ascending and duplicate-free, a
// superset of both inputs, containing nothing else, and symmetric in its
// arguments.
func TestMergeSupersetEndbrsProperties(t *testing.T) {
	f := func(rawScanned, rawEndbrs []uint64) bool {
		scanned, endbrs := sortedAddrs(rawScanned), sortedAddrs(rawEndbrs)
		got := union(scanned, endbrs)

		if !slices.IsSorted(got) {
			t.Logf("not sorted: %v", got)
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Logf("duplicate %#x", got[i])
				return false
			}
		}
		member := func(v uint64) bool {
			_, ok := slices.BinarySearch(got, v)
			return ok
		}
		for _, v := range scanned {
			if !member(v) {
				t.Logf("scanned %#x missing", v)
				return false
			}
		}
		for _, v := range endbrs {
			if !member(v) {
				t.Logf("endbr %#x missing", v)
				return false
			}
		}
		inInputs := func(v uint64) bool {
			_, a := slices.BinarySearch(scanned, v)
			_, b := slices.BinarySearch(endbrs, v)
			return a || b
		}
		for _, v := range got {
			if !inInputs(v) {
				t.Logf("phantom %#x", v)
				return false
			}
		}
		return slices.Equal(got, union(endbrs, scanned))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeSupersetEndbrsIdempotent: merging the result with either
// input is a fixpoint.
func TestMergeSupersetEndbrsIdempotent(t *testing.T) {
	f := func(rawScanned, rawEndbrs []uint64) bool {
		scanned, endbrs := sortedAddrs(rawScanned), sortedAddrs(rawEndbrs)
		got := union(scanned, endbrs)
		return slices.Equal(got, union(scanned, got)) &&
			slices.Equal(got, union(got, endbrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// tailCallCase is a randomly drawn SELECTTAILCALL input: a synthetic
// .text extent, a set of known starts inside it (ascending), and a jump
// list (ascending by Src, as every backend produces it).
type tailCallCase struct {
	bin   *elfx.Binary
	known []uint64
	jumps []analysis.JumpRef
}

func genTailCallCase(rng *rand.Rand) tailCallCase {
	const base = 0x401000
	size := uint64(0x100 + rng.Intn(0x1000))
	bin := &elfx.Binary{Text: make([]byte, size), TextAddr: base, Mode: x86.Mode64}
	var known []uint64
	for n := rng.Intn(12); n > 0; n-- {
		known = append(known, base+uint64(rng.Intn(int(size))))
	}
	var jumps []analysis.JumpRef
	for n := rng.Intn(40); n > 0; n-- {
		j := analysis.JumpRef{
			Src:    base + uint64(rng.Intn(int(size))),
			Target: base + uint64(rng.Intn(int(size))),
			Cond:   rng.Intn(2) == 0,
		}
		if rng.Intn(8) == 0 { // occasionally out of .text
			j.Target = base - 0x100 + uint64(rng.Intn(0x200))*16
		}
		jumps = append(jumps, j)
	}
	slices.SortStableFunc(jumps, func(a, b analysis.JumpRef) int { return cmp.Compare(a.Src, b.Src) })
	return tailCallCase{bin: bin, known: sortedAddrs(known), jumps: jumps}
}

// jumpSweep wraps jumps (ascending by Src) in the Sweep form the
// selector reads, with J derived by DeriveSets.
func jumpSweep(bin *elfx.Binary, jumps []analysis.JumpRef) *analysis.Sweep {
	sw := &analysis.Sweep{JumpRefs: jumps}
	sw.DeriveSets(bin)
	return sw
}

// refSelectTailCalls is the map-based SELECTTAILCALL the linear
// selector replaced, kept as the test reference: per target, the set of
// distinct source functions and whether any jump escapes, with function
// boundaries found by binary search. It accepts jumps in any order.
func refSelectTailCalls(bin *elfx.Binary, jumps []analysis.JumpRef, knownList []uint64, boundaryOnly bool) []uint64 {
	known := make(map[uint64]bool, len(knownList))
	for _, k := range knownList {
		known[k] = true
	}
	starts := knownList
	search := func(addr uint64) int {
		return sort.Search(len(starts), func(i int) bool { return starts[i] > addr })
	}
	type targetInfo struct {
		srcFuncs map[uint64]bool
		escapes  bool
	}
	infos := make(map[uint64]*targetInfo)
	for _, j := range jumps {
		if !bin.InText(j.Target) {
			continue
		}
		info := infos[j.Target]
		if info == nil {
			info = &targetInfo{srcFuncs: make(map[uint64]bool)}
			infos[j.Target] = info
		}
		i := search(j.Src)
		src, next := uint64(0), bin.TextEnd()
		if i > 0 {
			src = starts[i-1]
		}
		if i < len(starts) {
			next = starts[i]
		}
		info.srcFuncs[src] = true
		if j.Target < src || j.Target >= next {
			info.escapes = true
		}
	}
	var out []uint64
	for target, info := range infos {
		if known[target] || !info.escapes || (!boundaryOnly && len(info.srcFuncs) < 2) {
			continue
		}
		out = append(out, target)
	}
	slices.Sort(out)
	return out
}

// TestSelectTailCallsProperties: the selector's output is always an
// ascending set of in-text addresses disjoint from the known starts; the
// ablated boundary-only mode is a superset of the full two-condition
// mode (dropping the multi-reference requirement can only admit more
// targets); and both modes equal the map-based reference run over the
// jump list in shuffled order — the jumps are a set of evidence, so
// nothing but the Src ordering the selector requires may matter.
func TestSelectTailCallsProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := genTailCallCase(rng)

		full := selectTailCalls(c.bin, jumpSweep(c.bin, c.jumps), c.known, false)
		boundary := selectTailCalls(c.bin, jumpSweep(c.bin, c.jumps), c.known, true)

		if !strictlyAscending(full) || !strictlyAscending(boundary) {
			t.Logf("seed %d: result not strictly ascending", seed)
			return false
		}
		for _, target := range full {
			if !c.bin.InText(target) {
				t.Logf("seed %d: out-of-text target %#x", seed, target)
				return false
			}
			if analysis.Has(c.known, target) {
				t.Logf("seed %d: known start %#x reselected", seed, target)
				return false
			}
			if !analysis.Has(boundary, target) {
				t.Logf("seed %d: full-mode target %#x missing from boundary-only mode", seed, target)
				return false
			}
		}
		for _, target := range boundary {
			if !c.bin.InText(target) || analysis.Has(c.known, target) {
				t.Logf("seed %d: invalid boundary-only target %#x", seed, target)
				return false
			}
		}

		shuffled := slices.Clone(c.jumps)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for _, boundaryOnly := range []bool{false, true} {
			got := full
			if boundaryOnly {
				got = boundary
			}
			if want := refSelectTailCalls(c.bin, shuffled, c.known, boundaryOnly); !slices.Equal(got, want) {
				t.Logf("seed %d boundaryOnly=%v: %#x, reference %#x", seed, boundaryOnly, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// strictlyAscending reports whether s is sorted with no duplicates.
func strictlyAscending(s []uint64) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// TestSelectTailCallsDuplicateEvidence: duplicating every jump must not
// change the result — the selector counts distinct source functions, not
// raw jump occurrences.
func TestSelectTailCallsDuplicateEvidence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := genTailCallCase(rng)
		full := selectTailCalls(c.bin, jumpSweep(c.bin, c.jumps), c.known, false)
		var doubled []analysis.JumpRef
		for _, j := range c.jumps {
			doubled = append(doubled, j, j)
		}
		return slices.Equal(full, selectTailCalls(c.bin, jumpSweep(c.bin, doubled), c.known, false))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectTailCallsNoJumpsNoTargets: with no jump evidence the
// selector returns nothing in either mode.
func TestSelectTailCallsNoJumpsNoTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		c := genTailCallCase(rng)
		if got := selectTailCalls(c.bin, jumpSweep(c.bin, nil), c.known, false); len(got) != 0 {
			t.Fatalf("trial %d: %d targets from no evidence", trial, len(got))
		}
		if got := selectTailCalls(c.bin, jumpSweep(c.bin, nil), c.known, true); len(got) != 0 {
			t.Fatalf("trial %d: boundary-only: %d targets from no evidence", trial, len(got))
		}
	}
}
