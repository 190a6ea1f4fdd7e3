package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"github.com/funseeker/funseeker/internal/armsynth"
	"github.com/funseeker/funseeker/internal/bticore"
	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/synth"
)

// testBTIBinary compiles one small BTI-enabled AArch64 image once per
// process.
var testBTIBinaryOnce = sync.OnceValues(func() ([]byte, error) {
	spec := &synth.ProgSpec{
		Name: "engine_arm",
		Lang: synth.LangC,
		Seed: 3,
		Funcs: []synth.FuncSpec{
			{Name: "main", BodySize: 4, Calls: []int{1, 2}},
			{Name: "worker", Static: true, AddressTaken: true, BodySize: 5, HasSwitch: true, SwitchCases: 3},
			{Name: "leaf", BodySize: 2},
		},
	}
	res, err := armsynth.Compile(spec, armsynth.Config{Opt: synth.O2})
	if err != nil {
		return nil, err
	}
	return res.Image, nil
})

func testBTIBinary(tb testing.TB) []byte {
	tb.Helper()
	raw, err := testBTIBinaryOnce()
	if err != nil {
		tb.Fatalf("building BTI test binary: %v", err)
	}
	return raw
}

// TestAnalyzeAArch64RoundTrip: an AArch64/BTI image goes through the
// full engine path — load, arm64 sweep, Config4 refinements, cache —
// and the entry set matches the reference bticore implementation.
func TestAnalyzeAArch64RoundTrip(t *testing.T) {
	raw := testBTIBinary(t)
	e := New(Config{Jobs: 2})

	res, err := e.Analyze(context.Background(), raw, core.Config4)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if res.Report.Arch != "aarch64" {
		t.Fatalf("report arch = %q, want aarch64", res.Report.Arch)
	}
	ref, err := bticore.IdentifyBytes(raw)
	if err != nil {
		t.Fatalf("bticore: %v", err)
	}
	if !slices.Equal(res.Report.Entries, ref.Entries) {
		t.Fatalf("engine entries %#x != bticore entries %#x", res.Report.Entries, ref.Entries)
	}
	if len(res.Report.Entries) == 0 {
		t.Fatal("empty entry set from a multi-function binary")
	}

	warm, err := e.Analyze(context.Background(), raw, core.Config4)
	if err != nil {
		t.Fatalf("warm analyze: %v", err)
	}
	if !warm.Cached || warm.CacheSource != "lru" {
		t.Fatalf("second analyze not an LRU hit: %+v", warm)
	}
}

// TestCacheKeyArchSeparation: byte-identical input analyzed under two
// forced backends must occupy two cache slots — two misses, then one
// hit per arch — so an option-forced backend can never serve the other
// backend's result.
func TestCacheKeyArchSeparation(t *testing.T) {
	raw := testBinaries(t, 1)[0]
	e := New(Config{Jobs: 2})

	optsX86 := core.Config4
	optsX86.Arch = elfx.ArchX86_64
	optsARM := core.Config4
	optsARM.Arch = elfx.ArchAArch64

	rx, err := e.Analyze(context.Background(), raw, optsX86)
	if err != nil {
		t.Fatalf("x86 analyze: %v", err)
	}
	ra, err := e.Analyze(context.Background(), raw, optsARM)
	if err != nil {
		t.Fatalf("forced-arm analyze: %v", err)
	}
	if ra.Cached {
		t.Fatal("forced-arm analysis served from the x86 cache entry")
	}
	if rx.Report.Arch != "x86-64" || ra.Report.Arch != "aarch64" {
		t.Fatalf("report arches = %q / %q", rx.Report.Arch, ra.Report.Arch)
	}
	if s := e.Stats(); s.Cache.Misses != 2 || s.Cache.Hits != 0 {
		t.Fatalf("misses/hits = %d/%d, want 2/0", s.Cache.Misses, s.Cache.Hits)
	}
	for _, opts := range []core.Options{optsX86, optsARM} {
		res, err := e.Analyze(context.Background(), raw, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("arch %v warm request missed", opts.Arch)
		}
	}
	if s := e.Stats(); s.Cache.Hits != 2 {
		t.Fatalf("hits = %d, want 2", s.Cache.Hits)
	}
}

// TestFilesMixedArchCorpus: one directory holding x86-64 and AArch64
// binaries side by side; the batch path dispatches each file to its own
// backend with no per-file configuration.
func TestFilesMixedArchCorpus(t *testing.T) {
	x86s := testBinaries(t, 2)
	bti := testBTIBinary(t)
	dir := t.TempDir()
	for i, raw := range [][]byte{x86s[0], bti, x86s[1]} {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("prog%d", i)), raw, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := Expand([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("Expand found %d files, want 3", len(paths))
	}

	e := New(Config{Jobs: 4})
	got := map[string]string{}
	err = e.Files(context.Background(), paths, core.Config4, func(fr FileResult) error {
		if fr.Err != nil {
			return fr.Err
		}
		got[filepath.Base(fr.Path)] = fr.Result.Report.Arch
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"prog0": "x86-64", "prog1": "aarch64", "prog2": "x86-64"}
	for name, arch := range want {
		if got[name] != arch {
			t.Errorf("%s analyzed as %q, want %q", name, got[name], arch)
		}
	}
}
