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
	if res.Answer.Arch != "aarch64" {
		t.Fatalf("answer arch = %q, want aarch64", res.Answer.Arch)
	}
	ref, err := bticore.IdentifyBytes(raw)
	if err != nil {
		t.Fatalf("bticore: %v", err)
	}
	if !slices.Equal(res.Answer.Entries, ref.Entries) {
		t.Fatalf("engine entries %#x != bticore entries %#x", res.Answer.Entries, ref.Entries)
	}
	if len(res.Answer.Entries) == 0 {
		t.Fatal("empty entry set from a multi-function binary")
	}

	warm, err := e.Analyze(context.Background(), raw, core.Config4)
	if err != nil {
		t.Fatalf("warm analyze: %v", err)
	}
	if warm.CacheSource != "lru" {
		t.Fatalf("second analyze not an LRU hit: %+v", warm)
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
		got[filepath.Base(fr.Path)] = fr.Result.Answer.Arch
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

// TestStoreKeyPinned: the persistent store key (SHA-256 ‖ option bits ‖
// arch byte) of one x86-64 and one AArch64 synthetic image is pinned to
// its recorded hex, so existing stores and replicas keep addressing
// their records. A change here orphans every stored result.
func TestStoreKeyPinned(t *testing.T) {
	e := New(Config{Jobs: 1})
	config5Superset := core.Config5
	config5Superset.SupersetEndbrScan = true
	for _, tc := range []struct {
		name string
		raw  []byte
		opts core.Options
		want string
	}{
		{"x86-64", testBinaries(t, 1)[0], core.Config4,
			"8565f6e6001c5c5b3f51f255a115874a58ce5a57cc4ebf46c5801801b221d5dd0702"},
		{"x86-64 config5+superset", testBinaries(t, 1)[0], config5Superset,
			"8565f6e6001c5c5b3f51f255a115874a58ce5a57cc4ebf46c5801801b221d5dd5702"},
		{"aarch64", testBTIBinary(t), core.Config4,
			"6a1209ffa06ee1545da6b4cbd09e27c02add5c1aeb283a1998a5b967c1c2574d0703"},
	} {
		res, err := e.Analyze(context.Background(), tc.raw, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.StoreKey != tc.want {
			t.Errorf("%s: StoreKey = %s, want %s", tc.name, res.StoreKey, tc.want)
		}
	}
}
