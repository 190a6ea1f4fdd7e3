package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the bench command itself when the test binary is
// started with benchMainEnv set, so a test can drive it end to end.
func TestMain(m *testing.M) {
	if os.Getenv(benchMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

const benchMainEnv = "FUNSEEKER_BENCH_MAIN"

// TestSmokeWritesNothing: a -smoke run measures one iteration per row,
// which is no baseline, so it leaves its -out directory as it found it
// — including a recorded report of the same date.
func TestSmokeWritesNothing(t *testing.T) {
	dir := t.TempDir()
	recorded := filepath.Join(dir, "BENCH_2000-01-01.json")
	if err := os.WriteFile(recorded, []byte(`{"date":"2000-01-01","results":[]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(recorded)
	cmd := exec.Command(os.Args[0], "-smoke", "-scale", "0.01", "-programs", "1",
		"-series", "^core/Refine$", "-date", "2000-01-01", "-out", dir)
	cmd.Env = append(os.Environ(), benchMainEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("bench -smoke: %v\n%s", err, out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("-out holds %d files after a smoke run, want the 1 recorded report", len(entries))
	}
	if after, _ := os.ReadFile(recorded); string(after) != string(before) {
		t.Fatalf("smoke run rewrote the recorded report:\n%s", after)
	}
}

// TestCheckScalingPinnedBaseline: a row pinned at gomaxprocs=P is held
// against the sequential row pinned at P, and falls back to the unpinned
// sequential row when the report has no such row.
func TestCheckScalingPinnedBaseline(t *testing.T) {
	row := func(name string, mbs float64, procs int) result {
		return result{Name: name, MBPerS: mbs, Gomaxprocs: procs}
	}
	cases := []struct {
		name    string
		rows    []result
		wantErr string
	}{
		{"pinned row above its pinned baseline", []result{
			row("x86/SweepRecords", 130, 0),
			row("x86/SweepRecords/workers=2", 200, 0),
			row("x86/SweepRecords/workers=1/gomaxprocs=1", 100, 1),
			row("x86/SweepRecords/workers=4/gomaxprocs=1", 95, 1),
		}, ""},
		{"pinned row below its pinned baseline", []result{
			row("x86/SweepRecords", 100, 0),
			row("x86/SweepRecords/workers=1/gomaxprocs=1", 130, 1),
			row("x86/SweepRecords/workers=4/gomaxprocs=1", 110, 1),
		}, "below sequential x86/SweepRecords/workers=1/gomaxprocs=1"},
		{"no pinned baseline: the unpinned row", []result{
			row("x86/SweepRecords", 130, 0),
			row("x86/SweepRecords/workers=4/gomaxprocs=1", 110, 1),
		}, "below sequential x86/SweepRecords 130"},
		{"unpinned row against the unpinned baseline", []result{
			row("x86/SweepRecords", 130, 0),
			row("x86/SweepRecords/workers=1/gomaxprocs=2", 100, 2),
			row("x86/SweepRecords/workers=2", 110, 0),
		}, "x86/SweepRecords/workers=2 at 110.00 MB/s is below sequential x86/SweepRecords 130"},
	}
	for _, tc := range cases {
		err := checkScaling(&report{NumCPU: 2, Results: tc.rows}, false)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.wantErr)
		}
	}

	// On >= 4 cores the 1.8x target is taken against the gomaxprocs=4
	// sequential row.
	rows := []result{
		row("x86/SweepRecords", 100, 0),
		row("x86/SweepRecords/workers=1/gomaxprocs=4", 120, 4),
		row("x86/SweepRecords/workers=4/gomaxprocs=4", 200, 4),
	}
	if err := checkScaling(&report{NumCPU: 4, Results: rows}, false); err == nil ||
		!strings.Contains(err.Error(), "sequential x86/SweepRecords/workers=1/gomaxprocs=4") {
		t.Errorf("1.8x target: err = %v, want it held against the gomaxprocs=4 sequential row", err)
	}
}
