package main

import (
	"strings"
	"testing"
)

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
