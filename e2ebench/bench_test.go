package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestMain lets the test binary serve as its own calibration child.
func TestMain(m *testing.M) {
	if calibrationChild() {
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload once, traced, with tiny pools and one-second
// phases, and checks the harness rather than the timings: every metric
// BENCHMARK.json declares is measured in its declared unit, every
// correctness check ran and passed, and no child process or scratch
// directory outlives its run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the servers")
	}
	ctx := context.Background()
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if err := buildServers(ctx, "..", bin); err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	for _, w := range workloads {
		o := options{workload: w.name, seed: 1, seconds: 1, trace: true, smoke: true,
			root: "..", bin: bin, work: work, spans: filepath.Join(t.TempDir(), "spans.json")}
		rep, err := runOne(ctx, o, spec, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct {
			t.Errorf("%s: incorrect run", w.name)
		}
		for _, ms := range append(spec.EndToEnd, spec.PerLayer...) {
			m, ok := rep.Metrics[ms.Name]
			if !ok {
				t.Errorf("%s: declared metric %s not measured", w.name, ms.Name)
			} else if m.Unit != ms.Unit {
				t.Errorf("%s: %s in %s, declared %s", w.name, ms.Name, m.Unit, ms.Unit)
			}
		}
		for _, name := range append([]string{"sha256", "ground-truth", "stable-answers", "trace-join"}, w.checks...) {
			if c := rep.Checks[name]; c == nil || c.Ran == 0 || c.Failed > 0 {
				t.Errorf("%s: check %s did not run or failed: %+v", w.name, name, c)
			}
		}
		if len(rep.pids) == 0 {
			t.Errorf("%s: no child process recorded", w.name)
		}
		for _, pid := range rep.pids {
			if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
				t.Errorf("%s: child %d survived the run (kill 0: %v)", w.name, pid, err)
			}
		}
		if _, err := os.Stat(rep.runDir); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: scratch directory %s survived the run", w.name, rep.runDir)
		}
	}
	if left, _ := os.ReadDir(work); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompareVerdicts covers each verdict of the comparison rule.
func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{100, 100, 101, 99, 100, 101, 99, 100, 100, 101}, "unchanged"},
		{"faster", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "improved"},
		{"slower", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "regressed"},
		{"noisy", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, "unresolved"},
	} {
		if got := compareMetric(base, c.b, lower).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	// Whole sets: a lower p50 bought with failed requests regresses the
	// failures row, and sets that cannot be compared are refused.
	spec := &benchSpec{EndToEnd: []metricSpec{lower}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	set := func(p50 []float64, failed int64, mod func(*report)) []report {
		var out []report
		for i, v := range p50 {
			r := report{Workload: "w", Seed: int64(i + 1), Seconds: 12, Correct: true, Attempted: 1000, Failed: failed,
				Metrics: map[string]metric{"p50_ms": {Value: v, Unit: "ms"}}}
			if mod != nil {
				mod(&r)
			}
			out = append(out, r)
		}
		return out
	}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	rows, err := compareSets(spec, set(base, 0, nil), set(faster, 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.metric] = r.verdict
	}
	if got["p50_ms"] != "improved" || got["failures"] != "regressed" {
		t.Errorf("faster with failures: verdicts %v, want p50_ms improved and failures regressed", got)
	}
	for _, c := range []struct {
		name string
		mod  func(*report)
	}{
		{"incorrect run", func(r *report) { r.Correct = r.Seed != 3 }},
		{"other length", func(r *report) { r.Seconds = 30 }},
		{"missing run", func(r *report) {
			if r.Seed == 10 {
				r.Workload = "other"
			}
		}},
	} {
		if _, err := compareSets(spec, set(base, 0, nil), set(base, 0, c.mod)); err == nil {
			t.Errorf("%s: sets compared, want them refused", c.name)
		}
	}
}
