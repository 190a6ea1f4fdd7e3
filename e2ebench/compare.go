package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// compareMain compares two sets of untraced runs recorded with -out: A is
// the parent (or first set), B the change. For every end-to-end metric
// and workload it prints each side's median and quartiles, the share of
// index-paired runs B wins, and a verdict:
//
//   - improved: B wins at least nine tenths of the pairs (ties count for
//     neither) and the medians differ by more than A's interquartile
//     range, in B's favour;
//   - unresolved: otherwise, when either side's interquartile range is
//     wider than the metric's bound (as a share of its median), unless
//     every B run is better than every A run;
//   - regressed: otherwise, when B's median is worse than A's by more
//     than the bound;
//   - unchanged: everything else.
//
// Each workload also gets a failures row: B regresses when a larger share
// of its operations failed than of A's, so a change cannot buy a better
// latency by failing requests. Sets that cannot be compared — an
// incorrect run, runs of different lengths, or a workload with a
// different number of runs on each side — are refused. It exits 1 when
// any row regressed or the sets were refused.
func compareMain(spec *benchSpec, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench -compare A.ndjson B.ndjson")
		return 2
	}
	a, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	b, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	rows, err := compareSets(spec, a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: -compare:", err)
		return 1
	}
	regressed := false
	fmt.Printf("%-14s %-12s %-30s %-30s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, r := range rows {
		if r.verdict == "regressed" {
			regressed = true
		}
		fmt.Printf("%-14s %-12s %-30s %-30s %6s  %s\n", r.workload, r.metric, r.a, r.b, r.wins, r.verdict)
	}
	if regressed {
		return 1
	}
	return 0
}

// readRuns reads the untraced run reports of an -out file.
func readRuns(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// row is one printed line of a comparison.
type row struct {
	workload, metric string
	a, b             string // each side's summary
	wins             string
	verdict          string
}

// compareSets checks that sets a and b can be compared and returns their
// rows: one per declared end-to-end metric and workload, then the
// workload's failures row.
func compareSets(spec *benchSpec, a, b []report) ([]row, error) {
	seconds := -1.0
	for set, runs := range map[string][]report{"A": a, "B": b} {
		for _, r := range runs {
			if !r.Correct {
				return nil, fmt.Errorf("set %s: the %s run at seed %d is incorrect", set, r.Workload, r.Seed)
			}
			if seconds >= 0 && r.Seconds != seconds {
				return nil, fmt.Errorf("runs of different lengths: %g s and %g s", seconds, r.Seconds)
			}
			seconds = r.Seconds
		}
	}
	var rows []row
	for _, w := range spec.Workloads {
		ra, rb := runsOf(a, w.Name), runsOf(b, w.Name)
		if len(ra) != len(rb) {
			return nil, fmt.Errorf("%s: %d runs in set A, %d in set B", w.Name, len(ra), len(rb))
		}
		if len(ra) < 2 {
			continue
		}
		for _, ms := range spec.EndToEnd {
			av, bv := values(ra, ms.Name), values(rb, ms.Name)
			if len(av) != len(ra) || len(bv) != len(rb) {
				return nil, fmt.Errorf("%s: metric %s missing from some runs", w.Name, ms.Name)
			}
			c := compareMetric(av, bv, ms)
			rows = append(rows, row{workload: w.Name, metric: ms.Name,
				a:       fmt.Sprintf("%.4g [%.4g, %.4g]", c.a[1], c.a[0], c.a[2]),
				b:       fmt.Sprintf("%.4g [%.4g, %.4g]", c.b[1], c.b[0], c.b[2]),
				wins:    fmt.Sprintf("%.0f%%", 100*c.wins),
				verdict: c.verdict})
		}
		fa, aa := failures(ra)
		fb, ab := failures(rb)
		verdict := "unchanged"
		if float64(fb)*float64(aa) > float64(fa)*float64(ab) { // fb/ab > fa/aa
			verdict = "regressed"
		}
		rows = append(rows, row{workload: w.Name, metric: "failures",
			a: fmt.Sprintf("%d of %d", fa, aa), b: fmt.Sprintf("%d of %d", fb, ab), wins: "-", verdict: verdict})
	}
	return rows, nil
}

func runsOf(runs []report, workload string) []report {
	var out []report
	for _, r := range runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []report, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// failures sums the failed and attempted operations of runs.
func failures(runs []report) (failed, attempted int64) {
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// comparison is one (metric, workload) row: each side's q1, median, q3,
// B's share of pairs won, and the verdict.
type comparison struct {
	a, b    [3]float64
	wins    float64
	verdict string
}

func compareMetric(a, b []float64, ms metricSpec) comparison {
	better := func(x, y float64) bool { // x better than y
		if ms.Better == "higher" {
			return x > y
		}
		return x < y
	}
	c := comparison{a: quartiles(a), b: quartiles(b)}
	pairs := min(len(a), len(b))
	won := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			won++
		}
	}
	c.wins = float64(won) / float64(pairs)
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / q[1] }
	allBetter := better(slices.Max(b), slices.Min(a))
	if ms.Better == "higher" {
		allBetter = better(slices.Min(b), slices.Max(a))
	}
	worse := (c.b[1] - c.a[1]) / c.a[1]
	if ms.Better == "higher" {
		worse = -worse
	}
	switch {
	case c.wins >= 0.9 && better(c.b[1], c.a[1]) && abs(c.b[1]-c.a[1]) > c.a[2]-c.a[0]:
		c.verdict = "improved"
	case (spread(c.a) > ms.Bound || spread(c.b) > ms.Bound) && !allBetter:
		c.verdict = "unresolved"
	case worse > ms.Bound:
		c.verdict = "regressed"
	default:
		c.verdict = "unchanged"
	}
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// quartiles returns q1, median and q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method, whose
// middle cut is the median). xs needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
