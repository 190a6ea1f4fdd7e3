// Command bench runs the tracked performance series — the sweep
// microbenchmarks plus the identify/eval-matrix pipeline — with
// -benchmem semantics and writes BENCH_<date>.json so the numbers form
// a release-to-release trajectory. When a previous BENCH_*.json exists
// it prints a per-benchmark comparison and, with -check, fails if any
// ns/op regressed beyond -threshold.
//
// Usage:
//
//	bench [-out .] [-date YYYY-MM-DD] [-smoke] [-check] [-threshold 1.25]
//	      [-mbs-threshold 0.85] [-series regexp] [-cpuprofile f] [-memprofile f]
//
// -smoke runs every benchmark for a single iteration (harness
// correctness, not timing) — this is what CI uses. The JSON schema per
// result is {name, ns_op, b_op, allocs_op, mb_s}. -check also enforces
// the throughput floor (-mbs-threshold, new/old MB/s) and the parallel
// scaling curve: on hosts with >= 4 cores, SweepRecords/workers=4
// pinned at gomaxprocs=4 must reach 1.8x sequential SweepRecords, and no
// workers=N row may fall below sequential anywhere. A row pinned at
// gomaxprocs=P is held against the sequential sweep pinned at P. Outside
// -smoke every row is measured in ten alternating rounds and reports its
// total over them.
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/funseeker/funseeker"
	"github.com/funseeker/funseeker/internal/arm64"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/engine"
	"github.com/funseeker/funseeker/internal/obs"
	"github.com/funseeker/funseeker/internal/ring"
	"github.com/funseeker/funseeker/internal/store"
	"github.com/funseeker/funseeker/internal/x86"
)

type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_op"`
	BPerOp      int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	MBPerS      float64 `json:"mb_s,omitempty"`
	// BinPerS is binaries analyzed per second, reported by the engine/*
	// series where one op processes the whole corpus.
	BinPerS float64 `json:"bin_s,omitempty"`
	// Gomaxprocs is set on rows that pin runtime.GOMAXPROCS for the
	// duration of the measurement (the gomaxprocs=N series); zero means
	// the process-wide value in the report header applied.
	Gomaxprocs int `json:"gomaxprocs,omitempty"`
}

type report struct {
	Date   string `json:"date"`
	Goos   string `json:"goos"`
	Goarch string `json:"goarch"`
	// Gomaxprocs is the process-wide default: it applies to every row
	// whose own gomaxprocs field is absent. Rows in the gomaxprocs=N
	// series pin the scheduler for their measurement and record the
	// pinned value, overriding this default for that row only.
	Gomaxprocs int `json:"gomaxprocs"`
	// NumCPU records the host's core count so scaling rows (workers=N,
	// gomaxprocs=N) can be read honestly: pinning gomaxprocs=4 on a
	// 1-core host changes scheduling, not hardware parallelism.
	NumCPU  int      `json:"numcpu"`
	Results []result `json:"results"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	testing.Init()
	var (
		outDir       = flag.String("out", ".", "directory for BENCH_<date>.json")
		date         = flag.String("date", time.Now().Format("2006-01-02"), "date stamp for the output file")
		smoke        = flag.Bool("smoke", false, "single-iteration run (harness correctness, not timing); writes no report")
		check        = flag.Bool("check", false, "exit non-zero on ns/op, MB/s, or parallel-scaling regressions vs the previous BENCH_*.json")
		threshold    = flag.Float64("threshold", 1.25, "regression threshold as a ratio (new/old ns_op)")
		mbsThreshold = flag.Float64("mbs-threshold", 0.85, "throughput floor as a ratio (new/old mb_s); rows below it regress")
		scale        = flag.Float64("scale", 0.5, "corpus function-count scale factor")
		programs     = flag.Int("programs", 2, "programs per suite in the corpus")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile covering every benchmark to this file")
		memprofile   = flag.String("memprofile", "", "write an allocation profile taken after the run to this file")
		seriesExpr   = flag.String("series", "", "regexp selecting which benchmark rows run (empty = all)")
		benchFlag    = flag.String("benchtime", "1s", "per-row sampling budget (go test -benchtime syntax); longer tightens noisy rows")
	)
	flag.Parse()
	var seriesRe *regexp.Regexp
	if *seriesExpr != "" {
		re, err := regexp.Compile(*seriesExpr)
		if err != nil {
			return fmt.Errorf("-series: %w", err)
		}
		seriesRe = re
	}
	benchtime := *benchFlag
	if *smoke {
		benchtime = "1x"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return err
	}

	rep := report{
		Date:       *date,
		Goos:       runtime.GOOS,
		Goarch:     runtime.GOARCH,
		Gomaxprocs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			}
		}()
	}

	fmt.Fprintf(os.Stderr, "bench: corpus (scale=%g programs=%d)...\n", *scale, *programs)
	set, corpusBytes, err := buildCorpus(*scale, *programs)
	if err != nil {
		return err
	}
	large, err := buildLarge()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %d binaries, %d bytes (+ %d-byte large binary); benchtime=%s\n",
		len(set), corpusBytes, len(large.raw), benchtime)

	var bms []benchmark
	for _, bm := range series(set, corpusBytes, large) {
		if seriesRe == nil || seriesRe.MatchString(bm.name) {
			bms = append(bms, bm)
		}
	}
	measure := func(bm benchmark) testing.BenchmarkResult {
		if bm.gomaxprocs > 0 {
			runtime.GOMAXPROCS(bm.gomaxprocs)
			defer runtime.GOMAXPROCS(rep.Gomaxprocs)
		}
		return testing.Benchmark(bm.fn)
	}
	// The scaling gate compares rows within one run, and -check holds
	// each row against the previous run, so host noise that hits one row
	// and not another decides both. Every row is therefore measured in
	// rounds, alternating across the rows so drift in host speed reaches
	// all of them alike, and reports its total over every round: the
	// mean of the rounds, not the luckiest one.
	runs := make([]testing.BenchmarkResult, len(bms))
	for i, bm := range bms {
		runs[i] = measure(bm)
	}
	if !*smoke {
		for round := 1; round < sampleRounds; round++ {
			for i, bm := range bms {
				r := measure(bm)
				runs[i].N += r.N
				runs[i].T += r.T
				runs[i].MemAllocs += r.MemAllocs
				runs[i].MemBytes += r.MemBytes
			}
		}
	}
	for i, bm := range bms {
		r := runs[i]
		res := result{
			Name:        bm.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BPerOp:      r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Gomaxprocs:  bm.gomaxprocs,
		}
		if r.Bytes > 0 && r.T > 0 {
			res.MBPerS = float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e6
		}
		// The engine/* series process the whole corpus per op, so their
		// ns/op converts directly to engine throughput in binaries/sec.
		if strings.HasPrefix(bm.name, "engine/") && res.NsPerOp > 0 {
			res.BinPerS = float64(len(set)) / (res.NsPerOp / 1e9)
		}
		rep.Results = append(rep.Results, res)
		fmt.Printf("%-40s %14.0f ns/op %12d B/op %8d allocs/op", res.Name, res.NsPerOp, res.BPerOp, res.AllocsPerOp)
		if res.MBPerS > 0 {
			fmt.Printf("  %10.2f MB/s", res.MBPerS)
		}
		if res.BinPerS > 0 {
			fmt.Printf("  %10.2f bin/s", res.BinPerS)
		}
		fmt.Println()
	}

	outPath := filepath.Join(*outDir, "BENCH_"+*date+".json")
	prev, prevPath, err := latestPrevious(*outDir, outPath)
	if err != nil {
		return err
	}

	// A smoke run's single iterations are no baseline: it writes
	// nothing, so it cannot overwrite a recorded BENCH_<date>.json.
	if *smoke {
		fmt.Fprintln(os.Stderr, "bench: -smoke writes no report")
	} else {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s\n", outPath)
	}

	var cmpErr error
	if prev == nil {
		fmt.Fprintln(os.Stderr, "bench: no previous BENCH_*.json to compare against")
	} else {
		cmpErr = compare(prev, prevPath, &rep, *threshold, *mbsThreshold, *check)
	}
	if *check {
		if err := checkScaling(&rep, *smoke); err != nil {
			return err
		}
	}
	return cmpErr
}

// sampleRounds is how many alternating rounds each row is measured in.
// On a shared 2-CPU host the ratio of two adjacent rows doing the same
// work spreads by about 10% (one standard deviation) from round to
// round; over ten rounds the spread of the mean falls to about 3%, well
// inside the scaling gate's 10% noise allowance.
const sampleRounds = 10

// checkScaling enforces the parallel scaling curve within one report:
// no workers=N row may fall below sequential SweepRecords (beyond noise),
// and on hosts with at least 4 cores the workers=4 row pinned at
// gomaxprocs=4 must reach 1.8x sequential throughput. Each row is held
// against the sequential sweep run at its own GOMAXPROCS (see
// seqBaseline). Smoke runs are single-iteration and carry no timing
// signal, so they skip the check.
func checkScaling(rep *report, smoke bool) error {
	if smoke {
		fmt.Fprintln(os.Stderr, "bench: scaling check skipped (-smoke timing is not meaningful)")
		return nil
	}
	mbs := make(map[string]float64, len(rep.Results))
	procs := make(map[string]int, len(rep.Results))
	for _, r := range rep.Results {
		mbs[r.Name], procs[r.Name] = r.MBPerS, r.Gomaxprocs
	}
	if mbs["x86/SweepRecords"] <= 0 {
		fmt.Fprintln(os.Stderr, "bench: scaling check skipped (no x86/SweepRecords row)")
		return nil
	}
	// Same-binary benchmark noise on shared VMs runs ~10%; only flag a
	// parallel row as a collapse when it is clearly below sequential.
	const noise = 0.90
	for _, r := range rep.Results {
		if !strings.HasPrefix(r.Name, "x86/SweepRecords/") || strings.HasPrefix(r.Name, seqPinned) || r.MBPerS <= 0 {
			continue
		}
		seqName, seq := seqBaseline(mbs, r.Gomaxprocs)
		if r.MBPerS < seq*noise {
			return fmt.Errorf("scaling: %s at %.2f MB/s is below sequential %s %.2f MB/s", r.Name, r.MBPerS, seqName, seq)
		}
	}
	if rep.NumCPU < 4 {
		fmt.Fprintf(os.Stderr, "bench: 1.8x scaling target skipped (%d cores; needs >= 4)\n", rep.NumCPU)
		return nil
	}
	const target = 1.8
	name := "x86/SweepRecords/workers=4/gomaxprocs=4"
	seqName, seq := seqBaseline(mbs, procs[name])
	if par := mbs[name]; par > 0 && par < seq*target {
		return fmt.Errorf("scaling: %s at %.2f MB/s is %.2fx sequential %s (%.2f MB/s), want >= %.1fx",
			name, par, par/seq, seqName, seq, target)
	}
	return nil
}

// seqPinned prefixes the sequential SweepRecords rows pinned at
// gomaxprocs=N, the baselines of the pinned workers=4 rows.
const seqPinned = "x86/SweepRecords/workers=1/"

// seqBaseline returns the sequential row a scaling row run at GOMAXPROCS
// procs (0: unpinned) is held against, and its MB/s: the sequential sweep
// pinned at the same procs when the report has it, else the unpinned one.
// A pinned row cannot hand garbage collection or other runtime work to
// cores beyond its own, which an unpinned sequential row can, so holding
// gomaxprocs=1 against the unpinned row on a multi-core host would charge
// the sharding for a cost it does not have.
func seqBaseline(mbs map[string]float64, procs int) (string, float64) {
	if procs > 0 {
		name := fmt.Sprintf("%sgomaxprocs=%d", seqPinned, procs)
		if v := mbs[name]; v > 0 {
			return name, v
		}
	}
	return "x86/SweepRecords", mbs["x86/SweepRecords"]
}

type benchmark struct {
	name string
	fn   func(b *testing.B)
	// gomaxprocs, when > 0, pins runtime.GOMAXPROCS around this row's
	// measurement so the parallel series can be read as a scaling curve
	// independent of the machine the numbers were recorded on.
	gomaxprocs int
}

type benchCase struct {
	bin *funseeker.Binary
	gt  *funseeker.GroundTruth
	raw []byte
}

// buildCorpus mirrors the mixed corpus of bench_test.go: a few programs
// per suite across four representative build configurations.
func buildCorpus(scale float64, programs int) ([]benchCase, int, error) {
	opts := funseeker.CorpusOptions{Scale: scale, Seed: 424242, Programs: programs}
	configs := []funseeker.BuildConfig{
		{Compiler: funseeker.GCC, Mode: funseeker.ModeX64, Opt: funseeker.O2},
		{Compiler: funseeker.GCC, Mode: funseeker.ModeX86, Opt: funseeker.O0},
		{Compiler: funseeker.Clang, Mode: funseeker.ModeX64, PIE: true, Opt: funseeker.O3},
		{Compiler: funseeker.Clang, Mode: funseeker.ModeX86, Opt: funseeker.Os},
	}
	var set []benchCase
	bytes := 0
	for _, suite := range []funseeker.Suite{funseeker.SuiteCoreutils, funseeker.SuiteBinutils} {
		for _, spec := range funseeker.GenerateSuite(suite, opts) {
			for _, cfg := range configs {
				res, err := funseeker.Compile(spec, cfg)
				if err != nil {
					return nil, 0, fmt.Errorf("corpus: %w", err)
				}
				bin, err := funseeker.Load(res.Stripped)
				if err != nil {
					return nil, 0, fmt.Errorf("corpus: %w", err)
				}
				set = append(set, benchCase{bin: bin, gt: res.GT, raw: res.Stripped})
				bytes += len(res.Stripped)
			}
		}
	}
	return set, bytes, nil
}

// buildLarge compiles the first C++ program of the SPEC suite at
// function-count scale 20 — a ~0.5 MiB binary with exception tables, the
// shape of the end-to-end benchmark's analyze-large inputs — with GCC,
// x86-64, PIE, -O2.
func buildLarge() (benchCase, error) {
	for _, spec := range funseeker.GenerateSuite(funseeker.SuiteSPEC, funseeker.CorpusOptions{Scale: 20, Seed: 424242, Programs: 4}) {
		if spec.Lang != funseeker.LangCPP {
			continue
		}
		res, err := funseeker.Compile(spec, funseeker.BuildConfig{Compiler: funseeker.GCC, Mode: funseeker.ModeX64, PIE: true, Opt: funseeker.O2})
		if err != nil {
			return benchCase{}, fmt.Errorf("large binary: %w", err)
		}
		bin, err := funseeker.Load(res.Stripped)
		if err != nil {
			return benchCase{}, fmt.Errorf("large binary: %w", err)
		}
		return benchCase{bin: bin, gt: res.GT, raw: res.Stripped}, nil
	}
	return benchCase{}, fmt.Errorf("large binary: no C++ program among the first SPEC programs")
}

// series is the tracked benchmark list. Names are stable across releases
// — the comparison joins on them.
func series(set []benchCase, corpusBytes int, large benchCase) []benchmark {
	const textLen = 1 << 20
	rng := rand.New(rand.NewSource(424242))
	text := x86.GenText(textLen, x86.Mode64, rng, 0)
	perBin := int64(corpusBytes / len(set))

	bms := []benchmark{
		{name: "x86/Decode", fn: func(b *testing.B) {
			b.SetBytes(textLen)
			b.ReportAllocs()
			var inst x86.Inst
			for i := 0; i < b.N; i++ {
				off := 0
				for off < len(text) {
					if err := x86.DecodeInto(text[off:], uint64(off), x86.Mode64, &inst); err != nil {
						off++
						continue
					}
					off += inst.Len
				}
			}
		}},
		{name: "x86/Sweep", fn: func(b *testing.B) {
			b.SetBytes(textLen)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				x86.LinearSweep(text, 0x401000, x86.Mode64, func(inst *x86.Inst) bool {
					n++
					return true
				})
				if n == 0 {
					b.Fatal("empty sweep")
				}
			}
		}},
		// x86/SweepRecords is FunSeeker's DISASSEMBLE step: the sequential
		// sweep keeping only the boundary bitmap and the endbr/call/jump
		// records, so it reads directly against x86/Sweep (decode alone).
		// It is the baseline of the parallel scaling gate.
		{name: "x86/SweepRecords", fn: sweepRecordsBench(text, 1)},
	}
	for _, workers := range []int{2, 4, 8} {
		bms = append(bms, benchmark{name: fmt.Sprintf("x86/SweepRecords/workers=%d", workers), fn: sweepRecordsBench(text, workers)})
	}
	// The gomaxprocs=N series re-runs the workers=4 sharded sweep with
	// the scheduler pinned, separating the sharding's own cost from
	// hardware parallelism. Each is preceded by the sequential sweep
	// pinned alike, the baseline the scaling gate holds it against.
	for _, procs := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			bms = append(bms, benchmark{
				name:       fmt.Sprintf("x86/SweepRecords/workers=%d/gomaxprocs=%d", workers, procs),
				gomaxprocs: procs,
				fn:         sweepRecordsBench(text, workers),
			})
		}
	}
	atext := arm64.GenText(textLen, rand.New(rand.NewSource(424242)))
	bms = append(bms,
		benchmark{name: "arm64/Sweep", fn: func(b *testing.B) {
			b.SetBytes(int64(len(atext)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				for off := 0; off+4 <= len(atext); off += 4 {
					w := binary.LittleEndian.Uint32(atext[off:])
					if arm64.Decode(w, 0x401000+uint64(off)).Class == arm64.ClassBL {
						n++
					}
				}
				if n == 0 {
					b.Fatal("no calls decoded")
				}
			}
		}},
	)
	bms = append(bms,
		// elfx/Load is one load of one corpus image: the header parse,
		// the symbol tables and the PLT map, which every cold analysis
		// pays before its sweep.
		benchmark{name: "elfx/Load", fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := elfx.Load(set[i%len(set)].raw); err != nil {
					b.Fatal(err)
				}
			}
		}},
		benchmark{name: "identify/Config4", fn: func(b *testing.B) {
			b.SetBytes(perBin)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := funseeker.IdentifyBinary(set[i%len(set)].bin, funseeker.Config4); err != nil {
					b.Fatal(err)
				}
			}
		}},
		benchmark{name: "identify/Config5", fn: func(b *testing.B) {
			b.SetBytes(perBin)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := funseeker.IdentifyBinary(set[i%len(set)].bin, funseeker.Config5); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// identify/Config5Large is configuration ⑤ on one large binary,
		// where the sweep and SELECTTAILCALL dominate; allocs/op is the
		// whole identification's allocation count.
		benchmark{name: "identify/Config5Large", fn: func(b *testing.B) {
			b.SetBytes(int64(len(large.raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := funseeker.IdentifyBinary(large.bin, funseeker.Config5); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// core/Refine is identify/Config5Large without its sweep: each
		// op gets a fresh context whose sweep is primed outside the
		// timer, so the row tracks the post-sweep work alone — the
		// exception metadata, FILTERENDBR, both SELECTTAILCALL passes
		// and the fusion.
		benchmark{name: "core/Refine", fn: func(b *testing.B) {
			b.SetBytes(int64(len(large.raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				actx := funseeker.NewContext(large.bin)
				actx.Sweep()
				b.StartTimer()
				if _, err := funseeker.IdentifyCtx(context.Background(), actx, funseeker.Config5); err != nil {
					b.Fatal(err)
				}
			}
		}},
		benchmark{name: "classify/Endbrs", fn: func(b *testing.B) {
			b.SetBytes(perBin)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := funseeker.ClassifyEndbrs(funseeker.NewContext(set[i%len(set)].bin)); err != nil {
					b.Fatal(err)
				}
			}
		}},
		benchmark{name: "tools/FETCH", fn: func(b *testing.B) {
			b.SetBytes(perBin)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := funseeker.RunFETCH(set[i%len(set)].bin); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// engine/Throughput is cold corpus analysis: a fresh engine per op
		// pushes every binary through the bounded worker pool, so ns/op is
		// the end-to-end cost of one full corpus (load + sweep + identify).
		benchmark{name: "engine/Throughput", fn: func(b *testing.B) {
			b.SetBytes(int64(corpusBytes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := engine.New(engine.Config{})
				var wg sync.WaitGroup
				errs := make(chan error, len(set))
				for _, c := range set {
					wg.Add(1)
					go func(raw []byte) {
						defer wg.Done()
						if _, err := eng.Analyze(context.Background(), raw, funseeker.Config4); err != nil {
							errs <- err
						}
					}(c.raw)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			}
		}},
		// engine/CacheHit measures the content-hash fast path: every
		// binary is pre-warmed, so each op is pure SHA-256 + LRU lookup.
		benchmark{name: "engine/CacheHit", fn: func(b *testing.B) {
			eng := engine.New(engine.Config{})
			for _, c := range set {
				if _, err := eng.Analyze(context.Background(), c.raw, funseeker.Config4); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(corpusBytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range set {
					res, err := eng.Analyze(context.Background(), c.raw, funseeker.Config4)
					if err != nil {
						b.Fatal(err)
					}
					if res.CacheSource == "" {
						b.Fatal("cache miss on a pre-warmed binary")
					}
				}
			}
		}},
		// obs/HistogramObserve is the observability tax: one Observe on
		// the hot path of every analyze/stage measurement. It must stay
		// lock-free and allocation-free or the metrics layer shows up in
		// the sweep numbers it is supposed to measure.
		benchmark{name: "obs/HistogramObserve", fn: func(b *testing.B) {
			h := obs.NewRegistry().NewHistogram("bench_observe_seconds", "bench", obs.LatencyBuckets)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				d := 127 * time.Microsecond
				for pb.Next() {
					h.ObserveDuration(d)
				}
			})
			if n := h.Snapshot().Count; n == 0 {
				b.Fatal("no observations recorded")
			}
		}},
		// store/Put and store/Get are the persistent result tier's hot
		// paths: an append + index insert, and a ReadAt outside the lock.
		// Sized like real traffic — 34-byte cache keys, ~2KB JSON values.
		benchmark{name: "store/Put", fn: func(b *testing.B) {
			dir, err := os.MkdirTemp("", "funseeker-bench-store")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			val := bytes.Repeat([]byte(`{"v":1,"entries":[4198400,4198464]}`), 60)
			key := make([]byte, 34)
			b.SetBytes(int64(len(val)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.LittleEndian.PutUint64(key, uint64(i))
				if err := st.Put(key, val); err != nil {
					b.Fatal(err)
				}
			}
		}},
		benchmark{name: "store/Get", fn: func(b *testing.B) {
			dir, err := os.MkdirTemp("", "funseeker-bench-store")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			val := bytes.Repeat([]byte(`{"v":1,"entries":[4198400,4198464]}`), 60)
			const records = 4096
			key := make([]byte, 34)
			for i := 0; i < records; i++ {
				binary.LittleEndian.PutUint64(key, uint64(i))
				if err := st.Put(key, val); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(val)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.LittleEndian.PutUint64(key, uint64(i%records))
				v, ok, err := st.Get(key)
				if err != nil || !ok || len(v) != len(val) {
					b.Fatalf("get %d: ok=%v err=%v", i, ok, err)
				}
			}
		}},
		// store/Compact measures the cold-segment rewrite: each iteration
		// rebuilds a store where every key was written twice (50% garbage)
		// and compacts it down to the newest generation.
		benchmark{name: "store/Compact", fn: func(b *testing.B) {
			val := bytes.Repeat([]byte(`{"v":1,"entries":[4198400,4198464]}`), 60)
			const records = 1024
			key := make([]byte, 34)
			b.SetBytes(int64(2 * records * len(val)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir, err := os.MkdirTemp("", "funseeker-bench-compact")
				if err != nil {
					b.Fatal(err)
				}
				st, err := store.Open(dir, store.Options{SegmentBytes: 1 << 20})
				if err != nil {
					b.Fatal(err)
				}
				for gen := 0; gen < 2; gen++ {
					for j := 0; j < records; j++ {
						binary.LittleEndian.PutUint64(key, uint64(j))
						if err := st.Put(key, val); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StartTimer()
				res, err := st.Compact()
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if res.ReclaimedBytes <= 0 {
					b.Fatalf("compaction reclaimed %d bytes", res.ReclaimedBytes)
				}
				st.Close()
				os.RemoveAll(dir)
				b.StartTimer()
			}
		}},
		// ring/Lookup is the router's per-request cost: one SHA-256 of a
		// 32-byte key plus a binary search over 16×512 vnode points.
		benchmark{name: "ring/Lookup", fn: func(b *testing.B) {
			r := ring.New(0)
			for i := 0; i < 16; i++ {
				r.Add(fmt.Sprintf("http://replica-%d:8745", i))
			}
			key := make([]byte, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.LittleEndian.PutUint64(key, uint64(i))
				if _, ok := r.Lookup(key); !ok {
					b.Fatal("empty ring")
				}
			}
		}},
		benchmark{name: "evalmatrix/shared-context", fn: func(b *testing.B) {
			b.SetBytes(int64(corpusBytes))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range set {
					actx := funseeker.NewContext(c.bin)
					if _, err := funseeker.ClassifyEndbrs(actx); err != nil {
						b.Fatal(err)
					}
					for _, opts := range []funseeker.Options{
						funseeker.Config1, funseeker.Config2, funseeker.Config3,
						funseeker.Config4, funseeker.Config5,
					} {
						if _, err := funseeker.IdentifyCtx(context.Background(), actx, opts); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := funseeker.RunFETCHCtx(context.Background(), actx); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
	)
	return bms
}

// sweepRecordsBench times one records sweep of text per op under the
// given worker count (1 = sequential).
func sweepRecordsBench(text []byte, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		b.SetBytes(int64(len(text)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := x86.SweepRecords(context.Background(), text, 0x401000, x86.Mode64, workers)
			if err != nil || len(r.Calls) == 0 {
				b.Fatalf("sweep: %v (%d calls)", err, len(r.Calls))
			}
		}
	}
}

// latestPrevious finds the lexicographically latest BENCH_*.json in dir,
// excluding the file about to be written.
func latestPrevious(dir, exclude string) (*report, string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, "", err
	}
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		if sameFile(matches[i], exclude) {
			continue
		}
		data, err := os.ReadFile(matches[i])
		if err != nil {
			return nil, "", err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, "", fmt.Errorf("%s: %w", matches[i], err)
		}
		return &rep, matches[i], nil
	}
	return nil, "", nil
}

func sameFile(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && aa == bb
}

// compare prints a per-benchmark delta table vs prev and, in check mode,
// returns an error if any ns/op regressed beyond threshold or any
// throughput row fell below mbsThreshold of its previous MB/s. The two
// axes overlap for fixed-size rows but diverge for corpus rows, where a
// corpus-size change moves ns/op without moving MB/s — throughput is the
// comparison that survives re-parameterization.
func compare(prev *report, prevPath string, cur *report, threshold, mbsThreshold float64, check bool) error {
	old := make(map[string]result, len(prev.Results))
	for _, r := range prev.Results {
		old[r.Name] = r
	}
	fmt.Fprintf(os.Stderr, "bench: comparing against %s (ns/op threshold %.2fx, MB/s floor %.2fx)\n",
		prevPath, threshold, mbsThreshold)
	var regressed []string
	for _, r := range cur.Results {
		o, ok := old[r.Name]
		if !ok || o.NsPerOp <= 0 {
			fmt.Printf("%-40s (new)\n", r.Name)
			continue
		}
		ratio := r.NsPerOp / o.NsPerOp
		mark := ""
		if ratio > threshold {
			mark = "  REGRESSION"
			regressed = append(regressed, r.Name)
		}
		line := fmt.Sprintf("%-40s %8.2fx ns/op", r.Name, ratio)
		if o.MBPerS > 0 && r.MBPerS > 0 {
			mbsRatio := r.MBPerS / o.MBPerS
			line += fmt.Sprintf(" %8.2fx MB/s", mbsRatio)
			if mbsRatio < mbsThreshold && mark == "" {
				mark = "  REGRESSION(MB/s)"
				regressed = append(regressed, r.Name)
			}
		}
		fmt.Printf("%s vs %s%s\n", line, prev.Date, mark)
	}
	if check && len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.2fx ns/op or below %.2fx MB/s: %v",
			len(regressed), threshold, mbsThreshold, regressed)
	}
	return nil
}
