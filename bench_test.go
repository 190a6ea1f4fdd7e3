package funseeker_test

// The benchmark harness regenerates, in testing.B form, the measurement
// behind every table and figure of the paper's evaluation:
//
//	BenchmarkTableI            — end-branch location classification
//	BenchmarkFigure3           — function-property Venn analysis
//	BenchmarkTableII_Config1-4 — the FunSeeker ablation configurations
//	BenchmarkTableIII_*        — the four tools of the comparison table
//	                             (the per-op times reproduce the paper's
//	                             Table III "Time" columns; FETCH is the
//	                             slow one)
//	BenchmarkAblation*         — design-choice ablations from DESIGN.md §4
//	BenchmarkCompile/Load      — synthetic-toolchain throughput
//
// Benchmarks run over a fixed mixed-configuration corpus built once per
// process. `go test -bench=. -benchmem` prints the series; quality
// numbers (precision/recall) for the same experiments come from
// cmd/evaltables.

import (
	"context"
	"sync"
	"testing"

	"github.com/funseeker/funseeker"
)

// benchCase is one prebuilt binary.
type benchCase struct {
	bin *funseeker.Binary
	gt  *funseeker.GroundTruth
}

var (
	benchOnce  sync.Once
	benchSet   []benchCase
	benchBytes int
)

// benchCorpus builds a mixed corpus: a few programs from each suite in
// four representative configurations.
func benchCorpus(tb testing.TB) []benchCase {
	benchOnce.Do(func() {
		opts := funseeker.CorpusOptions{Scale: 0.5, Seed: 424242, Programs: 3}
		configs := []funseeker.BuildConfig{
			{Compiler: funseeker.GCC, Mode: funseeker.ModeX64, Opt: funseeker.O2},
			{Compiler: funseeker.GCC, Mode: funseeker.ModeX86, Opt: funseeker.O0},
			{Compiler: funseeker.Clang, Mode: funseeker.ModeX64, PIE: true, Opt: funseeker.O3},
			{Compiler: funseeker.Clang, Mode: funseeker.ModeX86, Opt: funseeker.Os},
		}
		for _, suite := range []funseeker.Suite{
			funseeker.SuiteCoreutils, funseeker.SuiteBinutils, funseeker.SuiteSPEC,
		} {
			for _, spec := range funseeker.GenerateSuite(suite, opts) {
				for _, cfg := range configs {
					res, err := funseeker.Compile(spec, cfg)
					if err != nil {
						tb.Fatalf("bench corpus: %v", err)
					}
					bin, err := funseeker.Load(res.Stripped)
					if err != nil {
						tb.Fatalf("bench corpus: %v", err)
					}
					benchSet = append(benchSet, benchCase{bin: bin, gt: res.GT})
					benchBytes += len(res.Stripped)
				}
			}
		}
	})
	return benchSet
}

// benchSetBytes reports throughput in MB/s like the paper's Table III:
// per-binary benchmarks process one (average-sized) binary per op,
// whole-corpus benchmarks process benchBytes per op.
func benchSetBytes(b *testing.B, wholeCorpus bool) {
	b.Helper()
	if wholeCorpus {
		b.SetBytes(int64(benchBytes))
	} else {
		b.SetBytes(int64(benchBytes / len(benchSet)))
	}
}

// BenchmarkTableI measures the Table I analysis: classifying every end
// branch in a binary by location (entry / indirect-return / exception).
func BenchmarkTableI(b *testing.B) {
	set := benchCorpus(b)
	benchSetBytes(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := set[i%len(set)]
		if _, err := funseeker.ClassifyEndbrs(funseeker.NewContext(c.bin)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 measures the Figure 3 analysis: the three-property
// partition of all ground-truth functions.
func BenchmarkFigure3(b *testing.B) {
	set := benchCorpus(b)
	entries := make([][]uint64, len(set))
	for i, c := range set {
		entries[i] = c.gt.SortedEntries()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		funseeker.AnalyzeProperties(funseeker.NewContext(set[i%len(set)].bin), entries[i%len(set)])
	}
}

// benchIdentify runs one options preset across the corpus.
func benchIdentify(b *testing.B, opts funseeker.Options) {
	b.Helper()
	set := benchCorpus(b)
	benchSetBytes(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := funseeker.IdentifyBinary(set[i%len(set)].bin, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_* measure the four ablation configurations (Table II).
func BenchmarkTableII_Config1(b *testing.B) { benchIdentify(b, funseeker.Config1) }
func BenchmarkTableII_Config2(b *testing.B) { benchIdentify(b, funseeker.Config2) }
func BenchmarkTableII_Config3(b *testing.B) { benchIdentify(b, funseeker.Config3) }
func BenchmarkTableII_Config4(b *testing.B) { benchIdentify(b, funseeker.Config4) }

// BenchmarkTableIII_FunSeeker measures the full algorithm — the paper's
// Table III FunSeeker time column.
func BenchmarkTableIII_FunSeeker(b *testing.B) { benchIdentify(b, funseeker.DefaultOptions) }

// BenchmarkTableIII_IDA measures the IDA Pro model.
func BenchmarkTableIII_IDA(b *testing.B) {
	set := benchCorpus(b)
	benchSetBytes(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := funseeker.RunIDA(set[i%len(set)].bin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII_Ghidra measures the Ghidra model.
func BenchmarkTableIII_Ghidra(b *testing.B) {
	set := benchCorpus(b)
	benchSetBytes(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := funseeker.RunGhidra(set[i%len(set)].bin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII_FETCH measures the FETCH model — the paper's Table
// III FETCH time column (≈5× FunSeeker).
func BenchmarkTableIII_FETCH(b *testing.B) {
	set := benchCorpus(b)
	benchSetBytes(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := funseeker.RunFETCH(set[i%len(set)].bin); err != nil {
			b.Fatal(err)
		}
	}
}

// evalMatrixOnce replicates the per-binary work of the evaluation matrix
// (both studies, the four ablation configurations, and the three baseline
// tools) the way eval.RunAll issues it, parameterized over how the
// analyses obtain their inputs.
func evalMatrixShared(b *testing.B, c benchCase) {
	actx := funseeker.NewContext(c.bin)
	if _, err := funseeker.ClassifyEndbrs(actx); err != nil {
		b.Fatal(err)
	}
	funseeker.AnalyzeProperties(actx, c.gt.SortedEntries())
	for _, opts := range []funseeker.Options{
		funseeker.Config1, funseeker.Config2, funseeker.Config3, funseeker.Config4,
	} {
		if _, err := funseeker.IdentifyCtx(context.Background(), actx, opts); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := funseeker.RunIDACtx(context.Background(), actx); err != nil {
		b.Fatal(err)
	}
	if _, err := funseeker.RunGhidraCtx(context.Background(), actx); err != nil {
		b.Fatal(err)
	}
	if _, err := funseeker.RunFETCHCtx(context.Background(), actx); err != nil {
		b.Fatal(err)
	}
}

func evalMatrixReload(b *testing.B, c benchCase) {
	if _, err := funseeker.ClassifyEndbrs(funseeker.NewContext(c.bin)); err != nil {
		b.Fatal(err)
	}
	funseeker.AnalyzeProperties(funseeker.NewContext(c.bin), c.gt.SortedEntries())
	for _, opts := range []funseeker.Options{
		funseeker.Config1, funseeker.Config2, funseeker.Config3, funseeker.Config4,
	} {
		if _, err := funseeker.IdentifyBinary(c.bin, opts); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := funseeker.RunIDA(c.bin); err != nil {
		b.Fatal(err)
	}
	if _, err := funseeker.RunGhidra(c.bin); err != nil {
		b.Fatal(err)
	}
	if _, err := funseeker.RunFETCH(c.bin); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEvalMatrix compares the full tool×config evaluation sweep with
// and without the shared per-binary analysis context. "per-tool-reload"
// is the old behaviour — every analysis re-sweeps .text and re-parses
// .eh_frame; "shared-context" memoizes both per binary. One op = the
// whole corpus through the whole matrix.
func BenchmarkEvalMatrix(b *testing.B) {
	set := benchCorpus(b)
	b.Run("per-tool-reload", func(b *testing.B) {
		benchSetBytes(b, true)
		for i := 0; i < b.N; i++ {
			for _, c := range set {
				evalMatrixReload(b, c)
			}
		}
	})
	b.Run("shared-context", func(b *testing.B) {
		benchSetBytes(b, true)
		for i := 0; i < b.N; i++ {
			for _, c := range set {
				evalMatrixShared(b, c)
			}
		}
	})
	// Cold single-binary path: one Context used once, versus the direct
	// call — the wrapper must not cost anything measurable.
	b.Run("cold-single-binary", func(b *testing.B) {
		benchSetBytes(b, false)
		for i := 0; i < b.N; i++ {
			c := set[i%len(set)]
			if _, err := funseeker.IdentifyBinary(c.bin, funseeker.Config4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationNoFilterEndbr isolates the cost/benefit of
// FILTERENDBR: configuration ④ minus the end-branch filter.
func BenchmarkAblationNoFilterEndbr(b *testing.B) {
	benchIdentify(b, funseeker.Options{UseJumpTargets: true, SelectTailCall: true})
}

// BenchmarkAblationBoundaryOnlyTailCall weakens SELECTTAILCALL to the
// boundary test alone (DESIGN.md §4).
func BenchmarkAblationBoundaryOnlyTailCall(b *testing.B) {
	opts := funseeker.Config4
	opts.TailBoundaryOnly = true
	benchIdentify(b, opts)
}

// BenchmarkCompile measures the synthetic toolchain end to end.
func BenchmarkCompile(b *testing.B) {
	spec := funseeker.GenerateSuite(funseeker.SuiteCoreutils,
		funseeker.CorpusOptions{Scale: 0.5, Seed: 7, Programs: 1})[0]
	cfg := funseeker.BuildConfig{Compiler: funseeker.GCC, Mode: funseeker.ModeX64, Opt: funseeker.O2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := funseeker.Compile(spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad measures ELF loading plus PLT-map construction.
func BenchmarkLoad(b *testing.B) {
	spec := funseeker.GenerateSuite(funseeker.SuiteBinutils,
		funseeker.CorpusOptions{Scale: 0.5, Seed: 7, Programs: 1})[0]
	cfg := funseeker.BuildConfig{Compiler: funseeker.GCC, Mode: funseeker.ModeX64, Opt: funseeker.O2}
	res, err := funseeker.Compile(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(res.Stripped)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := funseeker.Load(res.Stripped); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBTIIdentify measures configuration ④ on an AArch64 BTI
// binary (paper §VI extension).
func BenchmarkBTIIdentify(b *testing.B) {
	spec := funseeker.GenerateSuite(funseeker.SuiteBinutils,
		funseeker.CorpusOptions{Scale: 0.5, Seed: 7, Programs: 1})[0]
	res, err := funseeker.CompileBTI(spec, funseeker.BTIBuildConfig{Opt: funseeker.O2})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(res.TextSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := funseeker.IdentifyBytes(res.Image, funseeker.DefaultOptions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManualEndbrIdentify measures FunSeeker over -mmanual-endbr
// builds (paper §VI ablation) — the sparse-endbr case leans on C and J′.
func BenchmarkManualEndbrIdentify(b *testing.B) {
	spec := funseeker.GenerateSuite(funseeker.SuiteCoreutils,
		funseeker.CorpusOptions{Scale: 0.5, Seed: 7, Programs: 1})[0]
	cfg := funseeker.BuildConfig{Compiler: funseeker.GCC, Mode: funseeker.ModeX64, Opt: funseeker.O2, ManualEndbr: true}
	res, err := funseeker.Compile(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	bin, err := funseeker.Load(res.Stripped)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := funseeker.IdentifyBinary(bin, funseeker.DefaultOptions); err != nil {
			b.Fatal(err)
		}
	}
}
