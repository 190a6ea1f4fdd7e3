package funseeker_test

import (
	"bytes"
	"context"
	"debug/elf"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/funseeker/funseeker"
)

// buildSample compiles a small feature-rich program via the public API.
func buildSample(t testing.TB, lang funseeker.Lang, cfg funseeker.BuildConfig) *funseeker.BuildResult {
	t.Helper()
	spec := &funseeker.ProgramSpec{
		Name: "sample",
		Lang: lang,
		Seed: 1234,
		Funcs: []funseeker.FuncSpec{
			{Name: "main", Calls: []int{1, 2}, CallsPLT: []string{"printf"}, HasSwitch: true, SwitchCases: 4},
			{Name: "alpha", Calls: []int{3}},
			{Name: "beta", IndirectReturnCall: "vfork"},
			{Name: "gamma", Static: true},
			{Name: "delta", AddressTakenData: true},
			{Name: "tail_a", TailCalls: []int{6}},
			{Name: "shared_impl", Static: true},
			{Name: "tail_b", TailCalls: []int{6}},
		},
	}
	if lang == funseeker.LangCPP {
		spec.Funcs = append(spec.Funcs, funseeker.FuncSpec{
			Name: "thrower", HasEH: true, CallsPLT: []string{"__cxa_throw"},
		})
		spec.Funcs[0].Calls = append(spec.Funcs[0].Calls, len(spec.Funcs)-1)
	}
	res, err := funseeker.Compile(spec, cfg)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return res
}

func defaultBuild() funseeker.BuildConfig {
	return funseeker.BuildConfig{
		Compiler: funseeker.GCC,
		Mode:     funseeker.ModeX64,
		Opt:      funseeker.O2,
	}
}

func TestPublicIdentifyBytes(t *testing.T) {
	res := buildSample(t, funseeker.LangC, defaultBuild())
	report, err := funseeker.IdentifyBytes(res.Stripped, funseeker.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	m := funseeker.Score(report.Entries, res.GT)
	if m.Recall() < 99.9 {
		t.Errorf("recall = %.2f on a fully live sample", m.Recall())
	}
	if m.Precision() < 99.9 {
		t.Errorf("precision = %.2f (no part blocks expected here, spec has no cold parts)", m.Precision())
	}
}

func TestPublicIdentifyPath(t *testing.T) {
	res := buildSample(t, funseeker.LangCPP, defaultBuild())
	dir := t.TempDir()
	path := filepath.Join(dir, "sample")
	if err := os.WriteFile(path, res.Stripped, 0o755); err != nil {
		t.Fatal(err)
	}
	report, err := funseeker.Identify(path, funseeker.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Entries) == 0 {
		t.Fatal("no entries identified")
	}
	// Ground-truth sidecar round trip.
	gtPath := filepath.Join(dir, "sample.gt.json")
	if err := res.GT.Save(gtPath); err != nil {
		t.Fatal(err)
	}
	gt, err := funseeker.LoadGroundTruth(gtPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(gt.Funcs) != len(res.GT.Funcs) {
		t.Fatalf("sidecar lost functions: %d != %d", len(gt.Funcs), len(res.GT.Funcs))
	}
	m := funseeker.Score(report.Entries, gt)
	if m.Recall() < 99 {
		t.Errorf("recall = %.2f", m.Recall())
	}
}

func TestPublicIdentifyErrors(t *testing.T) {
	if _, err := funseeker.Identify(filepath.Join(t.TempDir(), "missing"), funseeker.DefaultOptions); err == nil {
		t.Error("want error for missing file")
	}
	if _, err := funseeker.IdentifyBytes([]byte("not an elf"), funseeker.DefaultOptions); err == nil {
		t.Error("want error for junk bytes")
	}
}

func TestPublicStudyAPIs(t *testing.T) {
	res := buildSample(t, funseeker.LangCPP, defaultBuild())
	bin, err := funseeker.Load(res.Stripped)
	if err != nil {
		t.Fatal(err)
	}
	if !bin.CETEnabled {
		t.Error("sample must be CET-enabled")
	}
	actx := funseeker.NewContext(bin)
	dist, err := funseeker.ClassifyEndbrs(actx)
	if err != nil {
		t.Fatal(err)
	}
	if dist.FuncEntry == 0 || dist.IndirectReturn == 0 || dist.Exception == 0 {
		t.Errorf("distribution missing classes: %+v", dist)
	}
	pads, err := funseeker.LandingPads(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(pads) == 0 {
		t.Error("C++ sample must have landing pads")
	}
	venn := funseeker.AnalyzeProperties(actx, res.GT.SortedEntries())
	if venn.Total != len(res.GT.Funcs) {
		t.Errorf("venn total = %d, want %d", venn.Total, len(res.GT.Funcs))
	}
	if got := venn.PctWith(funseeker.PropEndbr); got == 0 {
		t.Error("no functions with end branches?")
	}
	irf := funseeker.IndirectReturnFuncs()
	if len(irf) != 5 {
		t.Errorf("indirect-return list has %d entries, want 5", len(irf))
	}
	irf[0] = "mutated"
	if funseeker.IndirectReturnFuncs()[0] == "mutated" {
		t.Error("IndirectReturnFuncs must return a copy")
	}
}

func TestPublicBaselines(t *testing.T) {
	res := buildSample(t, funseeker.LangC, defaultBuild())
	bin, err := funseeker.Load(res.Stripped)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(*funseeker.Binary) ([]uint64, error){
		"ida":    funseeker.RunIDA,
		"ghidra": funseeker.RunGhidra,
		"fetch":  funseeker.RunFETCH,
	} {
		entries, err := run(bin)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := funseeker.Score(entries, res.GT)
		if m.TP == 0 {
			t.Errorf("%s found no true entries", name)
		}
	}
}

func TestAllBuildConfigsExposed(t *testing.T) {
	configs := funseeker.AllBuildConfigs()
	if len(configs) != 48 {
		t.Fatalf("AllBuildConfigs = %d, want 48", len(configs))
	}
	seen := map[string]bool{}
	for _, c := range configs {
		if seen[c.String()] {
			t.Errorf("duplicate config %s", c)
		}
		seen[c.String()] = true
	}
}

func TestSuiteGeneration(t *testing.T) {
	for _, suite := range []funseeker.Suite{
		funseeker.SuiteCoreutils, funseeker.SuiteBinutils, funseeker.SuiteSPEC,
	} {
		specs := funseeker.GenerateSuite(suite, funseeker.CorpusOptions{Scale: 0.2, Seed: 5, Programs: 2})
		if len(specs) != 2 {
			t.Fatalf("%v: got %d programs", suite, len(specs))
		}
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Errorf("%v/%s: %v", suite, s.Name, err)
			}
		}
	}
	// SPEC must include C++ programs at paper counts.
	specs := funseeker.GenerateSuite(funseeker.SuiteSPEC, funseeker.CorpusOptions{Scale: 0.2, Seed: 5})
	cpp := 0
	for _, s := range specs {
		if s.Lang == funseeker.LangCPP {
			cpp++
		}
	}
	if cpp == 0 || cpp == len(specs) {
		t.Errorf("SPEC suite should mix C and C++: %d of %d are C++", cpp, len(specs))
	}
}

// TestEndToEndDatasetFlow mimics the synthgen → funseeker CLI pipeline
// through the public API: write binaries + sidecars to disk, identify
// from the file, score.
func TestEndToEndDatasetFlow(t *testing.T) {
	dir := t.TempDir()
	specs := funseeker.GenerateSuite(funseeker.SuiteCoreutils,
		funseeker.CorpusOptions{Scale: 0.3, Seed: 77, Programs: 2})
	cfgs := []funseeker.BuildConfig{
		{Compiler: funseeker.GCC, Mode: funseeker.ModeX64, Opt: funseeker.O2},
		{Compiler: funseeker.Clang, Mode: funseeker.ModeX86, PIE: true, Opt: funseeker.O1},
	}
	var total funseeker.Metrics
	for _, spec := range specs {
		for _, cfg := range cfgs {
			res, err := funseeker.Compile(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := filepath.Join(dir, spec.Name+"-"+cfg.String())
			if err := os.WriteFile(base, res.Stripped, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := res.GT.Save(base + ".gt.json"); err != nil {
				t.Fatal(err)
			}
			report, err := funseeker.Identify(base, funseeker.DefaultOptions)
			if err != nil {
				t.Fatal(err)
			}
			gt, err := funseeker.LoadGroundTruth(base + ".gt.json")
			if err != nil {
				t.Fatal(err)
			}
			total.Add(funseeker.Score(report.Entries, gt))
		}
	}
	if total.Recall() < 99 {
		t.Errorf("end-to-end recall = %.2f", total.Recall())
	}
	if total.Precision() < 95 {
		t.Errorf("end-to-end precision = %.2f", total.Precision())
	}
}

func TestPublicARMTextIdentify(t *testing.T) {
	res, err := funseeker.CompileBTI(&funseeker.ProgramSpec{
		Name: "textonly", Lang: funseeker.LangC, Seed: 9,
		Funcs: []funseeker.FuncSpec{
			{Name: "main", Calls: []int{1}},
			{Name: "w", Static: true},
		},
	}, funseeker.BTIBuildConfig{Opt: funseeker.O1})
	if err != nil {
		t.Fatal(err)
	}
	report, err := funseeker.IdentifyBytes(res.Image, funseeker.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if report.Arch != "aarch64" {
		t.Fatalf("report arch = %q, want aarch64", report.Arch)
	}
	if m := funseeker.Score(report.Entries, res.GT); m.Recall() < 100 || m.Precision() < 100 {
		t.Errorf("aarch64 sample P=%.2f R=%.2f, want exact", m.Precision(), m.Recall())
	}
	// A bare .text image wrapped in a Binary must agree with the ELF path.
	ef, err := elf.NewFile(bytes.NewReader(res.Image))
	if err != nil {
		t.Fatal(err)
	}
	sec := ef.Section(".text")
	text, err := sec.Data()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := funseeker.IdentifyBinary(&funseeker.Binary{
		Arch: funseeker.ArchAArch64, Text: text, TextAddr: sec.Addr,
	}, funseeker.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(raw.Entries, report.Entries) {
		t.Fatalf("raw text path found %#x, ELF path %#x", raw.Entries, report.Entries)
	}
}

func TestPublicOpenRoundtrip(t *testing.T) {
	res := buildSample(t, funseeker.LangC, defaultBuild())
	path := filepath.Join(t.TempDir(), "bin")
	if err := os.WriteFile(path, res.Stripped, 0o755); err != nil {
		t.Fatal(err)
	}
	bin, err := funseeker.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if bin.Path != path || !bin.CETEnabled {
		t.Errorf("Open: path=%q cet=%v", bin.Path, bin.CETEnabled)
	}
}

func TestSupersetOptionExposed(t *testing.T) {
	res := buildSample(t, funseeker.LangC, defaultBuild())
	opts := funseeker.Config4
	opts.SupersetEndbrScan = true
	report, err := funseeker.IdentifyBytes(res.Stripped, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := funseeker.Score(report.Entries, res.GT)
	if m.Recall() < 99.9 {
		t.Errorf("superset option recall %.2f", m.Recall())
	}
}

// TestPublicCtxFormsCanceled checks every exported ctx-taking form
// returns ErrCanceled under an already-canceled context.
func TestPublicCtxFormsCanceled(t *testing.T) {
	res := buildSample(t, funseeker.LangC, defaultBuild())
	bin, err := funseeker.Load(res.Stripped)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func(context.Context, *funseeker.AnalysisContext) error{
		"IdentifyCtx": func(ctx context.Context, actx *funseeker.AnalysisContext) error {
			_, err := funseeker.IdentifyCtx(ctx, actx, funseeker.DefaultOptions)
			return err
		},
		"RunIDACtx": func(ctx context.Context, actx *funseeker.AnalysisContext) error {
			_, err := funseeker.RunIDACtx(ctx, actx)
			return err
		},
		"RunGhidraCtx": func(ctx context.Context, actx *funseeker.AnalysisContext) error {
			_, err := funseeker.RunGhidraCtx(ctx, actx)
			return err
		},
		"RunFETCHCtx": func(ctx context.Context, actx *funseeker.AnalysisContext) error {
			_, err := funseeker.RunFETCHCtx(ctx, actx)
			return err
		},
	} {
		if err := run(ctx, funseeker.NewContext(bin)); !errors.Is(err, funseeker.ErrCanceled) {
			t.Errorf("%s under a canceled ctx: err = %v, want ErrCanceled", name, err)
		}
	}
}

// TestBaselinesRejectAArch64: the IDA, Ghidra and FETCH models read x86
// instructions. On an AArch64 image every form must fail with an error
// naming the architecture — not panic on a missing index, and not return
// a silently empty or near-empty entry list.
func TestBaselinesRejectAArch64(t *testing.T) {
	res, err := funseeker.CompileBTI(&funseeker.ProgramSpec{
		Name: "armbase", Lang: funseeker.LangC, Seed: 9,
		Funcs: []funseeker.FuncSpec{
			{Name: "main", Calls: []int{1}},
			{Name: "w", Static: true},
		},
	}, funseeker.BTIBuildConfig{Opt: funseeker.O1})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := funseeker.Load(res.Image)
	if err != nil {
		t.Fatal(err)
	}
	type run func() ([]uint64, error)
	ctxRun := func(f func(context.Context, *funseeker.AnalysisContext) ([]uint64, error)) run {
		return func() ([]uint64, error) { return f(context.Background(), funseeker.NewContext(bin)) }
	}
	for name, f := range map[string]run{
		"RunIDA":       func() ([]uint64, error) { return funseeker.RunIDA(bin) },
		"RunGhidra":    func() ([]uint64, error) { return funseeker.RunGhidra(bin) },
		"RunFETCH":     func() ([]uint64, error) { return funseeker.RunFETCH(bin) },
		"RunIDACtx":    ctxRun(funseeker.RunIDACtx),
		"RunGhidraCtx": ctxRun(funseeker.RunGhidraCtx),
		"RunFETCHCtx":  ctxRun(funseeker.RunFETCHCtx),
	} {
		entries, err := f()
		if err == nil || !strings.Contains(err.Error(), "aarch64") {
			t.Errorf("%s on aarch64: entries=%#x err=%v, want an error naming aarch64", name, entries, err)
		}
	}
}
