package eval

import (
	"sync"
	"testing"

	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/groundtruth"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

func TestMetricsBasics(t *testing.T) {
	gt := &groundtruth.GT{Funcs: []groundtruth.Func{
		{Name: "a", Addr: 0x1000},
		{Name: "b", Addr: 0x2000},
		{Name: "c", Addr: 0x3000},
	}}
	m := Score([]uint64{0x1000, 0x2000, 0x9999}, gt)
	if m.TP != 2 || m.FP != 1 || m.FN != 1 {
		t.Fatalf("Score = %+v", m)
	}
	if p := m.Precision(); p < 66.6 || p > 66.7 {
		t.Errorf("Precision = %f", p)
	}
	if r := m.Recall(); r < 66.6 || r > 66.7 {
		t.Errorf("Recall = %f", r)
	}
	if m.F1() <= 0 {
		t.Error("F1 should be positive")
	}
	// Duplicates in found must not double-count.
	m2 := Score([]uint64{0x1000, 0x1000}, gt)
	if m2.TP != 1 {
		t.Fatalf("duplicate handling: %+v", m2)
	}
	// Empty cases.
	var zero Metrics
	if zero.Precision() != 100 || zero.Recall() != 100 {
		t.Error("empty metrics should report 100%")
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{TP: 1, FP: 2, FN: 3}
	b := Metrics{TP: 10, FP: 20, FN: 30}
	a.Add(b)
	if a.TP != 11 || a.FP != 22 || a.FN != 33 {
		t.Fatalf("Add = %+v", a)
	}
	if a.String() == "" {
		t.Error("String must render")
	}
}

func TestClassifyFailures(t *testing.T) {
	gt := &groundtruth.GT{
		Funcs: []groundtruth.Func{
			{Name: "live", Addr: 0x1000},
			{Name: "dead", Addr: 0x2000, Dead: true, Static: true},
			{Name: "tail", Addr: 0x3000, Static: true},
		},
		PartBlocks: []uint64{0x4000},
	}
	f := ClassifyFailures([]uint64{0x1000, 0x4000, 0x5000}, gt)
	if f[FPPartBlock] != 1 || f[FPOther] != 1 {
		t.Fatalf("FP classes: %v", f)
	}
	if f[FNDeadFunction] != 1 || f[FNTailCall] != 1 {
		t.Fatalf("FN classes: %v", f)
	}
	g := make(Failures)
	g.Add(f)
	g.Add(f)
	if g[FPPartBlock] != 2 {
		t.Fatalf("Failures.Add: %v", g)
	}
}

// smokeConfigs is a small but representative configuration slice.
func smokeConfigs() []synth.Config {
	return []synth.Config{
		{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2},
		{Compiler: synth.GCC, Mode: x86.Mode32, Opt: synth.O0},
		{Compiler: synth.Clang, Mode: x86.Mode64, PIE: true, Opt: synth.O3},
		{Compiler: synth.Clang, Mode: x86.Mode32, Opt: synth.O1},
	}
}

func smokeResults(t *testing.T) *Results {
	t.Helper()
	opts := corpus.Options{Scale: 0.35, Seed: 11, Programs: 3}
	cases := Cases(corpus.AllSuites(), smokeConfigs(), opts)
	res, err := RunAll(cases, 0)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	return res
}

func TestRunAllShapes(t *testing.T) {
	res := smokeResults(t)
	if res.Binaries != 3*3*4 {
		t.Fatalf("evaluated %d binaries, want 36", res.Binaries)
	}

	// --- Table III shape: FunSeeker dominates. ---
	totals := make(map[Tool]*Metrics)
	for _, cell := range res.TableIII {
		for tool, m := range cell {
			addMetric(totals, tool, *m)
		}
	}
	fs := totals[ToolFunSeeker]
	if fs == nil {
		t.Fatal("no FunSeeker results")
	}
	if fs.Recall() < 99 {
		t.Errorf("FunSeeker recall = %.2f, want > 99", fs.Recall())
	}
	if fs.Precision() < 98 {
		t.Errorf("FunSeeker precision = %.2f, want > 98", fs.Precision())
	}
	ida := totals[ToolIDA]
	if ida.Recall() >= fs.Recall() {
		t.Errorf("IDA recall %.2f should be below FunSeeker %.2f", ida.Recall(), fs.Recall())
	}
	ghid := totals[ToolGhidra]
	if ghid.Recall() >= fs.Recall() {
		t.Errorf("Ghidra recall %.2f should be below FunSeeker %.2f", ghid.Recall(), fs.Recall())
	}
	fetchM := totals[ToolFETCH]
	if fetchM.Recall() >= fs.Recall() {
		t.Errorf("FETCH recall %.2f should be below FunSeeker %.2f", fetchM.Recall(), fs.Recall())
	}

	// FETCH collapses on x86 (Clang side has no FDEs) but not on x86-64.
	fetch32, fetch64 := &Metrics{}, &Metrics{}
	for key, cell := range res.TableIII {
		if m := cell[ToolFETCH]; m != nil {
			if key.Mode == x86.Mode32 {
				fetch32.Add(*m)
			} else {
				fetch64.Add(*m)
			}
		}
	}
	if fetch32.Recall() >= fetch64.Recall() {
		t.Errorf("FETCH x86 recall %.2f should trail x86-64 recall %.2f",
			fetch32.Recall(), fetch64.Recall())
	}
	if fetch64.Recall() < 95 {
		t.Errorf("FETCH x86-64 recall = %.2f, want high (FDE coverage)", fetch64.Recall())
	}

	// --- Table II shape: ② improves precision over ①; ③ collapses it;
	// ④ restores it. ---
	agg := make(map[Tool]*Metrics)
	for _, cell := range res.TableII {
		for tool, m := range cell {
			addMetric(agg, tool, *m)
		}
	}
	p1 := agg[ToolFunSeeker1].Precision()
	p2 := agg[ToolFunSeeker2].Precision()
	p3 := agg[ToolFunSeeker3].Precision()
	p4 := agg[ToolFunSeeker].Precision()
	if p2 <= p1 {
		t.Errorf("config2 precision %.2f should exceed config1 %.2f", p2, p1)
	}
	if p3 >= p2-10 {
		t.Errorf("config3 precision %.2f should collapse well below config2 %.2f", p3, p2)
	}
	if p4 <= p3 {
		t.Errorf("config4 precision %.2f should recover from config3 %.2f", p4, p3)
	}
	r3 := agg[ToolFunSeeker3].Recall()
	r2 := agg[ToolFunSeeker2].Recall()
	if r3 < r2 {
		t.Errorf("config3 recall %.2f should be >= config2 recall %.2f", r3, r2)
	}

	// --- Table I shape: exceptions only in SPEC (the C++ suite). ---
	for key, dist := range res.TableI {
		if key.Suite == corpus.SPEC {
			continue
		}
		if dist.Exception != 0 {
			t.Errorf("%v/%v: C suite has %d exception endbrs", key.Comp, key.Suite, dist.Exception)
		}
	}
	spec := &core.EndbrDistribution{}
	for key, dist := range res.TableI {
		if key.Suite == corpus.SPEC {
			spec.Add(*dist)
		}
	}
	if spec.Total() == 0 {
		t.Fatal("no SPEC endbr data")
	}
	// The paper's band is 20-28%; a 3-program smoke sample is noisy, so
	// accept a wide corridor here (the full-corpus check lives in the
	// benchmark harness).
	excFrac := float64(spec.Exception) / float64(spec.Total())
	if excFrac < 0.05 || excFrac > 0.45 {
		t.Errorf("SPEC exception endbr fraction = %.2f, want 0.05-0.45", excFrac)
	}

	// --- Figure 3 shape. ---
	endbrPct := res.Venn.PctWith(core.PropEndbr)
	if endbrPct < 80 || endbrPct > 97 {
		t.Errorf("EndBrAtHead = %.2f%%, want 80-97%%", endbrPct)
	}

	// --- Failure anatomy: dead functions dominate FNs; part blocks are
	// the FPs. ---
	f := res.FunSeekerFailures
	if f[FPOther] > f[FPPartBlock] {
		t.Errorf("non-part false positives (%d) exceed part-block FPs (%d)", f[FPOther], f[FPPartBlock])
	}

	// Rendering must produce non-empty output for all tables.
	for name, s := range map[string]string{
		"TableI":   res.RenderTableI(),
		"Figure3":  res.RenderFigure3(),
		"TableII":  res.RenderTableII(),
		"TableIII": res.RenderTableIII(),
		"Failures": res.RenderFailures(),
		"All":      res.RenderAll(),
	} {
		if len(s) < 40 {
			t.Errorf("%s render too short: %q", name, s)
		}
	}
}

// TestConfig5Acceptance pins configuration ⑤'s two-sided contract. On
// CET binaries fusing EH metadata may only help: F1 must be at least
// configuration ④'s. On FDE-only (no-CET) binaries — where ①–④
// degrade to direct-call targets and recover only a fraction of the
// functions — the FDE+LSDA evidence alone must carry recall to ≥ 90%.
func TestConfig5Acceptance(t *testing.T) {
	opts := corpus.Options{Scale: 0.25, Seed: 19, Programs: 2}

	score := func(configs []synth.Config) (m4, m5 Metrics) {
		t.Helper()
		var mu sync.Mutex
		cases := Cases(corpus.AllSuites(), configs, opts)
		err := ForEach(cases, 0, func(obs Observation) error {
			e4, err := ToolFunSeeker.RunContext(obs.Ctx)
			if err != nil {
				return err
			}
			e5, err := ToolFunSeeker5.RunContext(obs.Ctx)
			if err != nil {
				return err
			}
			mu.Lock()
			m4.Add(Score(e4, obs.Result.GT))
			m5.Add(Score(e5, obs.Result.GT))
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("ForEach: %v", err)
		}
		return m4, m5
	}

	// CET side: the full smoke matrix.
	m4, m5 := score(smokeConfigs())
	if m5.F1() < m4.F1() {
		t.Errorf("CET: config-5 F1 %.3f below config-4 F1 %.3f", m5.F1(), m4.F1())
	}
	if m5.Recall() < m4.Recall() {
		t.Errorf("CET: config-5 recall %.3f below config-4 recall %.3f", m5.Recall(), m4.Recall())
	}

	// FDE-only side: the same toolchains without -fcf-protection,
	// restricted to full-FDE emitters (GCC both modes, Clang x86-64 —
	// Clang x86 only covers EH functions and is pinned separately in
	// the diffcheck battery).
	nocet := []synth.Config{
		{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2, NoCET: true},
		{Compiler: synth.GCC, Mode: x86.Mode32, Opt: synth.O0, NoCET: true},
		{Compiler: synth.Clang, Mode: x86.Mode64, PIE: true, Opt: synth.O3, NoCET: true},
	}
	n4, n5 := score(nocet)
	if r := n5.Recall(); r < 90 {
		t.Errorf("FDE-only: config-5 recall = %.2f%%, want >= 90%%", r)
	}
	if r4, r5 := n4.Recall(), n5.Recall(); r4 >= r5 {
		t.Errorf("FDE-only: config-4 recall %.2f%% should trail config-5 %.2f%%", r4, r5)
	}
}

func TestToolStrings(t *testing.T) {
	for _, tool := range []Tool{ToolFunSeeker, ToolFunSeeker1, ToolFunSeeker2, ToolFunSeeker3, ToolFunSeeker5, ToolIDA, ToolGhidra, ToolFETCH} {
		if tool.String() == "" {
			t.Errorf("tool %d has empty name", tool)
		}
	}
	if _, err := Tool(99).Run(nil); err == nil {
		t.Error("unknown tool should error")
	}
}

func TestCasesEnumeration(t *testing.T) {
	opts := corpus.Options{Scale: 0.2, Seed: 1, Programs: 2}
	cases := Cases([]corpus.Suite{corpus.Coreutils}, smokeConfigs(), opts)
	if len(cases) != 2*4 {
		t.Fatalf("got %d cases, want 8", len(cases))
	}
}

func TestTimeAgg(t *testing.T) {
	var agg TimeAgg
	if agg.Mean() != 0 {
		t.Error("empty TimeAgg mean should be 0")
	}
	agg.Total = 100
	agg.Runs = 4
	if agg.Mean() != 25 {
		t.Errorf("Mean = %d", agg.Mean())
	}
}

func TestManualEndbrAblation(t *testing.T) {
	opts := corpus.Options{Scale: 0.3, Seed: 13, Programs: 2}
	cases := Cases([]corpus.Suite{corpus.Coreutils}, smokeConfigs(), opts)
	res, err := RunManualEndbrAblation(cases, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Binaries != len(cases) {
		t.Fatalf("evaluated %d pairs, want %d", res.Binaries, len(cases))
	}
	// The default build must not lose recall to the manual one.
	if res.Manual.Recall() > res.Default.Recall() {
		t.Errorf("manual-endbr recall %.2f exceeds default %.2f",
			res.Manual.Recall(), res.Default.Recall())
	}
	// Paper §VI: the impact is marginal — a few percent at most (the
	// endbr-only exported class keeps its tail reachable via calls and
	// jumps; only unreferenced/lone-tail functions disappear).
	if drop := res.RecallDrop(); drop > 60 {
		t.Errorf("recall drop = %.2f points — manual-endbr modeling is too destructive", drop)
	}
	if len(res.Render()) < 40 {
		t.Error("render too short")
	}
}

func TestRunBTI(t *testing.T) {
	opts := corpus.Options{Scale: 0.25, Seed: 4, Programs: 2}
	res, err := RunBTI([]corpus.Suite{corpus.Coreutils}, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2 programs × 7 ARM configurations.
	if res.Binaries != 14 {
		t.Fatalf("evaluated %d binaries, want 14", res.Binaries)
	}
	if res.Total.Recall() < 99 {
		t.Errorf("BTI recall = %.2f", res.Total.Recall())
	}
	if res.Total.Precision() < 99 {
		t.Errorf("BTI precision = %.2f", res.Total.Precision())
	}
	checkGolden(t, "bti", res.Render())
}

func TestRunSupersetAblation(t *testing.T) {
	opts := corpus.Options{Scale: 0.3, Seed: 21, Programs: 3, DataInText: 0.25}
	cases := Cases([]corpus.Suite{corpus.Coreutils}, smokeConfigs(), opts)
	res, err := RunSupersetAblation(cases, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Binaries != len(cases) {
		t.Fatalf("evaluated %d, want %d", res.Binaries, len(cases))
	}
	// The superset scan must never lose recall, and on a data-in-text
	// corpus it should recover some.
	if res.Superset.Recall() < res.Plain.Recall() {
		t.Errorf("superset recall %.2f below plain %.2f",
			res.Superset.Recall(), res.Plain.Recall())
	}
	if res.RecallGain() <= 0 {
		t.Errorf("no recall recovered on a data-in-text corpus (plain %.3f, superset %.3f)",
			res.Plain.Recall(), res.Superset.Recall())
	}
	if len(res.Render()) < 60 {
		t.Error("render too short")
	}
}
