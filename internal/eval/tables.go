package eval

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// GroupKey groups results by compiler and suite (Tables I and II).
type GroupKey struct {
	Comp  synth.Compiler
	Suite corpus.Suite
}

// ArchKey groups results by architecture and suite (Table III).
type ArchKey struct {
	Mode  x86.Mode
	Suite corpus.Suite
}

// TimeAgg accumulates wall-clock time per tool.
type TimeAgg struct {
	Total time.Duration
	Runs  int
}

// Mean returns the average per-binary runtime.
func (t TimeAgg) Mean() time.Duration {
	if t.Runs == 0 {
		return 0
	}
	return t.Total / time.Duration(t.Runs)
}

// Results aggregates every experiment over one corpus pass.
type Results struct {
	// TableI is the end-branch location distribution per compiler×suite.
	TableI map[GroupKey]*core.EndbrDistribution
	// Venn is the Figure 3 function-property partition, corpus-wide.
	Venn core.VennCounts
	// TableII carries the four FunSeeker ablation configurations per
	// compiler×suite.
	TableII map[GroupKey]map[Tool]*Metrics
	// TableIII carries all four tools per architecture×suite.
	TableIII map[ArchKey]map[Tool]*Metrics
	// Times accumulates runtime for FunSeeker and FETCH (the two tools
	// the paper times).
	Times map[Tool]*TimeAgg
	// FunSeekerFailures is the §V-C failure histogram for the full
	// algorithm.
	FunSeekerFailures Failures
	// Stages aggregates the shared-context per-stage cost accounting
	// (sweep / EH parse / landing pad / filter / tail call) across every
	// binary of the run — the Table-V-style runtime breakdown.
	Stages analysis.Stats
	// Binaries is the number of binaries evaluated.
	Binaries int
	// Functions is the number of ground-truth functions across the run.
	Functions int
}

// ablationTools are the Table II configurations in presentation order:
// the paper's ①–④ plus the EH-fusion configuration ⑤.
var ablationTools = []Tool{ToolFunSeeker1, ToolFunSeeker2, ToolFunSeeker3, ToolFunSeeker, ToolFunSeeker5}

// comparisonTools are the Table III tools in presentation order.
// FunSeeker-5 rides along: it is the configuration that stays
// competitive with FETCH on binaries without CET markers.
var comparisonTools = []Tool{ToolFunSeeker, ToolFunSeeker5, ToolIDA, ToolGhidra, ToolFETCH}

// timedTools get per-binary wall-clock accounting.
var timedTools = map[Tool]bool{ToolFunSeeker: true, ToolFETCH: true}

// RunAll compiles every case once and feeds all experiments.
func RunAll(cases []Case, workers int) (*Results, error) {
	res := &Results{
		TableI:            make(map[GroupKey]*core.EndbrDistribution),
		TableII:           make(map[GroupKey]map[Tool]*Metrics),
		TableIII:          make(map[ArchKey]map[Tool]*Metrics),
		Times:             make(map[Tool]*TimeAgg),
		FunSeekerFailures: make(Failures),
	}
	var mu sync.Mutex
	err := ForEach(cases, workers, func(obs Observation) error {
		gk := GroupKey{Comp: obs.Case.Config.Compiler, Suite: obs.Case.Suite}
		ak := ArchKey{Mode: obs.Case.Config.Mode, Suite: obs.Case.Suite}

		dist, err := core.ClassifyEndbrs(obs.Ctx)
		if err != nil {
			return err
		}
		venn := core.AnalyzeProperties(obs.Ctx, obs.Result.GT.SortedEntries())

		type toolRun struct {
			tool    Tool
			m       Metrics
			elapsed time.Duration
			timed   bool
			fails   Failures
		}
		runs := make([]toolRun, 0, len(ablationTools)+len(comparisonTools))
		seen := map[Tool]bool{}
		for _, t := range append(append([]Tool{}, ablationTools...), comparisonTools...) {
			if seen[t] {
				continue
			}
			seen[t] = true
			entries, elapsed, err := TimedRunContext(t, obs.Ctx)
			if err != nil {
				return fmt.Errorf("%s: %w", t, err)
			}
			r := toolRun{tool: t, m: Score(entries, obs.Result.GT), elapsed: elapsed, timed: timedTools[t]}
			if t == ToolFunSeeker {
				r.fails = ClassifyFailures(entries, obs.Result.GT)
			}
			runs = append(runs, r)
		}

		mu.Lock()
		defer mu.Unlock()
		res.Binaries++
		res.Functions += len(obs.Result.GT.Funcs)
		d := res.TableI[gk]
		if d == nil {
			d = &core.EndbrDistribution{}
			res.TableI[gk] = d
		}
		d.Add(dist)
		res.Venn.Add(venn)
		for _, r := range runs {
			if isAblation(r.tool) {
				cell := res.TableII[gk]
				if cell == nil {
					cell = make(map[Tool]*Metrics)
					res.TableII[gk] = cell
				}
				addMetric(cell, r.tool, r.m)
			}
			if isComparison(r.tool) {
				cell := res.TableIII[ak]
				if cell == nil {
					cell = make(map[Tool]*Metrics)
					res.TableIII[ak] = cell
				}
				addMetric(cell, r.tool, r.m)
			}
			if r.timed {
				agg := res.Times[r.tool]
				if agg == nil {
					agg = &TimeAgg{}
					res.Times[r.tool] = agg
				}
				agg.Total += r.elapsed
				agg.Runs++
			}
			if r.fails != nil {
				res.FunSeekerFailures.Add(r.fails)
			}
		}
		res.Stages.Add(obs.Ctx.Stats())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func isAblation(t Tool) bool {
	for _, a := range ablationTools {
		if a == t {
			return true
		}
	}
	return false
}

func isComparison(t Tool) bool {
	for _, c := range comparisonTools {
		if c == t {
			return true
		}
	}
	return false
}

func addMetric(cell map[Tool]*Metrics, t Tool, m Metrics) {
	agg := cell[t]
	if agg == nil {
		agg = &Metrics{}
		cell[t] = agg
	}
	agg.Add(m)
}

// --- rendering ---------------------------------------------------------

// RenderTableI formats the end-branch location distribution like the
// paper's Table I.
func (r *Results) RenderTableI() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: Distribution of end-branch instruction locations\n")
	fmt.Fprintf(&b, "%-8s %-16s %12s %14s %12s\n", "", "", "Func. Entry", "Indirect Ret.", "Exception")
	for _, comp := range []synth.Compiler{synth.GCC, synth.Clang} {
		for _, suite := range corpus.AllSuites() {
			d, ok := r.TableI[GroupKey{Comp: comp, Suite: suite}]
			if !ok || d.Total() == 0 {
				continue
			}
			tot := float64(d.Total())
			fmt.Fprintf(&b, "%-8s %-16s %11.2f%% %13.2f%% %11.2f%%\n",
				comp, suite,
				100*float64(d.FuncEntry)/tot,
				100*float64(d.IndirectReturn)/tot,
				100*float64(d.Exception)/tot)
		}
	}
	return b.String()
}

// RenderFigure3 formats the function-property Venn partition.
func (r *Results) RenderFigure3() string {
	var b strings.Builder
	v := r.Venn
	fmt.Fprintf(&b, "Figure 3: Function property overlap (%d functions)\n", v.Total)
	regions := []struct {
		mask int
		name string
	}{
		{core.PropEndbr, "EndBrAtHead only"},
		{core.PropEndbr | core.PropDirCall, "EndBr ∩ DirCall"},
		{core.PropEndbr | core.PropDirJmp, "EndBr ∩ DirJmp"},
		{core.PropEndbr | core.PropDirCall | core.PropDirJmp, "EndBr ∩ DirCall ∩ DirJmp"},
		{core.PropDirCall, "DirCallTarget only"},
		{core.PropDirCall | core.PropDirJmp, "DirCall ∩ DirJmp"},
		{core.PropDirJmp, "DirJmpTarget only"},
		{0, "none (dead code)"},
	}
	for _, reg := range regions {
		fmt.Fprintf(&b, "  %-28s %7.2f%%\n", reg.name, v.Pct(reg.mask))
	}
	fmt.Fprintf(&b, "  %-28s %7.2f%%\n", "EndBrAtHead total", v.PctWith(core.PropEndbr))
	fmt.Fprintf(&b, "  %-28s %7.2f%%\n", "DirCallTarget total", v.PctWith(core.PropDirCall))
	fmt.Fprintf(&b, "  %-28s %7.2f%%\n", "DirJmpTarget total", v.PctWith(core.PropDirJmp))
	return b.String()
}

// RenderTableII formats the ablation study like the paper's Table II.
func (r *Results) RenderTableII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: FunSeeker precision/recall under configurations 1-5\n")
	fmt.Fprintf(&b, "%-8s %-16s", "", "")
	for i := range ablationTools {
		fmt.Fprintf(&b, " | (%d) Prec.   Rec.", i+1)
	}
	fmt.Fprintln(&b)
	total := make(map[Tool]*Metrics)
	for _, comp := range []synth.Compiler{synth.GCC, synth.Clang} {
		for _, suite := range corpus.AllSuites() {
			cell, ok := r.TableII[GroupKey{Comp: comp, Suite: suite}]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%-8s %-16s", comp, suite)
			for _, t := range ablationTools {
				m := cell[t]
				if m == nil {
					m = &Metrics{}
				}
				fmt.Fprintf(&b, " |   %7.3f %7.3f", m.Precision(), m.Recall())
				addMetric(total, t, *m)
			}
			fmt.Fprintln(&b)
		}
	}
	fmt.Fprintf(&b, "%-25s", "Total")
	for _, t := range ablationTools {
		m := total[t]
		if m == nil {
			m = &Metrics{}
		}
		fmt.Fprintf(&b, " |   %7.3f %7.3f", m.Precision(), m.Recall())
	}
	fmt.Fprintln(&b)
	return b.String()
}

// RenderTableIII formats the tool comparison like the paper's Table III.
func (r *Results) RenderTableIII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: Function identification vs. state-of-the-art tools\n")
	fmt.Fprintf(&b, "%-6s %-16s", "", "")
	for _, t := range comparisonTools {
		fmt.Fprintf(&b, " | %-9s P      R   ", t)
	}
	fmt.Fprintln(&b)
	total := make(map[Tool]*Metrics)
	for _, mode := range []x86.Mode{x86.Mode32, x86.Mode64} {
		for _, suite := range corpus.AllSuites() {
			cell, ok := r.TableIII[ArchKey{Mode: mode, Suite: suite}]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%-6s %-16s", mode, suite)
			for _, t := range comparisonTools {
				m := cell[t]
				if m == nil {
					m = &Metrics{}
				}
				fmt.Fprintf(&b, " |   %7.3f %7.3f   ", m.Precision(), m.Recall())
				addMetric(total, t, *m)
			}
			fmt.Fprintln(&b)
		}
	}
	fmt.Fprintf(&b, "%-23s", "Total")
	for _, t := range comparisonTools {
		m := total[t]
		if m == nil {
			m = &Metrics{}
		}
		fmt.Fprintf(&b, " |   %7.3f %7.3f   ", m.Precision(), m.Recall())
	}
	fmt.Fprintln(&b)
	for _, t := range comparisonTools {
		if agg, ok := r.Times[t]; ok && agg.Runs > 0 {
			fmt.Fprintf(&b, "Mean time per binary, %-10s: %10s (%d binaries)\n",
				t, agg.Mean(), agg.Runs)
		}
	}
	if fs, fe := r.Times[ToolFunSeeker], r.Times[ToolFETCH]; fs != nil && fe != nil && fs.Mean() > 0 {
		fmt.Fprintf(&b, "FETCH / FunSeeker time ratio: %.1fx\n",
			float64(fe.Mean())/float64(fs.Mean()))
	}
	return b.String()
}

// RenderStages formats the shared-context per-stage cost accounting. The
// per-tool times above are marginal costs (stages already memoized by an
// earlier tool on the same binary are cache hits); this table shows where
// the shared time actually went and how often the cache served.
func (r *Results) RenderStages() string {
	return r.Stages.Render()
}

// RenderFailures formats the §V-C failure anatomy.
func (r *Results) RenderFailures() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FunSeeker failure analysis (§V-C)\n")
	var keys []FailureKind
	for k := range r.FunSeekerFailures {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	fnTotal, fpTotal := 0, 0
	for _, k := range keys {
		switch k {
		case FNDeadFunction, FNTailCall, FNOther:
			fnTotal += r.FunSeekerFailures[k]
		default:
			fpTotal += r.FunSeekerFailures[k]
		}
	}
	for _, k := range keys {
		n := r.FunSeekerFailures[k]
		den := fnTotal
		if k == FPPartBlock || k == FPOther {
			den = fpTotal
		}
		pct := 0.0
		if den > 0 {
			pct = 100 * float64(n) / float64(den)
		}
		fmt.Fprintf(&b, "  %-18s %8d (%5.1f%% of class)\n", k, n, pct)
	}
	return b.String()
}

// RenderAll concatenates every table.
func (r *Results) RenderAll() string {
	return strings.Join([]string{
		fmt.Sprintf("Corpus: %d binaries, %d functions\n", r.Binaries, r.Functions),
		r.RenderTableI(),
		r.RenderFigure3(),
		r.RenderTableII(),
		r.RenderTableIII(),
		r.RenderStages(),
		r.RenderFailures(),
	}, "\n")
}
