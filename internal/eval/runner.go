package eval

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/fetch"
	"github.com/funseeker/funseeker/internal/ghidra"
	"github.com/funseeker/funseeker/internal/idapro"
	"github.com/funseeker/funseeker/internal/synth"
)

// Tool identifies one function-identification tool under evaluation.
type Tool int

// The evaluated tools.
const (
	// ToolFunSeeker is the full FunSeeker algorithm (configuration ④).
	ToolFunSeeker Tool = iota + 1
	// ToolFunSeeker1..3 are the ablation configurations of Table II.
	ToolFunSeeker1
	ToolFunSeeker2
	ToolFunSeeker3
	// ToolIDA is the IDA Pro model.
	ToolIDA
	// ToolGhidra is the Ghidra model.
	ToolGhidra
	// ToolFETCH is the FETCH model.
	ToolFETCH
	// ToolFunSeeker5 is configuration ⑤: configuration ④ plus EH
	// fusion (FDE starts + coverage intervals + LSDA landing pads).
	// Appended after the original tools so persisted Tool values keep
	// their meaning.
	ToolFunSeeker5
)

// String names the tool as the paper's tables do.
func (t Tool) String() string {
	switch t {
	case ToolFunSeeker:
		return "FunSeeker"
	case ToolFunSeeker1:
		return "FunSeeker-1"
	case ToolFunSeeker2:
		return "FunSeeker-2"
	case ToolFunSeeker3:
		return "FunSeeker-3"
	case ToolIDA:
		return "IDA Pro"
	case ToolGhidra:
		return "Ghidra"
	case ToolFETCH:
		return "FETCH"
	case ToolFunSeeker5:
		return "FunSeeker-5"
	default:
		return fmt.Sprintf("Tool(%d)", int(t))
	}
}

// Run executes the tool on a loaded binary with a private analysis
// context, returning the identified entries. When several tools run over
// the same binary, build one analysis.Context and use RunContext so the
// linear sweep and .eh_frame parse are shared.
func (t Tool) Run(bin *elfx.Binary) ([]uint64, error) {
	return t.RunContext(analysis.NewContext(bin))
}

// RunContext executes the tool against the shared per-binary analysis
// context.
func (t Tool) RunContext(actx *analysis.Context) ([]uint64, error) {
	switch t {
	case ToolFunSeeker, ToolFunSeeker1, ToolFunSeeker2, ToolFunSeeker3, ToolFunSeeker5:
		opts := map[Tool]core.Options{
			ToolFunSeeker:  core.Config4,
			ToolFunSeeker1: core.Config1,
			ToolFunSeeker2: core.Config2,
			ToolFunSeeker3: core.Config3,
			ToolFunSeeker5: core.Config5,
		}[t]
		r, err := core.IdentifyCtx(context.Background(), actx, opts)
		if err != nil {
			return nil, err
		}
		return r.Entries, nil
	case ToolIDA:
		r, err := idapro.Identify(context.Background(), actx)
		if err != nil {
			return nil, err
		}
		return r.Entries, nil
	case ToolGhidra:
		r, err := ghidra.Identify(context.Background(), actx)
		if err != nil {
			return nil, err
		}
		return r.Entries, nil
	case ToolFETCH:
		r, err := fetch.Identify(context.Background(), actx)
		if err != nil {
			return nil, err
		}
		return r.Entries, nil
	default:
		return nil, fmt.Errorf("eval: unknown tool %d", int(t))
	}
}

// Case is one (program, configuration) cell of the evaluation matrix.
type Case struct {
	// Suite is the benchmark suite the program belongs to.
	Suite corpus.Suite
	// Spec is the program specification.
	Spec *synth.ProgSpec
	// Config is the build configuration.
	Config synth.Config
}

// Cases enumerates the full matrix for the given suites and configs.
func Cases(suites []corpus.Suite, configs []synth.Config, opts corpus.Options) []Case {
	var cases []Case
	for _, s := range suites {
		specs := corpus.Generate(s, opts)
		for _, spec := range specs {
			for _, cfg := range configs {
				cases = append(cases, Case{Suite: s, Spec: spec, Config: cfg})
			}
		}
	}
	return cases
}

// Observation hands a compiled, loaded case to an aggregator callback.
type Observation struct {
	Case Case
	// Result is the compilation output (images + ground truth).
	Result *synth.Result
	// Bin is the stripped binary, loaded.
	Bin *elfx.Binary
	// Ctx is the shared analysis context over Bin. Every tool and study
	// run against the same Observation should consume it, so the linear
	// sweep and .eh_frame parse happen once per binary no matter how
	// many cells of the tool×config matrix the binary feeds.
	Ctx *analysis.Context
}

// ForEach compiles every case and invokes fn, using workers goroutines
// (0 = GOMAXPROCS). Each binary is loaded once and wrapped in one shared
// analysis.Context; fn fans the tool×config matrix out over that context
// rather than reloading per tool. fn is called concurrently and must
// synchronize its own aggregation. Binaries are discarded after fn
// returns, so arbitrary matrix sizes run in bounded memory.
func ForEach(cases []Case, workers int, fn func(Observation) error) error {
	return pool(cases, workers, func(c Case) error {
		res, err := synth.Compile(c.Spec, c.Config)
		if err == nil {
			var bin *elfx.Binary
			bin, err = elfx.Load(res.Stripped)
			if err == nil {
				err = fn(Observation{
					Case:   c,
					Result: res,
					Bin:    bin,
					Ctx:    analysis.NewContext(bin),
				})
			}
		}
		if err != nil {
			return fmt.Errorf("eval: %s/%s: %w", c.Spec.Name, c.Config, err)
		}
		return nil
	})
}

// pool is the evaluation worker pool: it runs fn over every item on
// workers goroutines (0 = GOMAXPROCS) and returns the first error
// reported. An error does not stop the remaining items.
func pool[T any](items []T, workers int, fn func(T) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	work := make(chan T)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range work {
				if err := fn(item); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	for _, item := range items {
		work <- item
	}
	close(work)
	wg.Wait()
	return firstErr
}

// TimedRunContext measures one tool run against a shared context. Stage
// costs already paid by earlier consumers of actx are not re-incurred —
// the measured time is the tool's marginal cost; consult analysis.Stats
// for the shared-stage breakdown.
func TimedRunContext(t Tool, actx *analysis.Context) ([]uint64, time.Duration, error) {
	start := time.Now()
	entries, err := t.RunContext(actx)
	return entries, time.Since(start), err
}
