package eval

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/funseeker/funseeker/internal/armsynth"
	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/synth"
)

// BTIResult aggregates the ARM BTI extension experiment: configuration ④
// of the arch-dispatched core over the same program corpus, across
// optimization levels and both branch-protection flavours.
type BTIResult struct {
	// PerConfig maps the ARM build configuration string to its metrics.
	PerConfig map[string]*Metrics
	// Total aggregates everything.
	Total Metrics
	// Binaries counts binaries evaluated.
	Binaries int
}

// Render formats the experiment.
func (r *BTIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ARM BTI extension (§VI) over %d binaries\n", r.Binaries)
	keys := make([]string, 0, len(r.PerConfig))
	for k := range r.PerConfig {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		m := r.PerConfig[k]
		fmt.Fprintf(&b, "  %-22s P=%7.3f%%  R=%7.3f%%\n", k, m.Precision(), m.Recall())
	}
	fmt.Fprintf(&b, "  %-22s P=%7.3f%%  R=%7.3f%%\n", "Total", r.Total.Precision(), r.Total.Recall())
	return b.String()
}

// btiConfigs are the ARM build configurations evaluated.
func btiConfigs() []armsynth.Config {
	var out []armsynth.Config
	for _, opt := range synth.AllOptLevels() {
		out = append(out, armsynth.Config{Opt: opt})
	}
	out = append(out, armsynth.Config{Opt: synth.O2, PAC: true})
	return out
}

// identifyBTI loads one AArch64 image and runs configuration ④ on it —
// the same path IdentifyBytes and the server take.
func identifyBTI(image []byte) (*core.Report, error) {
	bin, err := elfx.Load(image)
	if err != nil {
		return nil, err
	}
	return core.Identify(bin, core.Config4)
}

// RunBTI compiles the suites for ARM and scores the BTI algorithm.
func RunBTI(suites []corpus.Suite, opts corpus.Options, workers int) (*BTIResult, error) {
	type job struct {
		spec *synth.ProgSpec
		cfg  armsynth.Config
	}
	var jobs []job
	for _, s := range suites {
		for _, spec := range corpus.Generate(s, opts) {
			for _, cfg := range btiConfigs() {
				jobs = append(jobs, job{spec: spec, cfg: cfg})
			}
		}
	}

	res := &BTIResult{PerConfig: make(map[string]*Metrics)}
	var mu sync.Mutex
	err := pool(jobs, workers, func(j job) error {
		compiled, err := armsynth.Compile(j.spec, j.cfg)
		var report *core.Report
		if err == nil {
			report, err = identifyBTI(compiled.Image)
		}
		if err != nil {
			return fmt.Errorf("eval: bti %s/%s: %w", j.spec.Name, j.cfg, err)
		}
		m := Score(report.Entries, compiled.GT)
		mu.Lock()
		defer mu.Unlock()
		agg := res.PerConfig[j.cfg.String()]
		if agg == nil {
			agg = &Metrics{}
			res.PerConfig[j.cfg.String()] = agg
		}
		agg.Add(m)
		res.Total.Add(m)
		res.Binaries++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
