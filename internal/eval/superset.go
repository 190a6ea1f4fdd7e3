package eval

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"github.com/funseeker/funseeker/internal/core"
)

// SupersetResult compares plain FunSeeker against FunSeeker paired with
// the superset end-branch scan on a corpus whose functions carry inline
// data blobs — the hand-written-assembly scenario the paper's §VI names
// as linear sweep's limitation and proposes superset disassembly for.
type SupersetResult struct {
	// Plain is configuration ④ with linear sweep only.
	Plain Metrics
	// Superset adds the byte-level end-branch scan.
	Superset Metrics
	// Binaries counts binaries evaluated.
	Binaries int
}

// RecallGain is the recall the superset scan recovers (points).
func (r SupersetResult) RecallGain() float64 {
	return r.Superset.Recall() - r.Plain.Recall()
}

// Render formats the ablation.
func (r SupersetResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Superset disassembly ablation (§VI) over %d data-in-text binaries\n", r.Binaries)
	fmt.Fprintf(&b, "  linear sweep only:   P=%7.3f%%  R=%7.3f%%\n", r.Plain.Precision(), r.Plain.Recall())
	fmt.Fprintf(&b, "  + superset scan:     P=%7.3f%%  R=%7.3f%%\n", r.Superset.Precision(), r.Superset.Recall())
	fmt.Fprintf(&b, "  recall recovered:    %.3f points\n", r.RecallGain())
	return b.String()
}

// RunSupersetAblation evaluates both variants over the given cases (use
// a corpus generated with Options.DataInText > 0 for a meaningful
// result).
func RunSupersetAblation(cases []Case, workers int) (*SupersetResult, error) {
	res := &SupersetResult{}
	var mu sync.Mutex
	supersetOpts := core.Config4
	supersetOpts.SupersetEndbrScan = true
	err := ForEach(cases, workers, func(obs Observation) error {
		plainReport, err := core.IdentifyCtx(context.Background(), obs.Ctx, core.Config4)
		if err != nil {
			return err
		}
		superReport, err := core.IdentifyCtx(context.Background(), obs.Ctx, supersetOpts)
		if err != nil {
			return err
		}
		plainM := Score(plainReport.Entries, obs.Result.GT)
		superM := Score(superReport.Entries, obs.Result.GT)
		mu.Lock()
		defer mu.Unlock()
		res.Plain.Add(plainM)
		res.Superset.Add(superM)
		res.Binaries++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
