package eval

import (
	"strings"
	"testing"

	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// TestSharedContextSingleSweep runs the full tool×config matrix — five
// FunSeeker configurations, IDA, Ghidra, FETCH, plus the Table I and
// Figure 3 studies — and asserts on the analysis.Stats counters that each
// binary was linearly swept exactly once and its .eh_frame parsed at most
// once, with every further consumer served from the memoized context.
func TestSharedContextSingleSweep(t *testing.T) {
	opts := corpus.Options{Scale: 0.3, Seed: 21, Programs: 1}
	configs := []synth.Config{
		{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2},
		{Compiler: synth.Clang, Mode: x86.Mode64, PIE: true, Opt: synth.O2},
	}
	cases := Cases(corpus.AllSuites()[:1], configs, opts)
	res, err := RunAll(cases, 2)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if res.Binaries == 0 {
		t.Fatal("no binaries evaluated")
	}
	n := uint64(res.Binaries)

	st := res.Stages
	if st.Sweep.Computes != n {
		t.Errorf("linear sweeps = %d over %d binaries, want exactly one per binary", st.Sweep.Computes, n)
	}
	// Sweep consumers per binary: the 5 FunSeeker configurations, the
	// two studies and FETCH's escaping-jump scan — all but the first must
	// be cache hits. IDA and Ghidra decode instructions on demand and do
	// not read the sweep.
	if st.Sweep.Hits < 7*n {
		t.Errorf("sweep cache hits = %d, want >= %d (7 per binary)", st.Sweep.Hits, 7*n)
	}
	if st.EHParse.Computes > n {
		t.Errorf(".eh_frame parses = %d over %d binaries, want at most one per binary", st.EHParse.Computes, n)
	}
	if st.EHParse.Computes == 0 {
		t.Error("no .eh_frame parse at all — GCC x86-64 binaries must carry FDEs")
	}
	if st.LandingPad.Computes != n {
		t.Errorf("landing-pad joins = %d, want exactly one per binary", st.LandingPad.Computes)
	}
	// FILTERENDBR runs once per FunSeeker configuration, SELECTTAILCALL
	// for configurations ④ and ⑤, and the FDE index is built once per
	// binary (configuration ⑤'s fusion stage).
	if st.Filter.Computes != 5*n {
		t.Errorf("filter stage ran %d times, want %d (5 configs per binary)", st.Filter.Computes, 5*n)
	}
	if st.TailCall.Computes != 2*n {
		t.Errorf("tail-call stage ran %d times, want %d (configs 4 and 5 only)", st.TailCall.Computes, 2*n)
	}
	if st.FDEIndex.Computes != n {
		t.Errorf("FDE index built %d times, want exactly one per binary", st.FDEIndex.Computes)
	}

	if out := res.RenderStages(); !strings.Contains(out, "sweep") {
		t.Errorf("RenderStages missing sweep row:\n%s", out)
	}
	if out := res.RenderAll(); !strings.Contains(out, "Per-stage analysis cost") {
		t.Error("RenderAll must include the stage-cost table")
	}
}
