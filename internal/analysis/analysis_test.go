package analysis

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/x86"
)

// testBinary hand-assembles a tiny x86-64 text section:
//
//	0x1000: endbr64            ; function entry
//	0x1004: call 0x100C        ; direct call
//	0x1009: ret
//	0x100A: jmp 0x1000         ; direct unconditional jump
//	0x100C: endbr64            ; call target
//	0x1010: ret
func testBinary() *elfx.Binary {
	text := []byte{
		0xF3, 0x0F, 0x1E, 0xFA, // endbr64
		0xE8, 0x03, 0x00, 0x00, 0x00, // call +3
		0xC3,       // ret
		0xEB, 0xF4, // jmp -12
		0xF3, 0x0F, 0x1E, 0xFA, // endbr64
		0xC3, // ret
	}
	return &elfx.Binary{Mode: x86.Mode64, Text: text, TextAddr: 0x1000}
}

func TestSweepArtifacts(t *testing.T) {
	ctx := NewContext(testBinary())
	sw := ctx.Sweep()

	wantEndbrs := []uint64{0x1000, 0x100C}
	if len(sw.Endbrs) != 2 || sw.Endbrs[0] != wantEndbrs[0] || sw.Endbrs[1] != wantEndbrs[1] {
		t.Fatalf("Endbrs = %#x, want %#x", sw.Endbrs, wantEndbrs)
	}
	if !Has(sw.Endbrs, 0x1000) || !Has(sw.Endbrs, 0x100C) || Has(sw.Endbrs, 0x1004) {
		t.Error("Has(Endbrs) disagrees with the end-branch list")
	}
	if len(sw.CallTargets) != 1 || sw.CallTargets[0] != 0x100C {
		t.Fatalf("CallTargets = %#x, want [0x100c]", sw.CallTargets)
	}
	if len(sw.JumpRefs) != 1 || sw.JumpRefs[0].Src != 0x100A || sw.JumpRefs[0].Target != 0x1000 || sw.JumpRefs[0].Cond {
		t.Fatalf("JumpRefs = %+v", sw.JumpRefs)
	}
	if !Has(sw.JumpTargets, 0x1000) || !Has(sw.UncondJumpTargets, 0x1000) {
		t.Error("jump target sets missing 0x1000")
	}
	if !Has(sw.AllCallTargets, 0x100C) || len(sw.AfterIRCall) != 0 {
		t.Errorf("AllCallTargets = %#x, AfterIRCall = %#x", sw.AllCallTargets, sw.AfterIRCall)
	}
}

func TestMemoizationCounts(t *testing.T) {
	ctx := NewContext(testBinary())
	const calls = 5
	for i := 0; i < calls; i++ {
		ctx.Sweep()
		ctx.SupersetEndbrs()
		if _, err := ctx.LandingPads(); err != nil {
			t.Fatalf("LandingPads: %v", err)
		}
	}
	st := ctx.Stats()
	if st.Sweep.Computes != 1 || st.Sweep.Hits != calls-1 {
		t.Errorf("sweep computes/hits = %d/%d, want 1/%d", st.Sweep.Computes, st.Sweep.Hits, calls-1)
	}
	if st.Superset.Computes != 1 || st.Superset.Hits != calls-1 {
		t.Errorf("superset computes/hits = %d/%d", st.Superset.Computes, st.Superset.Hits)
	}
	if st.LandingPad.Computes != 1 || st.LandingPad.Hits != calls-1 {
		t.Errorf("landing-pad computes/hits = %d/%d", st.LandingPad.Computes, st.LandingPad.Hits)
	}
	// The test binary has no .eh_frame: no parse should ever run.
	if st.EHParse.Computes != 0 {
		t.Errorf("eh-parse computes = %d, want 0 without .eh_frame", st.EHParse.Computes)
	}
}

// TestConcurrentReaders hammers every memoized artifact from many
// goroutines; with -race this exercises the concurrency contract, and the
// counters must still show exactly one compute per stage.
func TestConcurrentReaders(t *testing.T) {
	ctx := NewContext(testBinary())
	const readers = 16
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sw := ctx.Sweep()
				_ = sw.Endbrs[0]
				_ = ctx.SupersetEndbrs()
				if _, err := ctx.LandingPads(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := ctx.Stats()
	for name, stage := range map[string]StageStat{
		"sweep": st.Sweep, "superset": st.Superset, "landing-pad": st.LandingPad,
	} {
		if stage.Computes != 1 {
			t.Errorf("%s computed %d times under concurrency, want 1", name, stage.Computes)
		}
	}
}

func TestStatsAddAndRender(t *testing.T) {
	ctx := NewContext(testBinary())
	ctx.Sweep()
	var agg Stats
	agg.Add(ctx.Stats())
	agg.Add(ctx.Stats())
	if agg.Sweep.Computes != 2 {
		t.Errorf("aggregated sweep computes = %d, want 2", agg.Sweep.Computes)
	}
	if out := agg.Render(); out == "" {
		t.Error("Render produced nothing")
	}
}

func TestScanEndbrEncodings(t *testing.T) {
	// endbr64 at 0, endbr32 at a non-boundary offset, truncated encoding
	// straddling the end.
	text := []byte{
		0xF3, 0x0F, 0x1E, 0xFA, // endbr64 @ 0x2000
		0x90,                   // nop
		0xF3, 0x0F, 0x1E, 0xFB, // endbr32 @ 0x2005
		0xF3, 0x0F, 0x1E, // truncated endbr @ 0x2009 — must not match
	}
	bin := &elfx.Binary{Mode: x86.Mode64, Text: text, TextAddr: 0x2000}
	got := NewContext(bin).SupersetEndbrs()
	want := []uint64{0x2000, 0x2005}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("SupersetEndbrs = %#x, want %#x", got, want)
	}
}

// TestEHParseErrorMemoized: a corrupt .eh_frame fails the parse the
// same way every time, so the failure is memoized with the value — one
// parse, and the landing-pad and FDE-index builds carry its error.
func TestEHParseErrorMemoized(t *testing.T) {
	bin := testBinary()
	bin.EHFrame = bytes.Repeat([]byte{0xFF}, 64)
	bin.EHFrameAddr = 0x3000
	ctx := NewContext(bin)
	for i := 0; i < 3; i++ {
		if _, err := ctx.FDEs(); err == nil {
			t.Fatal("FDEs over a corrupt .eh_frame succeeded")
		}
		if _, err := ctx.LandingPads(); err == nil {
			t.Fatal("LandingPads over a corrupt .eh_frame succeeded")
		}
		if _, err := ctx.FDEIndex(); err == nil {
			t.Fatal("FDEIndex over a corrupt .eh_frame succeeded")
		}
	}
	st := ctx.Stats()
	for name, stage := range map[string]StageStat{
		"eh-parse": st.EHParse, "landing-pad": st.LandingPad, "fde-index": st.FDEIndex,
	} {
		if stage.Computes != 1 {
			t.Errorf("%s computed %d times, want 1", name, stage.Computes)
		}
	}
}

// TestMemoPanicNotMemoized: a build that panics leaves the slot empty
// instead of stranding it in flight, so the next get builds again.
func TestMemoPanicNotMemoized(t *testing.T) {
	var m memo[int]
	var st stageCounter
	func() {
		defer func() { _ = recover() }()
		_, _ = m.get(context.Background(), &st, nil, func() (int, error) { panic("build failed") })
	}()
	v, err := m.get(context.Background(), &st, nil, func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("get after a panicking build = %d, %v; want 7, nil", v, err)
	}
	if got := st.snapshot(); got.Computes != 1 || got.Hits != 0 {
		t.Fatalf("stage %+v, want one compute and no hits", got)
	}
}
