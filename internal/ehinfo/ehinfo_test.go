package ehinfo

import (
	"slices"
	"testing"

	"github.com/funseeker/funseeker/internal/ehframe"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/groundtruth"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// landingPads parses bin's .eh_frame (a structurally broken section is
// an error) and returns its landing pads sorted and deduplicated, the
// form analysis.Context.LandingPads serves.
func landingPads(bin *elfx.Binary) ([]uint64, error) {
	fdes, err := ehframe.Parse(bin.EHFrame, bin.EHFrameAddr, bin.PtrSize())
	if err != nil {
		return nil, err
	}
	pads := LandingPadsFromFDEs(bin, fdes)
	slices.Sort(pads)
	return slices.Compact(pads), nil
}

func TestLandingPadSetMatchesGroundTruth(t *testing.T) {
	spec := &synth.ProgSpec{
		Name: "ehtest",
		Lang: synth.LangCPP,
		Seed: 12,
		Funcs: []synth.FuncSpec{
			{Name: "main", Calls: []int{1, 2}},
			{Name: "t1", HasEH: true, NumLandingPads: 2, CallsPLT: []string{"__cxa_throw"}},
			{Name: "t2", HasEH: true, NumLandingPads: 1, CallsPLT: []string{"__cxa_throw"}},
			{Name: "plain"},
		},
	}
	for _, cfg := range []synth.Config{
		{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2},
		{Compiler: synth.Clang, Mode: x86.Mode32, PIE: true, Opt: synth.O1},
	} {
		res, err := synth.Compile(spec, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		bin, err := elfx.Load(res.Stripped)
		if err != nil {
			t.Fatal(err)
		}
		pads, err := landingPads(bin)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		var want []uint64
		for _, e := range res.GT.Endbrs {
			if e.Role == groundtruth.RoleException {
				want = append(want, e.Addr)
			}
		}
		slices.Sort(want)
		if want = slices.Compact(want); !slices.Equal(pads, want) {
			t.Fatalf("%s: pads %#x, want %#x", cfg, pads, want)
		}
	}
}

func TestNoEHSections(t *testing.T) {
	spec := &synth.ProgSpec{
		Name:  "plainc",
		Lang:  synth.LangC,
		Seed:  1,
		Funcs: []synth.FuncSpec{{Name: "main"}},
	}
	res, err := synth.Compile(spec, synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elfx.Load(res.Stripped)
	if err != nil {
		t.Fatal(err)
	}
	pads, err := landingPads(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(pads) != 0 {
		t.Fatalf("C binary has %d landing pads", len(pads))
	}
}

func TestCorruptEHFrame(t *testing.T) {
	spec := &synth.ProgSpec{
		Name: "ehcorrupt",
		Lang: synth.LangCPP,
		Seed: 2,
		Funcs: []synth.FuncSpec{
			{Name: "main", Calls: []int{1}},
			{Name: "t", HasEH: true, CallsPLT: []string{"__cxa_throw"}},
		},
	}
	res, err := synth.Compile(spec, synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elfx.Load(res.Stripped)
	if err != nil {
		t.Fatal(err)
	}
	// Structural corruption of .eh_frame must surface as an error, not
	// a crash.
	bin.EHFrame[0] = 0xFF
	bin.EHFrame[1] = 0xFF
	bin.EHFrame[2] = 0xFF
	bin.EHFrame[3] = 0x7F
	if _, err := landingPads(bin); err == nil {
		t.Error("want error for corrupt .eh_frame")
	}
	// A truncated except table must not panic either: LSDA parse errors
	// are skipped per-record.
	bin2, _ := elfx.Load(res.Stripped)
	bin2.ExceptTable = bin2.ExceptTable[:1]
	if _, err := landingPads(bin2); err != nil {
		t.Errorf("truncated LSDA should be skipped, got %v", err)
	}
}
