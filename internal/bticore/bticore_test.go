package bticore

import (
	"debug/elf"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/funseeker/funseeker/internal/armsynth"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/groundtruth"
	"github.com/funseeker/funseeker/internal/synth"
)

func btiSpec() *synth.ProgSpec {
	return &synth.ProgSpec{
		Name: "btitest",
		Lang: synth.LangC,
		Seed: 77,
		Funcs: []synth.FuncSpec{
			{Name: "main", Calls: []int{1, 2}, HasSwitch: true, SwitchCases: 5},
			{Name: "helper", Calls: []int{3}},
			{Name: "worker", BodySize: 200},
			{Name: "leaf", Static: true},
			{Name: "exported_idle"},
			{Name: "datacb", AddressTakenData: true},
			{Name: "tail_impl", Static: true},
			{Name: "tail_a", TailCalls: []int{6}},
			{Name: "tail_b", TailCalls: []int{6}},
			{Name: "dead_one", Static: true, Dead: true},
		},
	}
}

func compileBTI(t *testing.T, cfg armsynth.Config) (*armsynth.Result, *Report) {
	t.Helper()
	res, err := armsynth.Compile(btiSpec(), cfg)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	report, err := IdentifyBytes(res.Image)
	if err != nil {
		t.Fatalf("IdentifyBytes: %v", err)
	}
	return res, report
}

func scoreBTI(report *Report, gt *groundtruth.GT) (fp, fn int, fnNames []string) {
	truth := gt.Entries()
	found := map[uint64]bool{}
	for _, e := range report.Entries {
		found[e] = true
		if !truth[e] {
			fp++
		}
	}
	for _, f := range gt.Funcs {
		if !found[f.Addr] {
			fn++
			fnNames = append(fnNames, f.Name)
		}
	}
	return fp, fn, fnNames
}

func TestBTIIdentify(t *testing.T) {
	for _, cfg := range []armsynth.Config{
		{Opt: synth.O2},
		{Opt: synth.O0},
		{Opt: synth.O2, PAC: true},
	} {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			res, report := compileBTI(t, cfg)
			fp, _, fnNames := scoreBTI(report, res.GT)
			if fp != 0 {
				t.Errorf("%d false positives", fp)
			}
			// The only acceptable miss is the dead static function.
			for _, name := range fnNames {
				if name != "dead_one" {
					t.Errorf("missed live function %s", name)
				}
			}
			// Switch case labels (BTI j) must not be entries.
			if report.JumpPads == 0 {
				t.Error("no BTI j pads seen despite the switch")
			}
			if report.CallPads == 0 {
				t.Error("no call pads seen")
			}
		})
	}
}

func TestBTIJumpPadsExcluded(t *testing.T) {
	res, report := compileBTI(t, armsynth.Config{Opt: synth.O2})
	jPads := map[uint64]bool{}
	for _, e := range res.GT.Endbrs {
		if e.Role == groundtruth.RoleJumpTarget {
			jPads[e.Addr] = true
		}
	}
	if len(jPads) == 0 {
		t.Fatal("ground truth has no BTI j sites")
	}
	if report.JumpPads != len(jPads) {
		t.Errorf("JumpPads = %d, ground truth has %d", report.JumpPads, len(jPads))
	}
	for _, e := range report.Entries {
		if jPads[e] {
			t.Errorf("BTI j pad %#x identified as a function entry", e)
		}
	}
}

func TestBTITailCallSelection(t *testing.T) {
	res, report := compileBTI(t, armsynth.Config{Opt: synth.O2})
	var tailImpl uint64
	for _, f := range res.GT.Funcs {
		if f.Name == "tail_impl" {
			tailImpl = f.Addr
		}
	}
	foundTail := false
	for _, a := range report.TailCallTargets {
		if a == tailImpl {
			foundTail = true
		}
	}
	if !foundTail {
		t.Error("tail_impl (2 tail callers) not selected as a tail-call target")
	}
}

func TestBTIPACEntries(t *testing.T) {
	// Under PAC, entries start with PACIASP instead of BTI c; both are
	// valid call pads.
	res, report := compileBTI(t, armsynth.Config{Opt: synth.O2, PAC: true})
	truth := res.GT.Entries()
	hits := 0
	for _, e := range report.Entries {
		if truth[e] {
			hits++
		}
	}
	if hits < len(res.GT.Funcs)-1 {
		t.Errorf("PAC build: %d of %d entries found", hits, len(res.GT.Funcs))
	}
}

func TestIdentifyBytesErrors(t *testing.T) {
	if _, err := IdentifyBytes([]byte("junk")); err == nil {
		t.Error("want error for junk input")
	}
}

// TestIdentifyBytesExtendedNumberingNoPanic: an image with extended
// section numbering (e_shnum 0, the count in section 0's sh_size) and an
// e_shstrndx past that count is an error, not a panic. debug/elf checks
// the index only against e_shnum and panics indexing its sections.
func TestIdentifyBytesExtendedNumberingNoPanic(t *testing.T) {
	const shnum = 0xff00
	le := binary.LittleEndian
	raw := make([]byte, 0x40+shnum*64)
	copy(raw, "\x7fELF\x02\x01\x01")
	le.PutUint16(raw[0x10:], uint16(elf.ET_EXEC))
	le.PutUint16(raw[0x12:], uint16(elf.EM_AARCH64))
	le.PutUint32(raw[0x14:], uint32(elf.EV_CURRENT))
	le.PutUint64(raw[0x28:], 0x40)   // e_shoff
	le.PutUint16(raw[0x3A:], 64)     // e_shentsize
	le.PutUint16(raw[0x3E:], 0xff10) // e_shstrndx
	le.PutUint64(raw[0x40+32:], shnum)
	if _, err := IdentifyBytes(raw); !errors.Is(err, elfx.ErrNotELF) {
		t.Errorf("e_shstrndx %#x of %#x sections: err = %v, want ErrNotELF", 0xff10, shnum, err)
	}
}

func TestDeterministicARMBuild(t *testing.T) {
	a, err := armsynth.Compile(btiSpec(), armsynth.Config{Opt: synth.O3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := armsynth.Compile(btiSpec(), armsynth.Config{Opt: synth.O3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Image) != len(b.Image) {
		t.Fatal("nondeterministic image size")
	}
	for i := range a.Image {
		if a.Image[i] != b.Image[i] {
			t.Fatalf("images differ at byte %d", i)
		}
	}
}
