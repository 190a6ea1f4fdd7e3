package analysis

import (
	"context"
	"testing"

	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/x86"
)

// arm64TestBinary hand-assembles a tiny AArch64 text:
//
//	0x1000: bti c              ; function entry pad
//	0x1004: bl 0x1010          ; direct call
//	0x1008: ret
//	0x100C: b 0x1000           ; unconditional direct jump
//	0x1010: paciasp            ; PAC-protected entry (also in E)
//	0x1014: ret
//	0x1018: bti j              ; jump-only pad (excluded from E)
//	0x101C: ret
func arm64TestBinary() *elfx.Binary {
	words := []uint32{
		0xD503245F, // bti c
		0x94000003, // bl +12
		0xD65F03C0, // ret
		0x17FFFFFD, // b -12
		0xD503233F, // paciasp
		0xD65F03C0, // ret
		0xD503249F, // bti j
		0xD65F03C0, // ret
	}
	text := make([]byte, 0, 4*len(words))
	for _, w := range words {
		text = append(text, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return &elfx.Binary{Arch: elfx.ArchAArch64, Text: text, TextAddr: 0x1000}
}

// TestBackendForUnknownArch: the non-backend Arch values must fail with
// an error, not fall through to a default backend.
func TestBackendForUnknownArch(t *testing.T) {
	for _, arch := range []elfx.Arch{elfx.ArchAuto, elfx.ArchUnknown, elfx.NArch} {
		if be, err := BackendFor(arch); err == nil {
			t.Errorf("BackendFor(%v) = %v, want error", arch, be.Arch())
		}
	}
}

// TestArm64SweepArtifacts: the BTI backend's landmark mapping — call
// pads and PACIASP in E, BTI j pads in JumpPads, BL targets in C,
// unconditional B references in J.
func TestArm64SweepArtifacts(t *testing.T) {
	ctx := NewContext(arm64TestBinary())
	sw := ctx.Sweep()
	if sw.Arch != elfx.ArchAArch64 {
		t.Fatalf("sweep arch = %v, want aarch64", sw.Arch)
	}
	if len(sw.Endbrs) != 2 || sw.Endbrs[0] != 0x1000 || sw.Endbrs[1] != 0x1010 {
		t.Fatalf("Endbrs = %#x, want [0x1000 0x1010]", sw.Endbrs)
	}
	if len(sw.JumpPads) != 1 || sw.JumpPads[0] != 0x1018 {
		t.Fatalf("JumpPads = %#x, want [0x1018]", sw.JumpPads)
	}
	if len(sw.CallTargets) != 1 || sw.CallTargets[0] != 0x1010 {
		t.Fatalf("CallTargets = %#x, want [0x1010]", sw.CallTargets)
	}
	if len(sw.JumpRefs) != 1 || sw.JumpRefs[0].Src != 0x100C || sw.JumpRefs[0].Target != 0x1000 || sw.JumpRefs[0].Cond {
		t.Fatalf("JumpRefs = %+v", sw.JumpRefs)
	}
	if !Has(sw.UncondJumpTargets, 0x1000) {
		t.Error("UncondJumpTargets missing 0x1000")
	}
	if idx, err := ctx.IndexCtx(context.Background()); idx != nil || err == nil || ctx.Index() != nil {
		t.Errorf("x86 index of an arm64 binary: %v, %v; want nil and an error", idx, err)
	}
	if sw.ARM64 == nil || len(sw.ARM64.Insts) != 8 {
		t.Fatalf("arm64 index missing or wrong size: %+v", sw.ARM64)
	}
}

// TestPerArchMemoization: sweeps are memoized per architecture — forcing
// a second backend over the same binary computes once more, and neither
// arch ever recomputes.
func TestPerArchMemoization(t *testing.T) {
	c := NewContext(testBinary())
	bg := context.Background()

	native := c.Sweep()
	forced, err := c.SweepArchCtx(bg, elfx.ArchAArch64)
	if err != nil {
		t.Fatalf("forced arm64 sweep: %v", err)
	}
	if native.Arch != elfx.ArchX86_64 || forced.Arch != elfx.ArchAArch64 {
		t.Fatalf("arches = %v / %v", native.Arch, forced.Arch)
	}
	if again, _ := c.SweepArchCtx(bg, elfx.ArchAArch64); again != forced {
		t.Error("forced-arch sweep not memoized")
	}
	if c.Sweep() != native {
		t.Error("native sweep evicted by forced-arch sweep")
	}
	st := c.Stats()
	if st.Sweep.Computes != 2 {
		t.Errorf("sweep computes = %d, want 2 (one per arch)", st.Sweep.Computes)
	}
}

// TestWrongArchBytesNoPanic: feeding either backend the other ISA's
// bytes must degrade to a meaningless-but-well-formed sweep, never
// panic — the server runs arch-forced requests on untrusted uploads.
func TestWrongArchBytesNoPanic(t *testing.T) {
	bg := context.Background()

	// x86 code through the arm64 backend (length not a multiple of 4).
	if sw, err := NewContext(testBinary()).SweepArchCtx(bg, elfx.ArchAArch64); err != nil || sw.Arch != elfx.ArchAArch64 {
		t.Fatalf("arm64 over x86 bytes: sweep %v err %v", sw, err)
	}
	// arm64 code through both x86 backends.
	for _, arch := range []elfx.Arch{elfx.ArchX86, elfx.ArchX86_64} {
		if sw, err := NewContext(arm64TestBinary()).SweepArchCtx(bg, arch); err != nil || sw.Arch != arch {
			t.Fatalf("%v over arm64 bytes: sweep %v err %v", arch, sw, err)
		}
	}
}

// TestResolveArchFallback: hand-built binaries without an Arch resolve
// through the historical x86 mode rule, so pre-seam callers (tests,
// synth pipelines) keep working unchanged.
func TestResolveArchFallback(t *testing.T) {
	cases := []struct {
		bin  *elfx.Binary
		arch elfx.Arch
		want elfx.Arch
	}{
		{&elfx.Binary{Mode: x86.Mode32}, elfx.ArchAuto, elfx.ArchX86},
		{&elfx.Binary{Mode: x86.Mode64}, elfx.ArchAuto, elfx.ArchX86_64},
		{&elfx.Binary{Arch: elfx.ArchAArch64}, elfx.ArchAuto, elfx.ArchAArch64},
		{&elfx.Binary{Arch: elfx.ArchAArch64}, elfx.ArchX86_64, elfx.ArchX86_64},
	}
	for i, tc := range cases {
		if got := resolveArch(tc.bin, tc.arch); got != tc.want {
			t.Errorf("case %d: resolveArch = %v, want %v", i, got, tc.want)
		}
	}
}
