package analysis

import (
	"context"
	"strings"
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
	for _, arch := range []elfx.Arch{elfx.ArchAuto, elfx.ArchUnknown, elfx.ArchUnknown + 1} {
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
	if err := ctx.RequireX86(); err == nil || !strings.Contains(err.Error(), "aarch64") {
		t.Errorf("RequireX86 on an arm64 binary: %v, want an error naming aarch64", err)
	}
}

// TestWrongArchBytesNoPanic: a binary's header, not its bytes, picks
// the backend, so a crafted upload can hand either backend the other
// ISA's bytes. That must degrade to a meaningless-but-well-formed sweep,
// never a panic.
func TestWrongArchBytesNoPanic(t *testing.T) {
	// x86 code under an AArch64 header (length not a multiple of 4).
	x86Bytes := testBinary()
	x86Bytes.Arch = elfx.ArchAArch64
	if len(x86Bytes.Text)%4 == 0 {
		t.Fatalf("text is %d bytes, want a length that is not a multiple of 4", len(x86Bytes.Text))
	}
	// AArch64 code under both x86 headers.
	armBytes32, armBytes64 := arm64TestBinary(), arm64TestBinary()
	armBytes32.Arch, armBytes64.Arch = elfx.ArchX86, elfx.ArchX86_64
	for _, bin := range []*elfx.Binary{x86Bytes, armBytes32, armBytes64} {
		c := NewContext(bin)
		if sw, err := c.SweepCtx(context.Background()); err != nil || sw.Arch != bin.Arch {
			t.Fatalf("%v header over foreign bytes: sweep %v err %v", bin.Arch, sw, err)
		}
		_ = c.SupersetEndbrs()
	}
}

// TestResolveArchFallback: hand-built binaries without an Arch resolve
// through the historical x86 mode rule, so pre-seam callers (tests,
// synth pipelines) keep working unchanged.
func TestResolveArchFallback(t *testing.T) {
	cases := []struct {
		bin  *elfx.Binary
		want elfx.Arch
	}{
		{&elfx.Binary{Mode: x86.Mode32}, elfx.ArchX86},
		{&elfx.Binary{Mode: x86.Mode64}, elfx.ArchX86_64},
		{&elfx.Binary{Arch: elfx.ArchAArch64}, elfx.ArchAArch64},
		{&elfx.Binary{Arch: elfx.ArchX86_64, Mode: x86.Mode32}, elfx.ArchX86_64},
	}
	for i, tc := range cases {
		if got := resolveArch(tc.bin); got != tc.want {
			t.Errorf("case %d: resolveArch = %v, want %v", i, got, tc.want)
		}
	}
}
