package core

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/armsynth"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/synth"
)

// compileBTI builds a small BTI-enabled AArch64 image.
func compileBTI(t *testing.T) *elfx.Binary {
	t.Helper()
	spec := &synth.ProgSpec{
		Name: "arch_probe",
		Lang: synth.LangC,
		Seed: 1,
		Funcs: []synth.FuncSpec{
			{Name: "main", BodySize: 4, Calls: []int{1}},
			{Name: "helper", Static: true, AddressTaken: true, BodySize: 3},
		},
	}
	res, err := armsynth.Compile(spec, armsynth.Config{Opt: synth.O2})
	if err != nil {
		t.Fatalf("armsynth compile: %v", err)
	}
	bin, err := elfx.Load(res.Image)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return bin
}

// TestRequireCETAArch64: RequireCET is the BTI-presence gate on ARM. A
// BTI binary passes; the same binary with every landing pad patched to
// NOP — still valid code, zero landmarks — fails with ErrNotCET.
func TestRequireCETAArch64(t *testing.T) {
	bin := compileBTI(t)
	opts := Config4
	opts.RequireCET = true

	rep, err := IdentifyCtx(context.Background(), analysis.NewContext(bin), opts)
	if err != nil {
		t.Fatalf("BTI binary failed RequireCET: %v", err)
	}
	if rep.Arch != "aarch64" || len(rep.Endbrs) == 0 {
		t.Fatalf("arch %q, %d pads — want aarch64 with pads", rep.Arch, len(rep.Endbrs))
	}

	// Patch every BTI and PACIASP word to NOP.
	const nop = 0xD503201F
	for off := 0; off+4 <= len(bin.Text); off += 4 {
		w := binary.LittleEndian.Uint32(bin.Text[off:])
		if w&0xFFFFFF3F == 0xD503241F || w == 0xD503233F || w == 0xD503237F {
			binary.LittleEndian.PutUint32(bin.Text[off:], nop)
		}
	}
	_, err = IdentifyCtx(context.Background(), analysis.NewContext(bin), opts)
	if !errors.Is(err, ErrNotCET) {
		t.Fatalf("pad-free aarch64 err = %v, want ErrNotCET", err)
	}
	// Without the flag the same text degrades gracefully.
	rep, err = IdentifyCtx(context.Background(), analysis.NewContext(bin), Config4)
	if err != nil {
		t.Fatalf("non-required identify failed: %v", err)
	}
	if len(rep.Endbrs) != 0 {
		t.Fatalf("found %d pads in patched text", len(rep.Endbrs))
	}
}

// TestNativeArchDispatch: the binary's own Arch picks the backend, the
// report names the backend that actually ran, and a binary whose Arch
// has no backend fails with an error (never a panic).
func TestNativeArchDispatch(t *testing.T) {
	bin := compileBTI(t)

	rep, err := IdentifyCtx(context.Background(), analysis.NewContext(bin), Config4)
	if err != nil || rep.Arch != "aarch64" {
		t.Fatalf("native dispatch: arch %q err %v", rep.Arch, err)
	}

	// The same AArch64 bytes under an x86-64 header: meaningless
	// output, but well-formed and non-panicking.
	x86Header := *bin
	x86Header.Arch = elfx.ArchX86_64
	rep, err = IdentifyCtx(context.Background(), analysis.NewContext(&x86Header), Config4)
	if err != nil {
		t.Fatalf("x86-64 header over aarch64 bytes: %v", err)
	}
	if rep.Arch != "x86-64" {
		t.Fatalf("x86-64 header report arch = %q, want x86-64", rep.Arch)
	}

	unknown := *bin
	unknown.Arch = elfx.ArchUnknown
	if _, err := IdentifyCtx(context.Background(), analysis.NewContext(&unknown), Config4); err == nil {
		t.Fatal("ArchUnknown dispatch succeeded, want backend error")
	}
}
