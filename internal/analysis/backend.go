package analysis

import (
	"context"
	"fmt"

	"github.com/funseeker/funseeker/internal/arm64"
	"github.com/funseeker/funseeker/internal/cet"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/x86"
)

// Backend is the per-ISA dispatch seam: everything the identification
// pipeline needs from an architecture — the linear sweep with its
// derived reference sets, and the byte-level landmark scan — behind one
// interface. The neutral Sweep vocabulary (landmarks E, call targets C,
// jump references J) is what lets core run the same FILTERENDBR /
// SELECTTAILCALL refinements over any backend; a third ISA plugs in by
// implementing these two methods and claiming an elfx.Arch value in
// BackendFor.
type Backend interface {
	// Arch names the architecture the backend implements.
	Arch() elfx.Arch
	// BuildSweep runs one linear sweep over bin's text and derives the
	// reference sets. On cancellation the partial work is discarded and
	// ctx.Err() returned.
	BuildSweep(ctx context.Context, bin *elfx.Binary) (*Sweep, error)
	// ScanMarkers finds call-accepting landmark encodings at every byte
	// offset of text (not only at sweep instruction boundaries),
	// ascending — the superset-disassembly pairing of the paper's §VI.
	ScanMarkers(text []byte, base uint64) []uint64
}

// BackendFor returns the backend implementing arch. ArchAuto is not a
// backend — Context resolves it against the Binary first.
func BackendFor(arch elfx.Arch) (Backend, error) {
	switch arch {
	case elfx.ArchX86:
		return x86Backend{mode: x86.Mode32}, nil
	case elfx.ArchX86_64:
		return x86Backend{mode: x86.Mode64}, nil
	case elfx.ArchAArch64:
		return arm64Backend{}, nil
	}
	return nil, fmt.Errorf("analysis: no backend for architecture %q", arch)
}

// resolveArch returns the architecture whose backend analyzes bin.
// Hand-built Binary values (tests, synthesizers) may carry no Arch at
// all; those fall back to the historical x86 rule via Mode.
func resolveArch(bin *elfx.Binary) elfx.Arch {
	if bin.Arch != elfx.ArchAuto {
		return bin.Arch
	}
	if bin.Mode == x86.Mode32 {
		return elfx.ArchX86
	}
	return elfx.ArchX86_64
}

// x86Backend is the CET/endbr backend, at the decode mode matching its
// Arch. It is the original hard-wired pipeline moved behind the seam;
// the golden and property tests pin its output bit-identical to the
// pre-seam implementation.
type x86Backend struct {
	mode x86.Mode
}

// Arch implements Backend.
func (b x86Backend) Arch() elfx.Arch {
	if b.mode == x86.Mode32 {
		return elfx.ArchX86
	}
	return elfx.ArchX86_64
}

// BuildSweep implements Backend: one x86 records sweep — end branches,
// direct calls and direct jumps, no materialized instructions — with the
// indirect-return-call annotations FILTERENDBR consumes resolved from
// the sweep's boundary bitmap. Workers <= 0 leaves the sequential vs
// sharded choice to the x86 package (one auto-selection threshold), and
// every strategy yields identical records (internal/diffcheck asserts it
// per binary).
func (b x86Backend) BuildSweep(ctx context.Context, bin *elfx.Binary) (*Sweep, error) {
	r, err := x86.SweepRecords(ctx, bin.Text, bin.TextAddr, b.mode, 0)
	if err != nil {
		return nil, err
	}
	sw := &Sweep{
		Arch:          b.Arch(),
		Shards:        r.Shards,
		StitchRetries: r.StitchRetries,
		Endbrs:        r.Endbrs,
		Calls:         r.Calls,
		JumpRefs:      r.Jumps,
	}
	r.AfterCalls(func(e, target uint64) {
		if name, ok := bin.PLTName(target); ok && cet.IsIndirectReturnFunc(name) {
			sw.AfterIRCall = append(sw.AfterIRCall, e)
		}
	})
	sw.DeriveSets(bin)
	return sw, nil
}

// ScanMarkers implements Backend: the 4-byte ENDBR encodings (F3 0F 1E
// FA/FB) at every byte offset of text. Encodings whose tail would
// straddle the end of the section are not matches.
func (x86Backend) ScanMarkers(text []byte, base uint64) []uint64 {
	var out []uint64
	for off := 0; off+4 <= len(text); off++ {
		if text[off] != 0xF3 || text[off+1] != 0x0F || text[off+2] != 0x1E {
			continue
		}
		if b := text[off+3]; b != 0xFA && b != 0xFB {
			continue
		}
		out = append(out, base+uint64(off))
	}
	return out
}

// arm64Backend is the BTI backend. The landmark mapping follows the
// paper's §VI sketch (and internal/bticore, whose output the diffcheck
// oracle pins this backend against): call-accepting pads (BTI c / jc,
// PACIASP) play the role of ENDBR in E, BL of direct calls in C, and
// unconditional B of the direct jumps SELECTTAILCALL refines. BTI j pads
// — indirect-jump-only switch labels — are what FILTERENDBR removes by
// analysis on x86; here the ISA names them, so they are excluded from E
// at sweep time and reported separately in JumpPads.
type arm64Backend struct{}

// Arch implements Backend.
func (arm64Backend) Arch() elfx.Arch { return elfx.ArchAArch64 }

// BuildSweep implements Backend: one fixed-width AArch64 sweep that
// keeps only the records the refinements read — call-accepting pads (E),
// jump-only pads, BL targets and B references — decoding each word once
// without storing it. The sweep is never sharded — with 4-byte
// instructions every decode start is already synchronized, so parallel
// speculation has nothing to buy.
func (arm64Backend) BuildSweep(ctx context.Context, bin *elfx.Binary) (*Sweep, error) {
	sw := &Sweep{Arch: elfx.ArchAArch64, Shards: 1}
	err := arm64.LinearSweep(ctx, bin.Text, bin.TextAddr, func(inst arm64.Inst) bool {
		switch inst.Class {
		case arm64.ClassBTI:
			if inst.BTI.AcceptsCall() {
				sw.Endbrs = append(sw.Endbrs, inst.Addr)
			} else if inst.BTI.AcceptsJump() {
				sw.JumpPads = append(sw.JumpPads, inst.Addr)
			}
		case arm64.ClassPACIASP:
			sw.Endbrs = append(sw.Endbrs, inst.Addr)
		case arm64.ClassBL:
			if inst.HasTarget {
				sw.Calls = append(sw.Calls, JumpRef{Src: inst.Addr, Target: inst.Target})
			}
		case arm64.ClassB:
			if inst.HasTarget {
				sw.JumpRefs = append(sw.JumpRefs, JumpRef{Src: inst.Addr, Target: inst.Target})
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	sw.DeriveSets(bin)
	return sw, nil
}

// ScanMarkers implements Backend via the word-aligned call-pad scan.
func (arm64Backend) ScanMarkers(text []byte, base uint64) []uint64 {
	return arm64.ScanCallPads(text, base)
}
