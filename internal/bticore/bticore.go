// Package bticore is an independent reference implementation of the
// FunSeeker algorithm on ARMv8.5 BTI-enabled AArch64 binaries, the
// extension the paper's §VI sketches:
//
//	E  = BTI pads that accept indirect calls (BTI c / BTI jc / PACIASP)
//	C  = direct BL targets
//	J  = direct B targets, refined by the same SELECTTAILCALL rules
//
// The FILTERENDBR analog is built into the ISA: `BTI j` pads mark
// indirect-jump-only targets (switch-table case labels) and are excluded
// from E by their own operand — no PLT-name or LSDA analysis is needed.
//
// Production code does not call this package: AArch64 identification
// runs through elfx, analysis and core like every other architecture.
// bticore is a standalone codepath (debug/elf plus the arm64 decoder)
// that diffcheck's core-vs-bticore check and the engine's arch tests
// compare the generic core against, set by set.
package bticore

import (
	"bytes"
	"debug/elf"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/funseeker/funseeker/internal/arm64"
)

// Report is the identification result.
type Report struct {
	// Entries is the sorted set of identified function entries.
	Entries []uint64
	// CallPads counts BTI c / jc / PACIASP pads (E).
	CallPads int
	// JumpPads counts BTI j pads excluded from E.
	JumpPads int
	// CallTargets is C, sorted.
	CallTargets []uint64
	// JumpTargets is J, sorted.
	JumpTargets []uint64
	// TailCallTargets is J′, sorted.
	TailCallTargets []uint64
}

// ErrNoText is returned for images without an executable .text section.
var ErrNoText = errors.New("bticore: no .text section")

// IdentifyBytes parses an AArch64 ELF image and identifies function
// entries.
func IdentifyBytes(raw []byte) (*Report, error) {
	f, err := elf.NewFile(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("bticore: %w", err)
	}
	defer f.Close()
	if f.Machine != elf.EM_AARCH64 {
		return nil, fmt.Errorf("bticore: not an AArch64 binary (machine %v)", f.Machine)
	}
	sec := f.Section(".text")
	if sec == nil {
		return nil, ErrNoText
	}
	text, err := sec.Data()
	if err != nil {
		return nil, fmt.Errorf("bticore: read .text: %w", err)
	}
	return Identify(text, sec.Addr), nil
}

// jumpRef is one direct unconditional branch.
type jumpRef struct {
	src, target uint64
}

// Identify runs the BTI algorithm over raw text.
func Identify(text []byte, textAddr uint64) *Report {
	report := &Report{}
	textEnd := textAddr + uint64(len(text))
	inText := func(va uint64) bool { return va >= textAddr && va < textEnd }

	candidates := make(map[uint64]bool)
	callTargets := make(map[uint64]bool)
	var jumps []jumpRef

	arm64.LinearSweep(text, textAddr, func(inst arm64.Inst) bool {
		switch inst.Class {
		case arm64.ClassBTI:
			if inst.BTI.AcceptsCall() {
				report.CallPads++
				candidates[inst.Addr] = true
			} else if inst.BTI.AcceptsJump() {
				report.JumpPads++
			}
		case arm64.ClassPACIASP:
			report.CallPads++
			candidates[inst.Addr] = true
		case arm64.ClassBL:
			if inst.HasTarget && inText(inst.Target) {
				callTargets[inst.Target] = true
			}
		case arm64.ClassB:
			if inst.HasTarget && inText(inst.Target) {
				jumps = append(jumps, jumpRef{src: inst.Addr, target: inst.Target})
			}
		}
		return true
	})
	for t := range callTargets {
		candidates[t] = true
		report.CallTargets = append(report.CallTargets, t)
	}
	slices.Sort(report.CallTargets)

	jumpSet := make(map[uint64]bool, len(jumps))
	for _, j := range jumps {
		jumpSet[j.target] = true
	}
	report.JumpTargets = sortedKeys(jumpSet)

	// SELECTTAILCALL: identical rules to the x86 algorithm — the target
	// must escape the jump's (approximated) function and be referenced
	// from more than one function.
	starts := sortedKeys(candidates)
	funcOf := func(addr uint64) uint64 {
		i := sort.Search(len(starts), func(i int) bool { return starts[i] > addr })
		if i == 0 {
			return 0
		}
		return starts[i-1]
	}
	nextStart := func(addr uint64) uint64 {
		i := sort.Search(len(starts), func(i int) bool { return starts[i] > addr })
		if i == len(starts) {
			return textEnd
		}
		return starts[i]
	}
	type tinfo struct {
		srcs    map[uint64]bool
		escapes bool
	}
	infos := make(map[uint64]*tinfo)
	for _, j := range jumps {
		info := infos[j.target]
		if info == nil {
			info = &tinfo{srcs: make(map[uint64]bool)}
			infos[j.target] = info
		}
		src := funcOf(j.src)
		info.srcs[src] = true
		if j.target < src || j.target >= nextStart(j.src) {
			info.escapes = true
		}
	}
	for target, info := range infos {
		if candidates[target] || !info.escapes || len(info.srcs) < 2 {
			continue
		}
		candidates[target] = true
		report.TailCallTargets = append(report.TailCallTargets, target)
	}
	slices.Sort(report.TailCallTargets)

	report.Entries = sortedKeys(candidates)
	return report
}

func sortedKeys(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}
