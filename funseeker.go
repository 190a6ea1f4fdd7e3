// Package funseeker identifies function entry points in CET-enabled
// x86/x86-64 ELF binaries, reproducing the FunSeeker system from
// "How'd Security Benefit Reverse Engineers? The Implication of Intel CET
// on Function Identification" (Kim, Lee, Kim, Jung, Cha — DSN 2022).
//
// The core insight: Intel CET's Indirect Branch Tracking makes compilers
// mark every potential indirect-branch destination with an end-branch
// instruction (ENDBR32/ENDBR64). Those markers sit at almost every
// function entry — but also after calls to indirect-return functions
// (the setjmp family) and at C++ exception landing pads, and some
// functions (static, direct-called-only) carry no marker at all.
// FunSeeker turns this into a fast, linear identification algorithm:
//
//	E, C, J  = DISASSEMBLE(text)   // end branches, call targets, jump targets
//	E'       = FILTERENDBR(E)      // drop non-entry end branches
//	J'       = SELECTTAILCALL(J)   // keep only tail-call jump targets
//	entries  = E' ∪ C ∪ J'
//
// Basic use:
//
//	report, err := funseeker.Identify("/bin/ls-cet", funseeker.DefaultOptions)
//	if err != nil { ... }
//	for _, entry := range report.Entries {
//		fmt.Printf("%#x\n", entry)
//	}
//
// The module also ships everything needed to reproduce the paper's
// evaluation offline: a synthetic CET-aware compiler (Compile, the
// Suite corpus generators), reimplementations of the comparison tools
// (RunIDA, RunGhidra, RunFETCH), and scoring utilities (Score).
package funseeker

import (
	"context"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/elfx"
)

// The package's error taxonomy. Every failure returned from this
// package's entry points matches exactly one of these sentinels under
// errors.Is, so callers branch on error *kind* rather than on message
// strings:
//
//	ErrNotELF   — the input bytes are not an ELF image
//	ErrNoText   — the ELF has no executable .text section
//	ErrMalformed — a section the analysis reads is compressed, has no
//	               file bytes, or lies outside the image
//	ErrNotCET   — Options.RequireCET was set and no end branch exists
//	ErrCanceled — the context passed to a *Ctx entry point was canceled
//
// A deadline expiry surfaces as context.DeadlineExceeded, unwrapped, by
// the usual context convention.
var (
	// ErrNoText is returned for binaries without an executable .text
	// section.
	ErrNoText = elfx.ErrNoText
	// ErrNotELF is returned when the input does not parse as ELF at all.
	ErrNotELF = elfx.ErrNotELF
	// ErrMalformed is returned when a section the analysis reads (.text,
	// the exception tables, the PLT and its relocations, the symbol
	// tables, the GNU property note) is compressed, has no file bytes, or
	// lies outside the image.
	ErrMalformed = elfx.ErrMalformed
	// ErrNotCET is returned when Options.RequireCET is set and the sweep
	// finds no end-branch instruction: the binary was not built for
	// Intel CET / IBT, so the marker-based algorithm cannot apply.
	ErrNotCET = core.ErrNotCET
	// ErrCanceled is the error a canceled *Ctx entry point returns; it
	// is context.Canceled itself, re-exported so callers can write
	// errors.Is(err, funseeker.ErrCanceled) without importing context.
	ErrCanceled = context.Canceled
)

// Options selects which refinement passes run, mirroring the paper's four
// evaluation configurations (Table II).
type Options = core.Options

// Configuration presets from the paper's Table II. DefaultOptions is the
// full algorithm (configuration ④).
var (
	// Config1 is E ∪ C: raw end branches plus direct call targets.
	Config1 = core.Config1
	// Config2 adds FILTERENDBR (E′ ∪ C).
	Config2 = core.Config2
	// Config3 additionally includes every direct jump target (E′ ∪ C ∪ J).
	Config3 = core.Config3
	// Config4 is the full algorithm (E′ ∪ C ∪ J′).
	Config4 = core.Config4
	// Config5 fuses .eh_frame evidence into the full algorithm
	// (E′ ∪ C ∪ J′ ∪ F); it keeps working on binaries without CET markers.
	Config5 = core.Config5
	// DefaultOptions is Config4.
	DefaultOptions = core.DefaultOptions
)

// Report is the result of one identification run: the identified entries
// plus the intermediate sets (E, C, J, J′) and filter statistics.
type Report = core.Report

// Binary is a loaded ELF executable ready for analysis.
type Binary = elfx.Binary

// Arch names an analysis backend. Load takes it from the ELF header,
// and the analysis dispatches on it.
type Arch = elfx.Arch

// Architecture constants, re-exported from the loader.
const (
	// ArchX86 is 32-bit x86 (CET/ENDBR32).
	ArchX86 = elfx.ArchX86
	// ArchX86_64 is x86-64 (CET/ENDBR64).
	ArchX86_64 = elfx.ArchX86_64
	// ArchAArch64 is 64-bit ARM (BTI/PACIASP).
	ArchAArch64 = elfx.ArchAArch64
	// ArchUnknown marks an ELF machine no backend handles.
	ArchUnknown = elfx.ArchUnknown
)

// DetectArch peeks at an ELF header and reports the architecture Load
// would assign, without parsing the image. Non-ELF input yields
// ArchUnknown.
func DetectArch(raw []byte) Arch {
	return elfx.DetectArch(raw)
}

// AnalysisContext is the shared per-binary analysis state: the linear
// sweep, reference sets, .eh_frame parse, and landing-pad set are each
// computed once per binary, on first demand, and shared by every analyzer
// consuming the context — including analyzers on other goroutines. Build
// one with NewContext when running several tools or configurations over
// the same binary.
//
// Naming convention: an *AnalysisContext parameter is always called
// actx, a context.Context always ctx. The two compose: each operation's
// one *Ctx form (IdentifyCtx, RunIDACtx, RunGhidraCtx, RunFETCHCtx) takes
// both ("run this analysis over the shared artifacts in actx, abandoning
// it if ctx is canceled").
type AnalysisContext = analysis.Context

// AnalysisStats is a snapshot of per-stage costs and memoization hit/miss
// counts for one context (or, via Add, an aggregate over many).
type AnalysisStats = analysis.Stats

// NewContext wraps a loaded binary in a fresh analysis context.
func NewContext(bin *Binary) *AnalysisContext {
	return analysis.NewContext(bin)
}

// Identify runs FunSeeker on the ELF binary at path.
func Identify(path string, opts Options) (*Report, error) {
	bin, err := elfx.Open(path)
	if err != nil {
		return nil, err
	}
	return core.Identify(bin, opts)
}

// IdentifyBytes runs FunSeeker on an in-memory ELF image.
func IdentifyBytes(raw []byte, opts Options) (*Report, error) {
	bin, err := elfx.Load(raw)
	if err != nil {
		return nil, err
	}
	return core.Identify(bin, opts)
}

// IdentifyBinary runs FunSeeker on an already-loaded binary.
func IdentifyBinary(bin *Binary, opts Options) (*Report, error) {
	return core.Identify(bin, opts)
}

// IdentifyCtx is the general form of Identify: it runs FunSeeker over the
// shared per-binary analysis artifacts memoized in actx, under ctx. Use it
// when the same binary is analyzed more than once — e.g. all five
// configurations, or FunSeeker alongside the baseline tools — so the
// sweep and exception-metadata parse are not repeated, or when the run
// must be cancelable.
//
// Cancellation is cooperative and cheap: the linear sweep — the dominant
// cost — checks ctx at parallel-shard and stride boundaries, so a
// canceled or timed-out request stops burning CPU within tens of
// microseconds and returns ErrCanceled (or context.DeadlineExceeded). A
// canceled first sweep is not memoized into actx; a later call
// recomputes it.
func IdentifyCtx(ctx context.Context, actx *AnalysisContext, opts Options) (*Report, error) {
	return core.IdentifyCtx(ctx, actx, opts)
}

// Open loads the ELF binary at path for analysis.
func Open(path string) (*Binary, error) {
	return elfx.Open(path)
}

// Load parses an in-memory ELF image for analysis. The Binary's
// sections alias raw, which must not be mutated while it is in use.
func Load(raw []byte) (*Binary, error) {
	return elfx.Load(raw)
}
