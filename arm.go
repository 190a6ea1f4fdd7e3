package funseeker

import (
	"github.com/funseeker/funseeker/internal/armsynth"
	"github.com/funseeker/funseeker/internal/synth"
)

// ARM BTI support — the extension the paper's §VI identifies as
// promising future work. ARMv8.5 Branch Target Identification plays the
// ENDBR role on AArch64, with one improvement: the pad operand
// self-describes its legal predecessors (BTI c for calls, BTI j for
// jumps), so the FILTERENDBR analog needs no PLT or LSDA analysis.
//
// Identification needs no ARM-specific entry point: Identify,
// IdentifyBytes and IdentifyBinary dispatch AArch64 images on their ELF
// header, and the report's Arch field says "aarch64".

// BTIBuildConfig is the ARM build configuration.
type BTIBuildConfig = armsynth.Config

// BTIBuildResult is one compiled AArch64 binary with ground truth.
type BTIBuildResult = armsynth.Result

// CompileBTI builds a BTI-enabled AArch64 binary from a program spec.
// The x86-specific spec features (PLT calls, indirect-return sites, C++
// EH, cold splitting) are ignored; BTI placement, direct and tail calls,
// switch tables, and data-referenced functions carry over.
func CompileBTI(spec *ProgramSpec, cfg BTIBuildConfig) (*BTIBuildResult, error) {
	return armsynth.Compile(spec, cfg)
}

// compile-time check that ProgramSpec stays shared between back-ends.
var _ = func() *synth.ProgSpec { return (*ProgramSpec)(nil) }
