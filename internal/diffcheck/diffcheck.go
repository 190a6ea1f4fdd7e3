// Package diffcheck is the differential correctness harness for the
// FunSeeker reproduction: it generates randomized program specifications
// (layered on internal/synth), compiles each into a CET ELF image with
// known ground truth, runs every identifier in the module over the result
// through one shared analysis.Context, and checks a battery of
// cross-tool invariants:
//
//   - compilation, loading, and every identifier run without panicking;
//   - identification through a shared analysis.Context is byte-identical
//     to identification through a private context, and identification of
//     the stripped image matches the unstripped one;
//   - the linear sweep finds exactly the end branches the synthesizer
//     emitted (E == ground-truth end-branch sites);
//   - FILTERENDBR removes exactly the indirect-return and landing-pad
//     sites (E′ ⊆ E, with per-class counts matching ground truth) and
//     never fires a corrupt-metadata warning on well-formed binaries;
//   - the four configurations nest as the algebra says they must
//     (②⊆①, ②⊆③, ④⊆③, ②⊆④) and every reported set is sorted,
//     duplicate-free, and inside .text;
//   - the identified entry set matches the ground truth exactly, modulo
//     the failure classes the paper itself documents: unreferenced
//     (dead) functions and endbr-less tail-only targets may be missed,
//     and .cold/.part fragments may be spuriously reported — nothing
//     else may be;
//   - the records sweep, sequential and sharded at odd worker counts,
//     equals LinearSweep's own loop, and recursive descent stays inside
//     .text;
//   - the shared context really did sweep once and parse .eh_frame at
//     most once (the PR-1 memoization contract).
//
// A failing case can be shrunk with Minimize to a minimal reproducer and
// persisted as a JSON regression spec under testdata/specs/, which the
// package test replays forever after. cmd/diffdrill drives long soak
// runs over seed ranges.
package diffcheck

import (
	"fmt"
	"math/rand"
)

// Violation is one invariant breach found while checking a case.
type Violation struct {
	// Check names the invariant, e.g. "filter-count" or "must-find".
	Check string
	// Detail is a human-readable description with addresses.
	Detail string
}

// String renders "check: detail".
func (v Violation) String() string { return v.Check + ": " + v.Detail }

// CaseResult is the outcome of checking one generated case.
type CaseResult struct {
	// Seed is the generator seed the case came from.
	Seed int64
	// Spec is the generated program specification.
	Spec *ProgSpec
	// Config is the build configuration.
	Config Config
	// Violations lists every invariant breach (empty = clean).
	Violations []Violation
}

// Failed reports whether any invariant was violated.
func (r *CaseResult) Failed() bool { return len(r.Violations) > 0 }

// String summarizes the case for logs.
func (r *CaseResult) String() string {
	if !r.Failed() {
		return fmt.Sprintf("seed %d (%s/%s): ok", r.Seed, r.Spec.Name, r.Config)
	}
	s := fmt.Sprintf("seed %d (%s/%s): %d violation(s)", r.Seed, r.Spec.Name, r.Config, len(r.Violations))
	for _, v := range r.Violations {
		s += "\n  " + v.String()
	}
	return s
}

// CheckSeed generates the case for one seed and checks every invariant.
func CheckSeed(seed int64, opts GenOptions) *CaseResult {
	rng := rand.New(rand.NewSource(seed))
	spec, cfg := GenCase(rng, opts)
	return &CaseResult{
		Seed:       seed,
		Spec:       spec,
		Config:     cfg,
		Violations: CheckSpec(spec, cfg),
	}
}
