package core

import (
	"context"
	"slices"
	"testing"

	"github.com/funseeker/funseeker/internal/analysis"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/x86"
)

// TestMergeSupersetEndbrsDedup checks that addresses the linear sweep
// already found are not duplicated by the byte-level scan.
func TestMergeSupersetEndbrsDedup(t *testing.T) {
	endbrs := []uint64{0x1000, 0x1020}
	scanned := []uint64{0x1000, 0x1010, 0x1020}
	got := union(scanned, endbrs)
	want := []uint64{0x1000, 0x1010, 0x1020}
	if !slices.Equal(got, want) {
		t.Fatalf("merge = %#x, want %#x", got, want)
	}
}

// TestMergeSupersetEndbrsSorted checks the result is ascending even when
// scan-only addresses precede every sweep-found end branch.
func TestMergeSupersetEndbrsSorted(t *testing.T) {
	endbrs := []uint64{0x1100, 0x1200}
	scanned := []uint64{0x1000, 0x1180}
	got := union(scanned, endbrs)
	if !slices.IsSorted(got) {
		t.Fatalf("merge not sorted: %#x", got)
	}
	if !slices.Equal(got, []uint64{0x1000, 0x1100, 0x1180, 0x1200}) {
		t.Fatalf("merge = %#x", got)
	}
}

// TestSupersetFindsEndbr32 hides an ENDBR32 (FB final byte) behind inline
// data that desynchronizes the linear sweep and checks the superset scan
// recovers it.
func TestSupersetFindsEndbr32(t *testing.T) {
	text := []byte{
		0xC3,                   // ret
		0x0F,                   // junk byte: desynchronizes the sweep
		0xF3, 0x0F, 0x1E, 0xFB, // endbr32 @ +2
		0xC3, // ret
	}
	bin := &elfx.Binary{Mode: x86.Mode32, Text: text, TextAddr: 0x3000}
	report, err := Identify(bin, Options{SupersetEndbrScan: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(report.Endbrs, 0x3002) {
		t.Fatalf("superset scan missed the ENDBR32 at 0x3002: Endbrs = %#x", report.Endbrs)
	}
}

// TestSupersetStraddlingEncoding places a truncated end-branch encoding
// at the very end of .text; an encoding whose tail would run past the
// section must not match.
func TestSupersetStraddlingEncoding(t *testing.T) {
	text := []byte{
		0xF3, 0x0F, 0x1E, 0xFA, // endbr64 @ 0x4000 (complete)
		0xC3,             // ret
		0xF3, 0x0F, 0x1E, // truncated encoding straddling the end
	}
	bin := &elfx.Binary{Mode: x86.Mode64, Text: text, TextAddr: 0x4000}
	actx := analysis.NewContext(bin)
	scanned := actx.SupersetEndbrs()
	if !slices.Equal(scanned, []uint64{0x4000}) {
		t.Fatalf("scan = %#x, want only 0x4000", scanned)
	}
	report, err := IdentifyCtx(context.Background(), actx, Options{SupersetEndbrScan: true})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(report.Endbrs, 0x4005) {
		t.Fatal("straddling encoding must not produce an end branch")
	}
	if !slices.IsSorted(report.Endbrs) {
		t.Fatalf("Endbrs not sorted: %#x", report.Endbrs)
	}
}

// TestSupersetDedupAgainstSweep runs the full option path on text where
// the sweep and the byte scan find the same end branch, checking it is
// reported once.
func TestSupersetDedupAgainstSweep(t *testing.T) {
	text := []byte{
		0xF3, 0x0F, 0x1E, 0xFA, // endbr64 @ 0x5000 — found by both passes
		0xC3, // ret
	}
	bin := &elfx.Binary{Mode: x86.Mode64, Text: text, TextAddr: 0x5000}
	report, err := Identify(bin, Options{SupersetEndbrScan: true})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range report.Endbrs {
		if e == 0x5000 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("end branch at 0x5000 reported %d times, want once", n)
	}
}
