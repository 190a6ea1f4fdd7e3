package main

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/funseeker/funseeker/internal/armsynth"
	"github.com/funseeker/funseeker/internal/synth"
)

// testBTIELF compiles one small AArch64/BTI binary once per process.
var testBTIELFOnce = sync.OnceValues(func() ([]byte, error) {
	spec := &synth.ProgSpec{
		Name: "serve_arm",
		Lang: synth.LangC,
		Seed: 11,
		Funcs: []synth.FuncSpec{
			{Name: "main", BodySize: 4, Calls: []int{1}},
			{Name: "helper", Static: true, AddressTaken: true, BodySize: 3},
		},
	}
	res, err := armsynth.Compile(spec, armsynth.Config{Opt: synth.O2})
	if err != nil {
		return nil, err
	}
	return res.Image, nil
})

func testBTIELF(t *testing.T) []byte {
	t.Helper()
	raw, err := testBTIELFOnce()
	if err != nil {
		t.Fatalf("building BTI test binary: %v", err)
	}
	return raw
}

// TestAnalyzeAArch64: an AArch64 upload is accepted on the same
// endpoint as x86, the response names the backend, and the per-arch
// counter labels both architectures.
func TestAnalyzeAArch64(t *testing.T) {
	ts, _ := newTestServer(t, serverConfig{})

	resp, body := postBinary(t, ts.URL+"/v1/analyze?config=4", testBTIELF(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	ar := decodeAnalyze(t, body)
	if ar.Arch != "aarch64" {
		t.Fatalf("arch = %q, want aarch64", ar.Arch)
	}
	if len(ar.Entries) == 0 || ar.Endbrs == 0 {
		t.Fatalf("empty aarch64 analysis: %+v", ar)
	}

	// An x86 upload alongside it, then the exposition must carry one
	// count per architecture label.
	resp, body = postBinary(t, ts.URL+"/v1/analyze", testELF(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("x86 status = %d: %s", resp.StatusCode, body)
	}
	if ar := decodeAnalyze(t, body); ar.Arch != "x86-64" {
		t.Fatalf("x86 arch = %q", ar.Arch)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	out := string(mbody)
	for _, want := range []string{
		`funseekerd_analyze_arch_total{arch="aarch64"} 1`,
		`funseekerd_analyze_arch_total{arch="x86-64"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}
