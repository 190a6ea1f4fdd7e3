package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"sync"
	"testing"

	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// wireGolden holds the expected answers of TestWireAnswersPinned.
const wireGolden = "testdata/wire.golden.json"

// testSPECOnce compiles one small SPEC-like C++ program twice: with CET
// markers (landing pads, tail calls) and without (the FDE-only workload
// of configuration ⑤, which fuses FDE starts).
var testSPECOnce = sync.OnceValues(func() ([2][]byte, error) {
	var out [2][]byte
	spec := corpus.Generate(corpus.SPEC, corpus.Options{Scale: 0.1, Seed: 7, Programs: 1})[0]
	for i, noCET := range []bool{false, true} {
		res, err := synth.Compile(spec, synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, PIE: true, Opt: synth.O2, NoCET: noCET})
		if err != nil {
			return out, err
		}
		out[i] = res.Stripped
	}
	return out, nil
})

// TestWireAnswersPinned pins the exact answers funseekerd sends: the
// /v1/analyze response for three fixed images (x86-64 at configuration
// ④, an FDE-only image at ⑤, AArch64 at ④) and one /v1/batch record.
// Each is decoded generically, with the timing field dropped, and
// compared with the recorded expectation: keys and values must match;
// key order is free.
func TestWireAnswersPinned(t *testing.T) {
	got := wireAnswers(t)
	gold, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.Unmarshal(gold, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if !reflect.DeepEqual(got[name], w) {
			t.Errorf("%s answers\n%s\nwant\n%s", name, mustJSON(got[name]), mustJSON(w))
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d answers pinned, want %d", len(got), len(want))
	}
}

// wireAnswers collects the pinned answers from two fresh servers, keyed
// by case name.
func wireAnswers(t *testing.T) map[string]any {
	t.Helper()
	spec, err := testSPECOnce()
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, serverConfig{})
	got := map[string]any{}
	for _, c := range []struct {
		name, config string
		raw          []byte
	}{
		{"analyze/x86-64-config4", "4", spec[0]},
		{"analyze/fde-only-config5", "5", spec[1]},
		{"analyze/aarch64-config4", "4", testBTIELF(t)},
	} {
		resp, body := postBinary(t, ts.URL+"/v1/analyze?config="+c.config, c.raw)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, body)
		}
		got[c.name] = decodeWire(t, body)
	}

	// The batch runs on a fresh server so its member is a cold analysis.
	ts2, _ := newTestServer(t, serverConfig{})
	archive := tarArchive(t, []tarMember{{"bin/member", testELF(t)}})
	resp, err := http.Post(ts2.URL+"/v1/batch?config=4", "application/x-tar", bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	rec := decodeWire(t, line)
	if res, ok := rec["result"].(map[string]any); ok {
		delete(res, "elapsed_ms")
	}
	got["batch/record"] = rec
	return got
}

// decodeWire decodes one JSON answer generically and drops elapsed_ms,
// the one field that differs from run to run.
func decodeWire(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	delete(m, "elapsed_ms")
	return m
}

func mustJSON(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}
