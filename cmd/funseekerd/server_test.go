package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/engine"
	"github.com/funseeker/funseeker/internal/obs"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// testELF compiles one small CET binary once per process.
var testELFOnce = sync.OnceValues(func() ([]byte, error) {
	specs := corpus.Generate(corpus.Coreutils, corpus.Options{Scale: 0.1, Seed: 99, Programs: 1})
	if len(specs) == 0 {
		return nil, fmt.Errorf("corpus generated no specs")
	}
	res, err := synth.Compile(specs[0], synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
	if err != nil {
		return nil, err
	}
	return res.Stripped, nil
})

func testELF(t *testing.T) []byte {
	t.Helper()
	raw, err := testELFOnce()
	if err != nil {
		t.Fatalf("building test binary: %v", err)
	}
	return raw
}

// newTestServer spins up an httptest server over a fresh engine, with
// one shared metrics registry spanning both layers (as main wires it).
func newTestServer(t *testing.T, cfg serverConfig) (*httptest.Server, *engine.Engine) {
	t.Helper()
	if cfg.maxBodyBytes == 0 {
		cfg.maxBodyBytes = 64 << 20
	}
	if cfg.registry == nil {
		cfg.registry = obs.NewRegistry()
	}
	eng := engine.New(engine.Config{Jobs: 2, Registry: cfg.registry})
	ts := httptest.NewServer(newServer(eng, cfg).handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

func postBinary(t *testing.T, url string, raw []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func decodeAnalyze(t *testing.T, body []byte) analyzeResponse {
	t.Helper()
	var ar analyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	return ar
}

func TestAnalyzeRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, serverConfig{})
	raw := testELF(t)

	resp, body := postBinary(t, ts.URL+"/v1/analyze", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	ar := decodeAnalyze(t, body)
	if len(ar.Entries) == 0 {
		t.Fatal("no function entries identified")
	}
	if ar.Cached != false {
		t.Fatalf("first request claims to be cached: %v", ar.Cached)
	}
	if len(ar.SHA256) != 64 {
		t.Fatalf("sha256 = %q", ar.SHA256)
	}
	if ar.Config != 4 {
		t.Fatalf("default config = %d, want 4", ar.Config)
	}

	// Identical bytes again: served from the cache, and the stats say so.
	resp, body = postBinary(t, ts.URL+"/v1/analyze", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d, body %s", resp.StatusCode, body)
	}
	ar2 := decodeAnalyze(t, body)
	if ar2.Cached != "lru" {
		t.Fatalf("second identical request cached = %v, want \"lru\"", ar2.Cached)
	}
	if ar2.ElapsedMS <= 0 {
		t.Fatalf("cached elapsed_ms = %v, want the real (nonzero) wait", ar2.ElapsedMS)
	}
	if len(ar2.Entries) != len(ar.Entries) {
		t.Fatalf("cached entries %d != fresh entries %d", len(ar2.Entries), len(ar.Entries))
	}

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st engine.StatsDoc
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if st.V != 2 {
		t.Fatalf("stats version = %d, want 2", st.V)
	}
	if st.Cache.Hits < 1 || st.Cache.Misses != 1 || st.Engine.Analyzed != 1 {
		t.Fatalf("stats = hits %d misses %d analyzed %d, want ≥1/1/1",
			st.Cache.Hits, st.Cache.Misses, st.Engine.Analyzed)
	}
	if st.Engine.Analysis.Sweep.Computes != 1 {
		t.Fatalf("aggregate sweep computes = %d, want 1", st.Engine.Analysis.Sweep.Computes)
	}
	if st.Server == nil || st.Server.UptimeSeconds <= 0 {
		t.Fatalf("server block = %+v", st.Server)
	}
	if st.Shed == nil || st.Shed.Enabled {
		t.Fatalf("shed block = %+v, want present and disabled", st.Shed)
	}

	// Unknown versions — including the retired flat v1 shape — are
	// refused, not silently defaulted.
	for _, v := range []string{"1", "3"} {
		badResp, err := http.Get(ts.URL + "/v1/stats?v=" + v)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Kind string `json:"kind"`
		}
		json.NewDecoder(badResp.Body).Decode(&env)
		badResp.Body.Close()
		if badResp.StatusCode != http.StatusBadRequest || env.Kind != "bad_request" {
			t.Fatalf("?v=%s status = %d kind %q, want 400 bad_request", v, badResp.StatusCode, env.Kind)
		}
	}
}

func TestAnalyzeConfigSelection(t *testing.T) {
	ts, _ := newTestServer(t, serverConfig{})
	raw := testELF(t)

	// Config ① (no filtering, no tail calls) vs ④: both succeed and echo
	// their configuration; ① never reports fewer entries than ④ filters to.
	resp1, body1 := postBinary(t, ts.URL+"/v1/analyze?config=1", raw)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("config=1 status = %d, body %s", resp1.StatusCode, body1)
	}
	ar1 := decodeAnalyze(t, body1)
	if ar1.Config != 1 {
		t.Fatalf("echoed config = %d, want 1", ar1.Config)
	}

	resp4, body4 := postBinary(t, ts.URL+"/v1/analyze?config=4", raw)
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("config=4 status = %d, body %s", resp4.StatusCode, body4)
	}
	ar4 := decodeAnalyze(t, body4)
	if ar4.Config != 4 {
		t.Fatalf("echoed config = %d, want 4", ar4.Config)
	}
	if ar4.Cached != false {
		t.Fatal("config=4 shared config=1's cache entry")
	}

	// Out-of-range configuration is a client error.
	resp, body := postBinary(t, ts.URL+"/v1/analyze?config=9", raw)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("config=9 status = %d, body %s", resp.StatusCode, body)
	}
}

func TestAnalyzeRejectsOversizedBody(t *testing.T) {
	ts, _ := newTestServer(t, serverConfig{maxBodyBytes: 1024})
	raw := testELF(t)
	if len(raw) <= 1024 {
		t.Fatalf("test binary only %d bytes, need >1024", len(raw))
	}

	resp, body := postBinary(t, ts.URL+"/v1/analyze", raw)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, body %s, want 413", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if er.Error == "" {
		t.Fatal("413 without an error message")
	}
}

func TestAnalyzeNotELF(t *testing.T) {
	ts, _ := newTestServer(t, serverConfig{})
	resp, body := postBinary(t, ts.URL+"/v1/analyze", []byte("#!/bin/sh\necho not an elf\n"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, body %s, want 422", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "not_elf" {
		t.Fatalf("kind = %q, want not_elf", er.Kind)
	}
}

// TestAnalyzeTimeout proves the request deadline reaches the sweep: with
// a (deliberately absurd) 1ns budget the analysis is canceled inside the
// engine rather than running to completion.
func TestAnalyzeTimeout(t *testing.T) {
	ts, eng := newTestServer(t, serverConfig{reqTimeout: time.Nanosecond})
	raw := testELF(t)

	resp, body := postBinary(t, ts.URL+"/v1/analyze", raw)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s, want 504", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "deadline" {
		t.Fatalf("kind = %q, want deadline", er.Kind)
	}
	st := eng.Stats()
	if st.Engine.Canceled == 0 {
		t.Fatal("engine canceled counter not incremented")
	}
	if st.Engine.Analyzed != 0 {
		t.Fatalf("timed-out request still analyzed %d binaries", st.Engine.Analyzed)
	}
}

// TestAnalyzeClientCancel exercises mid-request cancellation: the client
// abandons the request and the handler's context unwinds the engine call.
func TestAnalyzeClientCancel(t *testing.T) {
	ts, eng := newTestServer(t, serverConfig{})
	raw := testELF(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("pre-canceled request succeeded")
	}
	if st := eng.Stats(); st.Engine.Analyzed != 0 {
		t.Fatalf("canceled request analyzed %d binaries", st.Engine.Analyzed)
	}
}

// TestMultipartRejected: each endpoint takes one input form, so a
// multipart form upload (curl -F) is a clear 400 naming the accepted
// form, never an analysis of the form's framing.
func TestMultipartRejected(t *testing.T) {
	ts, eng := newTestServer(t, serverConfig{})
	raw := testELF(t)

	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	fw, err := mw.CreateFormFile("binary", "prog")
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(raw)
	mw.Close()

	for path, want := range map[string]string{
		"/v1/analyze": "raw request body",
		"/v1/batch":   "tar stream",
	} {
		resp, err := http.Post(ts.URL+path, mw.FormDataContentType(), bytes.NewReader(form.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, body %s, want 400", path, resp.StatusCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: decoding %q: %v", path, body, err)
		}
		if !strings.Contains(er.Error, "multipart/form-data") || !strings.Contains(er.Error, want) {
			t.Fatalf("%s: error = %q, want it to refuse multipart and name the %s", path, er.Error, want)
		}
	}
	if st := eng.Stats(); st.Engine.Requests != 0 {
		t.Fatalf("multipart uploads reached the engine (%d requests)", st.Engine.Requests)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var st map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["status"] != "ok" {
		t.Fatalf("status = %q", st["status"])
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/analyze status = %d, want 405", resp.StatusCode)
	}
}

// TestMetricsEndpoint drives a few requests and asserts the Prometheus
// exposition carries the acceptance-criteria series: request counters
// by kind, analyze + per-stage histograms, cache counters.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, serverConfig{})
	raw := testELF(t)

	postBinary(t, ts.URL+"/v1/analyze", raw)            // cold
	postBinary(t, ts.URL+"/v1/analyze", raw)            // lru hit
	postBinary(t, ts.URL+"/v1/analyze", []byte("junk")) // 422

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		`funseekerd_http_requests_total{kind="ok"} 2`,
		`funseekerd_http_requests_total{kind="unprocessable"} 1`,
		"funseekerd_http_request_seconds_bucket",
		"funseeker_engine_analyze_seconds_bucket",
		`funseeker_engine_stage_seconds_bucket{stage="sweep"`,
		`funseeker_engine_stage_seconds_bucket{stage="filter"`,
		`funseeker_engine_stage_seconds_bucket{stage="tail-call"`,
		"funseeker_engine_cache_hits_total 1",
		"funseeker_engine_cache_misses_total 1",
		"funseeker_engine_coalesced_total 0",
		// Both cold analyses (the ELF and the junk, which fails only
		// after taking a worker slot) record a queue wait.
		"funseeker_engine_queue_wait_seconds_count 2",
		"funseeker_engine_failures_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRequestIDContract pins the tracing contract: every response
// carries X-Funseeker-Request-Id, error envelopes embed the same ID, a
// well-formed client-supplied ID is adopted, and a hostile one is
// replaced.
func TestRequestIDContract(t *testing.T) {
	ts, _ := newTestServer(t, serverConfig{})

	// Generated ID on a success path.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get(obs.RequestIDHeader)
	if !obs.ValidRequestID(id) {
		t.Fatalf("healthz request ID %q invalid", id)
	}

	// Error envelope embeds the header's ID.
	resp, body := postBinary(t, ts.URL+"/v1/analyze", []byte("junk"))
	hdrID := resp.Header.Get(obs.RequestIDHeader)
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if er.RequestID == "" || er.RequestID != hdrID {
		t.Fatalf("error envelope request_id = %q, header %q; want matching non-empty", er.RequestID, hdrID)
	}

	// A well-formed client ID round-trips.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "client-trace-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "client-trace-42" {
		t.Fatalf("client-supplied ID not adopted: %q", got)
	}

	// A hostile client ID is replaced, not echoed.
	req.Header.Set(obs.RequestIDHeader, "bad id\"with junk")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got == "" || strings.Contains(got, " ") {
		t.Fatalf("hostile ID handling produced %q", got)
	}
}

// TestAccessLogCarriesRequestID asserts the access-log line (and the
// slow-request WARN line) carry the request ID.
func TestAccessLogCarriesRequestID(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(syncWriter{&mu, &buf}, nil))
	ts, _ := newTestServer(t, serverConfig{logger: logger, slowThreshold: time.Nanosecond})

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "log-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "request_id=log-trace-1") {
		t.Fatalf("access log missing request ID:\n%s", out)
	}
	if !strings.Contains(out, "slow request") {
		t.Fatalf("1ns threshold did not trigger a slow-request line:\n%s", out)
	}
}

// syncWriter serializes the test logger against concurrent handlers.
type syncWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestStatusWriterFlushAndUnwrap: the access-log wrapper must not hide
// the underlying Flusher (pprof streaming) or defeat
// http.ResponseController.
func TestStatusWriterFlushAndUnwrap(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, status: http.StatusOK}

	f, ok := any(sw).(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not implement http.Flusher")
	}
	f.Flush()
	if !rec.Flushed {
		t.Fatal("Flush did not reach the underlying writer")
	}

	rec2 := httptest.NewRecorder()
	sw2 := &statusWriter{ResponseWriter: rec2, status: http.StatusOK}
	if err := http.NewResponseController(sw2).Flush(); err != nil {
		t.Fatalf("ResponseController.Flush through Unwrap: %v", err)
	}
	if !rec2.Flushed {
		t.Fatal("ResponseController flush did not reach the underlying writer")
	}

	// A non-Flusher underlying writer must not panic.
	(&statusWriter{ResponseWriter: plainWriter{}}).Flush()
}

// plainWriter is a ResponseWriter with no optional interfaces.
type plainWriter struct{}

func (plainWriter) Header() http.Header         { return http.Header{} }
func (plainWriter) Write(p []byte) (int, error) { return len(p), nil }
func (plainWriter) WriteHeader(int)             {}

// TestDebugHandlerPprof smoke-checks the opt-in debug surface: the
// pprof index responds through the tracing middleware.
func TestDebugHandlerPprof(t *testing.T) {
	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{Jobs: 1, Registry: reg})
	s := newServer(eng, serverConfig{maxBodyBytes: 1 << 20, registry: reg})
	ts := httptest.NewServer(s.debugHandler())
	defer ts.Close()

	for _, path := range []string{"/debug/pprof/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if resp.Header.Get(obs.RequestIDHeader) == "" {
			t.Fatalf("GET %s: no request ID header", path)
		}
	}
}
