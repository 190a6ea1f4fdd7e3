package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// fakeBackend is a minimal funseekerd stand-in that records which
// bodies it saw and answers /v1/analyze with a canned JSON carrying
// its own name — enough to observe routing without running analyses.
type fakeBackend struct {
	name string
	ts   *httptest.Server

	mu     sync.Mutex
	bodies []string // SHA-256-free: the raw body text, tests use short tags
	downMu sync.Mutex
	down   bool
}

func newFakeBackend(t *testing.T, name string) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		fb.mu.Lock()
		fb.bodies = append(fb.bodies, string(raw))
		fb.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"backend":%q}`, fb.name)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintf(w, `{"summary":true,"backend":%q}`+"\n", fb.name)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fb.downMu.Lock()
		down := fb.down
		fb.downMu.Unlock()
		if down {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	fb.ts = httptest.NewServer(mux)
	t.Cleanup(fb.ts.Close)
	return fb
}

func (fb *fakeBackend) setDown(down bool) {
	fb.downMu.Lock()
	fb.down = down
	fb.downMu.Unlock()
}

func (fb *fakeBackend) seen() int {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return len(fb.bodies)
}

func newTestRouter(t *testing.T, backends []*fakeBackend, mutate func(*routerConfig)) *httptest.Server {
	t.Helper()
	var urls []string
	for _, fb := range backends {
		urls = append(urls, fb.ts.URL)
	}
	cfg := routerConfig{backends: urls}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := newRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.handler())
	t.Cleanup(ts.Close)
	// Stash for tests that drive health checks directly.
	testRouters[ts] = rt
	return ts
}

var testRouters = map[*httptest.Server]*router{}

func analyzeVia(t *testing.T, url string, body string) (string, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/analyze", "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		Backend string `json:"backend"`
	}
	json.Unmarshal(raw, &out)
	return out.Backend, resp.StatusCode
}

// TestRouteDeterministicAndSharded: the same body always lands on the
// same backend, and many distinct bodies spread across all of them.
func TestRouteDeterministicAndSharded(t *testing.T) {
	backends := []*fakeBackend{
		newFakeBackend(t, "a"), newFakeBackend(t, "b"), newFakeBackend(t, "c"),
	}
	ts := newTestRouter(t, backends, nil)

	owner, status := analyzeVia(t, ts.URL, "binary-zero")
	if status != http.StatusOK || owner == "" {
		t.Fatalf("first route: status %d owner %q", status, owner)
	}
	for i := 0; i < 5; i++ {
		again, _ := analyzeVia(t, ts.URL, "binary-zero")
		if again != owner {
			t.Fatalf("same body routed to %q then %q", owner, again)
		}
	}

	hit := map[string]int{}
	for i := 0; i < 60; i++ {
		b, status := analyzeVia(t, ts.URL, fmt.Sprintf("binary-%d", i))
		if status != http.StatusOK {
			t.Fatalf("route %d: status %d", i, status)
		}
		hit[b]++
	}
	if len(hit) != 3 {
		t.Fatalf("60 distinct bodies used %d backends (%v), want all 3", len(hit), hit)
	}
}

// TestFailoverOnDeadBackend: killing a replica reroutes its keys to a
// ring successor without an error surfacing to the client, and the
// survivors keep their keys (minimal disruption, end to end).
func TestFailoverOnDeadBackend(t *testing.T) {
	backends := []*fakeBackend{
		newFakeBackend(t, "a"), newFakeBackend(t, "b"), newFakeBackend(t, "c"),
	}
	ts := newTestRouter(t, backends, nil)

	byName := map[string]*fakeBackend{}
	for _, fb := range backends {
		byName[fb.name] = fb
	}

	// Map a few keys to owners while everyone is up.
	owners := map[string]string{}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("key-%d", i)
		owner, _ := analyzeVia(t, ts.URL, key)
		owners[key] = owner
	}

	// Kill one replica's listener outright: connection-level failure.
	var victim *fakeBackend
	for _, fb := range backends {
		if fb.name == owners["key-0"] {
			victim = fb
		}
	}
	victim.ts.CloseClientConnections()
	victim.ts.Close()

	for key, prev := range owners {
		got, status := analyzeVia(t, ts.URL, key)
		if status != http.StatusOK {
			t.Fatalf("key %q after kill: status %d", key, status)
		}
		if prev != victim.name && got != prev {
			t.Fatalf("survivor-owned key %q moved %q -> %q", key, prev, got)
		}
		if prev == victim.name && (got == victim.name || got == "") {
			t.Fatalf("victim-owned key %q still answered by %q", key, got)
		}
	}
}

// TestHealthProbeMovesRing: a failing health probe removes the backend
// from the ring; a passing one restores it — and with it, the exact
// original key placement.
func TestHealthProbeMovesRing(t *testing.T) {
	backends := []*fakeBackend{
		newFakeBackend(t, "a"), newFakeBackend(t, "b"), newFakeBackend(t, "c"),
	}
	ts := newTestRouter(t, backends, nil)
	rt := testRouters[ts]

	owners := map[string]string{}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("hp-%d", i)
		owners[key], _ = analyzeVia(t, ts.URL, key)
	}

	backends[1].setDown(true)
	rt.checkHealth()
	if n := rt.ring.Len(); n != 2 {
		t.Fatalf("ring has %d nodes after probe failure, want 2", n)
	}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("hp-%d", i)
		got, status := analyzeVia(t, ts.URL, key)
		if status != http.StatusOK || got == backends[1].name {
			t.Fatalf("key %q routed to downed backend (status %d, got %q)", key, status, got)
		}
	}

	backends[1].setDown(false)
	rt.checkHealth()
	if n := rt.ring.Len(); n != 3 {
		t.Fatalf("ring has %d nodes after recovery, want 3", n)
	}
	for key, prev := range owners {
		got, _ := analyzeVia(t, ts.URL, key)
		if got != prev {
			t.Fatalf("key %q owner %q != original %q after recovery", key, got, prev)
		}
	}

	// /lb/nodes reflects the state.
	resp, err := http.Get(ts.URL + "/lb/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var nodes struct {
		Nodes []struct {
			Backend string `json:"backend"`
			Healthy bool   `json:"healthy"`
		} `json:"nodes"`
		RingNodes []string `json:"ring_nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(nodes.Nodes) != 3 || len(nodes.RingNodes) != 3 {
		t.Fatalf("/lb/nodes = %+v", nodes)
	}
	for _, n := range nodes.Nodes {
		if !n.Healthy {
			t.Fatalf("backend %q still marked unhealthy", n.Backend)
		}
	}
}

// TestBatchRoundRobin: batches spread across healthy replicas and skip
// downed ones.
func TestBatchRoundRobin(t *testing.T) {
	backends := []*fakeBackend{
		newFakeBackend(t, "a"), newFakeBackend(t, "b"),
	}
	ts := newTestRouter(t, backends, nil)
	rt := testRouters[ts]

	post := func() string {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/x-tar", bytes.NewReader([]byte("tar-ish")))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var out struct {
			Backend string `json:"backend"`
		}
		json.Unmarshal(raw, &out)
		return out.Backend
	}
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		seen[post()]++
	}
	if seen["a"] != 3 || seen["b"] != 3 {
		t.Fatalf("round-robin split = %v, want 3/3", seen)
	}

	backends[0].setDown(true)
	rt.checkHealth()
	for i := 0; i < 4; i++ {
		if b := post(); b != "b" {
			t.Fatalf("batch routed to %q with a down", b)
		}
	}
}

// TestNoHealthyBackends: everything down yields 503, counted as
// unrouted.
func TestNoHealthyBackends(t *testing.T) {
	backends := []*fakeBackend{newFakeBackend(t, "a")}
	ts := newTestRouter(t, backends, nil)
	rt := testRouters[ts]

	backends[0].setDown(true)
	rt.checkHealth()
	_, status := analyzeVia(t, ts.URL, "anything")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	resp, _ := http.Post(ts.URL+"/v1/batch", "application/x-tar", strings.NewReader("x"))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch status = %d, want 503", resp.StatusCode)
	}
	if rt.unrouted.Value() != 2 {
		t.Fatalf("unrouted = %d, want 2", rt.unrouted.Value())
	}
}

// TestRouterErrorsAreJSON: the router's own error answers — no healthy
// backend (503) and a body over the limit (413) — carry their
// {"error": ...} body as application/json, not as text/plain.
func TestRouterErrorsAreJSON(t *testing.T) {
	fb := newFakeBackend(t, "a")
	ts := newTestRouter(t, []*fakeBackend{fb}, func(c *routerConfig) { c.maxBodyBytes = 1024 })
	check := func(what string, resp *http.Response, status int, want string) {
		t.Helper()
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Errorf("%s: status = %d, want %d", what, resp.StatusCode, status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", what, ct)
		}
		if string(raw) != want {
			t.Errorf("%s: body = %q, want %q", what, raw, want)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(make([]byte, 1025)))
	if err != nil {
		t.Fatal(err)
	}
	check("oversized analyze", resp, http.StatusRequestEntityTooLarge, `{"error":"body exceeds the 1024-byte limit"}`+"\n")

	fb.setDown(true)
	testRouters[ts].checkHealth()
	for _, path := range []string{"/v1/analyze", "/v1/batch"} {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		check("no healthy backend "+path, resp, http.StatusServiceUnavailable, `{"error":"no healthy backend"}`+"\n")
	}
}

// TestBatchFullDuplexThroughRouter: a batch whose upload is still in
// flight when the first NDJSON record streams back must reach the
// backend intact. The upload is larger than the HTTP/1 server's
// post-response body-drain window (256 KiB), so if the router hop ever
// stops being full duplex, the server's drain races the transport's
// body forwarding and the backend sees a truncated archive.
func TestBatchFullDuplexThroughRouter(t *testing.T) {
	const (
		firstChunk = 64 << 10
		restChunk  = 2 << 20
	)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
			t.Errorf("backend EnableFullDuplex: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fl, _ := w.(http.Flusher)
		buf := make([]byte, 32<<10)
		var total int
		sentFirst := false
		for {
			n, err := r.Body.Read(buf)
			total += n
			// First record goes out while the uploader still holds most
			// of the archive: this is what arms the race at the router.
			if !sentFirst && total > 0 {
				sentFirst = true
				fmt.Fprintln(w, `{"index":0}`)
				fl.Flush()
			}
			if err != nil {
				if err != io.EOF {
					fmt.Fprintf(w, `{"summary":true,"got_bytes":%d,"read_err":%q}`+"\n", total, err)
					return
				}
				break
			}
		}
		fmt.Fprintf(w, `{"summary":true,"got_bytes":%d}`+"\n", total)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "{}")
	})
	backend := httptest.NewServer(mux)
	t.Cleanup(backend.Close)

	rt, err := newRouter(routerConfig{backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.handler())
	t.Cleanup(ts.Close)

	pr, pw := io.Pipe()
	gotFirst := make(chan struct{})
	writeErr := make(chan error, 1)
	go func() {
		if _, err := pw.Write(bytes.Repeat([]byte{0xAB}, firstChunk)); err != nil {
			writeErr <- err
			return
		}
		// Hold the rest of the upload until the first record has come
		// back through the router, so the stream is genuinely duplex.
		<-gotFirst
		if _, err := pw.Write(bytes.Repeat([]byte{0xCD}, restChunk)); err != nil {
			writeErr <- err
			return
		}
		writeErr <- pw.Close()
	}()

	// A deadline, not a hang: the known failure mode here is a deadlock
	// (the server's body drain waits on an upload gated on the first
	// record it is blocking), so a regression must fail, not stall.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-tar")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("batch request: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var summary struct {
		Summary  bool   `json:"summary"`
		GotBytes int    `json:"got_bytes"`
		ReadErr  string `json:"read_err"`
	}
	sawSummary := false
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Summary bool `json:"summary"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Summary {
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
			continue
		}
		// First per-item record: release the rest of the upload.
		select {
		case <-gotFirst:
		default:
			close(gotFirst)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("uploading while stream was open: %v", err)
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary record")
	}
	if summary.ReadErr != "" {
		t.Fatalf("backend body read failed mid-batch: %s (got %d bytes)", summary.ReadErr, summary.GotBytes)
	}
	if want := firstChunk + restChunk; summary.GotBytes != want {
		t.Fatalf("backend saw %d bytes, want %d — upload corrupted across the router hop", summary.GotBytes, want)
	}
}

// TestBatchRelayAnswersExpectContinue: the router's /v1/batch relay
// answers "Expect: 100-continue" at once, as funseekerd does, so curl's
// default upload of a body over 1 MiB does not wait out its timeout; the
// upload then reaches the backend.
func TestBatchRelayAnswersExpectContinue(t *testing.T) {
	fb := newFakeBackend(t, "a")
	ts := newTestRouter(t, []*fakeBackend{fb}, nil)
	body := bytes.Repeat([]byte{0xAB}, 2<<20)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/batch HTTP/1.1\r\nHost: lb\r\nContent-Type: application/x-tar\r\n"+
		"Content-Length: %d\r\nExpect: 100-continue\r\nConnection: close\r\n\r\n", len(body))
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	if line, err := br.ReadString('\n'); err != nil || line != "HTTP/1.1 100 Continue\r\n" {
		t.Fatalf("first response line %q (%v), want HTTP/1.1 100 Continue within 500 ms", line, err)
	}
	if blank, err := br.ReadString('\n'); err != nil || blank != "\r\n" {
		t.Fatalf("100 Continue followed by %q (%v)", blank, err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	if _, err := conn.Write(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"backend":"a"`) {
		t.Fatalf("status %d, body %s: want the backend's summary relayed", resp.StatusCode, raw)
	}
}

// TestBatchUploaderFailureKeepsBackendHealthy: a client that dies
// mid-upload makes the forward fail, but the failure is the client's —
// the backend must keep its ring slot, or every flaky uploader remaps
// ~1/N of the key space.
func TestBatchUploaderFailureKeepsBackendHealthy(t *testing.T) {
	forwardDone := make(chan error, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		// Read the whole body before answering, so the router's Do is
		// still in flight when the uploader aborts.
		_, err := io.Copy(io.Discard, r.Body)
		forwardDone <- err
		fmt.Fprintln(w, `{"summary":true}`)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "{}")
	})
	backend := httptest.NewServer(mux)
	t.Cleanup(backend.Close)

	rt, err := newRouter(routerConfig{backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.handler())
	t.Cleanup(ts.Close)

	pr, pw := io.Pipe()
	go func() {
		pw.Write(bytes.Repeat([]byte{0x11}, 64<<10))
		pw.CloseWithError(errors.New("uploader crashed"))
	}()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-tar")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		// Depending on timing the router may answer before the client
		// transport notices its own body error; either way the response
		// must not be a success.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("status = %d, want an error for an aborted upload", resp.StatusCode)
		}
	}

	// Wait for the aborted forward to reach the backend, then give the
	// router's error path time to (wrongly) demote it.
	select {
	case <-forwardDone:
	case <-time.After(5 * time.Second):
		t.Fatal("forward never reached the backend")
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if n := rt.ring.Len(); n != 1 {
			t.Fatalf("ring has %d nodes after an uploader failure, want 1 — healthy backend was demoted", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := rt.unrouted.Value(); v != 0 {
		t.Fatalf("unrouted = %d after an uploader failure, want 0", v)
	}

	// And the backend still serves: a clean batch goes straight through.
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-tar", strings.NewReader("ok"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up batch status = %d, want 200", resp.StatusCode)
	}
}

// TestRelayVerbatim: the router relays a backend's status, body, and
// the headers that matter (Retry-After from a shedding replica) without
// rewriting them, and forwards the full binary body. The real
// replicas-behind-router path runs in CI's cluster smoke job.
func TestRelayVerbatim(t *testing.T) {
	raw := realELF(t)

	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/analyze":
			body, _ := io.ReadAll(r.Body)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"error":"overloaded","got_bytes":%d}`, len(body))
		case "/v1/healthz":
			fmt.Fprintln(w, "{}")
		}
	}))
	t.Cleanup(backend.Close)

	rt, err := newRouter(routerConfig{backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want the backend's 429 relayed", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("Retry-After = %q, want relayed 7", resp.Header.Get("Retry-After"))
	}
	var out struct {
		GotBytes int `json:"got_bytes"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.GotBytes != len(raw) {
		t.Fatalf("backend saw %d bytes, want %d (body %s)", out.GotBytes, len(raw), body)
	}
}

// TestAnalyzeForwardsContentType: the router forwards the client's
// Content-Type on /v1/analyze, so a multipart upload gets the backend's
// 400 (funseekerd takes only the raw body) relayed verbatim rather
// than a 422 from the backend parsing the form framing as an image.
func TestAnalyzeForwardsContentType(t *testing.T) {
	const refusal = `{"error":"multipart/form-data is not accepted; send the ELF image as the raw request body"}`
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/analyze" {
			fmt.Fprintln(w, "{}") // health probe
			return
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt == "multipart/form-data" {
			w.WriteHeader(http.StatusBadRequest)
			io.WriteString(w, refusal)
			return
		}
		w.WriteHeader(http.StatusUnprocessableEntity)
		io.WriteString(w, `{"error":"elfx: not an ELF file","kind":"not_elf"}`)
	}))
	t.Cleanup(backend.Close)
	rt, err := newRouter(routerConfig{backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.handler())
	t.Cleanup(ts.Close)

	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	fw, err := mw.CreateFormFile("binary", "prog")
	if err != nil {
		t.Fatal(err)
	}
	fw.Write([]byte("\x7fELF"))
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/analyze", mw.FormDataContentType(), &form)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || string(body) != refusal {
		t.Fatalf("multipart through the router = %d %s, want the backend's 400 %s", resp.StatusCode, body, refusal)
	}
}

// realELF compiles one small CET binary.
var realELFOnce = sync.OnceValues(func() ([]byte, error) {
	specs := corpus.Generate(corpus.Coreutils, corpus.Options{Scale: 0.1, Seed: 3, Programs: 1})
	if len(specs) == 0 {
		return nil, fmt.Errorf("no specs")
	}
	res, err := synth.Compile(specs[0], synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
	if err != nil {
		return nil, err
	}
	return res.Stripped, nil
})

func realELF(t *testing.T) []byte {
	t.Helper()
	raw, err := realELFOnce()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
