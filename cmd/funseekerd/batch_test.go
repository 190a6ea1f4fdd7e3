package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/funseeker/funseeker/internal/corpus"
	"github.com/funseeker/funseeker/internal/engine"
	"github.com/funseeker/funseeker/internal/obs"
	"github.com/funseeker/funseeker/internal/store"
	"github.com/funseeker/funseeker/internal/synth"
	"github.com/funseeker/funseeker/internal/x86"
)

// testELFsOnce compiles a small pool of distinct CET binaries once per
// process; tests slice what they need.
var testELFsOnce = sync.OnceValues(func() ([][]byte, error) {
	specs := corpus.Generate(corpus.Coreutils, corpus.Options{Scale: 0.1, Seed: 41, Programs: 4})
	var out [][]byte
	for _, spec := range specs {
		res, err := synth.Compile(spec, synth.Config{Compiler: synth.GCC, Mode: x86.Mode64, Opt: synth.O2})
		if err != nil {
			return nil, err
		}
		out = append(out, res.Stripped)
	}
	if len(out) < 4 {
		return nil, fmt.Errorf("corpus generated %d programs, want 4", len(out))
	}
	return out, nil
})

func testELFs(t *testing.T, n int) [][]byte {
	t.Helper()
	all, err := testELFsOnce()
	if err != nil {
		t.Fatalf("building test binaries: %v", err)
	}
	if n > len(all) {
		t.Fatalf("test pool has %d binaries, want %d", len(all), n)
	}
	return all[:n]
}

// newTestServerEngine is newTestServer with control over the engine
// configuration (jobs width, persistent store).
func newTestServerEngine(t *testing.T, engCfg engine.Config, cfg serverConfig) (*httptest.Server, *engine.Engine) {
	t.Helper()
	if cfg.maxBodyBytes == 0 {
		cfg.maxBodyBytes = 64 << 20
	}
	if cfg.registry == nil {
		cfg.registry = obs.NewRegistry()
	}
	engCfg.Registry = cfg.registry
	eng, err := engine.New(engCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	ts := httptest.NewServer(newServer(eng, cfg).handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

// tarMember is one archive entry for the test builders.
type tarMember struct {
	name string
	data []byte
}

func tarArchive(t *testing.T, members []tarMember) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, m := range members {
		if err := tw.WriteHeader(&tar.Header{Name: m.name, Mode: 0o644, Size: int64(len(m.data))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(m.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postBatch posts body as a tar batch and returns the decoded NDJSON
// stream: the per-member records and the trailing summary.
func postBatch(t *testing.T, url string, body []byte) ([]batchRecord, batchSummary, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/x-tar", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch status = %d, body %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q, want application/x-ndjson", ct)
	}
	return decodeNDJSON(t, resp.Body), batchSummaryOf(t, resp), resp
}

// decodeNDJSON splits the stream into member records, stashing the
// summary on the response via batchSummaryOf's package-level capture.
var lastSummary batchSummary

func decodeNDJSON(t *testing.T, r io.Reader) []batchRecord {
	t.Helper()
	var recs []batchRecord
	lastSummary = batchSummary{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var probe struct {
			Summary bool `json:"summary"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Summary {
			if err := json.Unmarshal(line, &lastSummary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var rec batchRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func batchSummaryOf(t *testing.T, _ *http.Response) batchSummary {
	t.Helper()
	return lastSummary
}

// TestBatchTarRoundTrip: a mixed archive — four distinct ELFs, one
// duplicate, one junk member — comes back as six in-order records with
// the junk isolated to its own error record, plus an accurate summary.
func TestBatchTarRoundTrip(t *testing.T) {
	ts, eng := newTestServerEngine(t, engine.Config{Jobs: 2}, serverConfig{})
	bins := testELFs(t, 4)
	members := []tarMember{
		{"bin/a", bins[0]},
		{"bin/b", bins[1]},
		{"bin/junk", []byte("this is not an ELF image at all")},
		{"bin/c", bins[2]},
		{"bin/a-again", bins[0]},
		{"bin/d", bins[3]},
	}
	recs, sum, _ := postBatch(t, ts.URL, tarArchive(t, members))

	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	for i, rec := range recs {
		if rec.Index != i {
			t.Fatalf("record %d carries index %d — stream out of order", i, rec.Index)
		}
		if rec.Name != members[i].name {
			t.Fatalf("record %d name %q, want %q", i, rec.Name, members[i].name)
		}
	}
	if recs[2].Error == "" || recs[2].Kind != "not_elf" || recs[2].Result != nil {
		t.Fatalf("junk member record = %+v, want an isolated not_elf error", recs[2])
	}
	for _, i := range []int{0, 1, 3, 4, 5} {
		if recs[i].Result == nil || recs[i].Error != "" {
			t.Fatalf("member %d record = %+v, want a result", i, recs[i])
		}
		if len(recs[i].Result.Entries) == 0 {
			t.Fatalf("member %d: empty entries", i)
		}
	}
	// The duplicate pair shares one cold run: exactly one of the two is
	// fresh, the other served by a fast path (lru or coalesced —
	// whichever entered the engine first leads, which the scheduler
	// decides).
	aCold := recs[0].Result.Cached == false
	dupCold := recs[4].Result.Cached == false
	if aCold == dupCold {
		t.Fatalf("duplicate pair cached = %v / %v, want exactly one cold run",
			recs[0].Result.Cached, recs[4].Result.Cached)
	}
	if sum.Items != 6 || sum.OK != 5 || sum.Errors != 1 || sum.Truncated || sum.Canceled {
		t.Fatalf("summary = %+v, want 6 items / 5 ok / 1 error, clean end", sum)
	}
	st := eng.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after batch", st.InFlight)
	}
	if st.Analyzed != 4 {
		t.Fatalf("analyzed = %d, want one cold run per distinct binary", st.Analyzed)
	}
}

// TestBatchMultipart: the same stream over a multipart form upload.
func TestBatchMultipart(t *testing.T) {
	ts, _ := newTestServerEngine(t, engine.Config{Jobs: 2}, serverConfig{})
	bins := testELFs(t, 2)

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i, raw := range bins {
		fw, err := mw.CreateFormFile("binary", fmt.Sprintf("prog-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(raw)
	}
	mw.WriteField("note", "not a file, skipped")
	mw.Close()

	resp, err := http.Post(ts.URL+"/v1/batch", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	recs := decodeNDJSON(t, resp.Body)
	sum := lastSummary
	if len(recs) != 2 || sum.OK != 2 || sum.Errors != 0 {
		t.Fatalf("multipart batch: %d records, summary %+v", len(recs), sum)
	}
	if recs[0].Name != "prog-0" || recs[1].Name != "prog-1" {
		t.Fatalf("names = %q, %q", recs[0].Name, recs[1].Name)
	}
}

// TestBatchCorruptArchiveFraming: a valid member followed by framing
// garbage yields the valid member's result, one "archive" error
// record, and a summary marked truncated — the handler neither aborts
// the stream on the first sign of damage nor pretends it read it all.
func TestBatchCorruptArchiveFraming(t *testing.T) {
	ts, _ := newTestServerEngine(t, engine.Config{Jobs: 2}, serverConfig{})
	raw := testELFs(t, 1)[0]

	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	if err := tw.WriteHeader(&tar.Header{Name: "good", Mode: 0o644, Size: int64(len(raw))}); err != nil {
		t.Fatal(err)
	}
	tw.Write(raw)
	if err := tw.Flush(); err != nil { // pad to the block boundary, no end-of-archive trailer
		t.Fatal(err)
	}
	buf.Write(bytes.Repeat([]byte{0xFF}, 1024)) // garbage where the next header should be

	recs, sum, _ := postBatch(t, ts.URL, buf.Bytes())
	if len(recs) != 2 {
		t.Fatalf("got %d records, want good + archive-error", len(recs))
	}
	if recs[0].Result == nil || recs[0].Name != "good" {
		t.Fatalf("first record = %+v, want the valid member's result", recs[0])
	}
	if recs[1].Kind != "archive" || recs[1].Error == "" {
		t.Fatalf("second record = %+v, want an archive framing error", recs[1])
	}
	if !sum.Truncated || sum.OK != 1 || sum.Errors != 1 {
		t.Fatalf("summary = %+v, want truncated with 1 ok / 1 error", sum)
	}
}

// TestBatchClientDisconnectNoLeak is the chaos case: the client walks
// away mid-stream. The handler must cancel what's in flight and fully
// unwind — no stuck goroutines, no in-flight analyses, and the engine
// counter-pinning invariant intact afterwards.
func TestBatchClientDisconnectNoLeak(t *testing.T) {
	ts, eng := newTestServerEngine(t, engine.Config{Jobs: 1, CacheBytes: -1}, serverConfig{})
	bins := testELFs(t, 4)
	baseline := runtime.NumGoroutine()

	// Stream the archive through a pipe we never finish, so the batch
	// is genuinely mid-flight when the context dies.
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-tar")

	go func() {
		tw := tar.NewWriter(pw)
		for i, raw := range bins {
			if err := tw.WriteHeader(&tar.Header{Name: fmt.Sprintf("bin-%d", i), Mode: 0o644, Size: int64(len(raw))}); err != nil {
				return
			}
			if _, err := tw.Write(raw); err != nil {
				return
			}
			tw.Flush()
		}
		// ...and then stall: never Close, never EOF.
	}()

	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one record to prove the stream was live, then vanish.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first record: %v", err)
	}
	cancel()
	resp.Body.Close()
	pw.CloseWithError(context.Canceled)

	// The server side must quiesce: no in-flight work, no leaked
	// goroutines (poll — unwinding is asynchronous).
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := eng.Stats()
		if st.InFlight == 0 && runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak after disconnect: in-flight %d, goroutines %d (baseline %d)",
				st.InFlight, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := eng.Stats()
	sum := st.CacheHits + st.StoreHits + st.CacheMisses + st.Coalesced + st.Canceled + st.Failures
	if sum != st.Requests {
		t.Fatalf("counter pinning broken after disconnect: sum %d != requests %d", sum, st.Requests)
	}
}

// TestShedRetryAfter: with a 1ns queue-wait bound (cumulative window),
// the first cold analysis records a real queue wait and every later
// request — single-shot or batch — is refused with 429 + Retry-After.
func TestShedRetryAfter(t *testing.T) {
	reg := obs.NewRegistry()
	ts, _ := newTestServerEngine(t,
		engine.Config{Jobs: 1, ShedQueueP99: time.Nanosecond, ShedWindow: -1},
		serverConfig{registry: reg})
	raw := testELFs(t, 1)[0]

	// Histogram empty: the first request is admitted and seeds it.
	resp, _ := postBinary(t, ts.URL+"/v1/analyze", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming request status = %d", resp.StatusCode)
	}

	resp, body := postBinary(t, ts.URL+"/v1/analyze", raw)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 under saturation", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive back-off", ra)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Kind != "overloaded" {
		t.Fatalf("shed envelope = %s (err %v), want kind overloaded", body, err)
	}

	// Batches are refused at the door too.
	resp2, err := http.Post(ts.URL+"/v1/batch", "application/x-tar",
		bytes.NewReader(tarArchive(t, []tarMember{{"a", raw}})))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch status = %d, want 429", resp2.StatusCode)
	}

	// The refusals are visible at the scrape and counted as "shed".
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mbody)
	if !strings.Contains(text, "funseekerd_shed_total 2") {
		t.Fatalf("/metrics missing shed counter:\n%s", grepLines(text, "shed"))
	}
	if !strings.Contains(text, `funseekerd_http_requests_total{kind="shed"} 2`) {
		t.Fatalf("/metrics missing shed request kind:\n%s", grepLines(text, "requests_total"))
	}
}

// TestBatchStoreTierVisible: a batch against a store-backed engine,
// then the same batch after a "restart" (new engine + server over the
// same store dir) — every record comes back cached:"store", and the
// stats/metrics surfaces account the store tier separately from the
// LRU.
func TestBatchStoreTierVisible(t *testing.T) {
	dir := t.TempDir()
	bins := testELFs(t, 3)
	archive := tarArchive(t, []tarMember{{"a", bins[0]}, {"b", bins[1]}, {"c", bins[2]}})

	open := func() (*httptest.Server, *engine.Engine, *store.Store) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		ts, eng := newTestServerEngine(t, engine.Config{Jobs: 2, Store: st}, serverConfig{})
		return ts, eng, st
	}

	ts1, _, _ := open()
	recs, sum, _ := postBatch(t, ts1.URL, archive)
	if sum.OK != 3 {
		t.Fatalf("first pass summary = %+v", sum)
	}
	for _, rec := range recs {
		if rec.Result.Cached != false {
			t.Fatalf("first pass record cached = %v, want cold", rec.Result.Cached)
		}
	}
	ts1.Close()

	ts2, _, _ := open()
	recs, sum, _ = postBatch(t, ts2.URL, archive)
	if sum.OK != 3 {
		t.Fatalf("second pass summary = %+v", sum)
	}
	for i, rec := range recs {
		if rec.Result.Cached != "store" {
			t.Fatalf("record %d after restart cached = %v, want \"store\"", i, rec.Result.Cached)
		}
	}

	// /v1/stats separates the tiers.
	resp, err := http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats engine.StatsDoc
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Store == nil {
		t.Fatal("/v1/stats has no store block")
	}
	if stats.Store.Hits != 3 || stats.Cache.Hits != 0 {
		t.Fatalf("/v1/stats store hits=%d cache hits=%d, want 3/0", stats.Store.Hits, stats.Cache.Hits)
	}
	if stats.Store.Records != 3 {
		t.Fatalf("/v1/stats store block = %+v, want 3 records", stats.Store)
	}

	// /metrics exposes the tier as its own series.
	mresp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(mbody)
	for _, want := range []string{
		"funseeker_engine_store_hits_total 3",
		"funseeker_engine_store_records 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, grepLines(text, "store"))
		}
	}
}

// TestBatchOversizedMember: a member over the per-binary cap becomes a
// too_large error record; its neighbors still analyze.
func TestBatchOversizedMember(t *testing.T) {
	ts, _ := newTestServerEngine(t, engine.Config{Jobs: 2}, serverConfig{maxBodyBytes: 1 << 20})
	raw := testELFs(t, 1)[0]
	big := bytes.Repeat([]byte{0x90}, (1<<20)+1)
	recs, sum, _ := postBatch(t, ts.URL, tarArchive(t, []tarMember{
		{"fine", raw}, {"huge", big}, {"fine2", raw},
	}))
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[1].Kind != "too_large" {
		t.Fatalf("oversized record = %+v, want too_large", recs[1])
	}
	if recs[0].Result == nil || recs[2].Result == nil {
		t.Fatal("neighbors of the oversized member did not analyze")
	}
	if sum.OK != 2 || sum.Errors != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestBatchOversizedMemberNotBuffered: a member 64× over the
// per-binary cap is rejected without being read into memory — by its
// tar header, or after one byte past the cap of a multipart part — so
// the request allocates far less than the member's size, and the
// records are the same as for any oversized member.
func TestBatchOversizedMemberNotBuffered(t *testing.T) {
	const maxBody = 256 << 10
	ts, _ := newTestServerEngine(t, engine.Config{Jobs: 2},
		serverConfig{maxBodyBytes: maxBody, maxBatchBytes: 64 << 20})
	raw := testELFs(t, 1)[0]
	if len(raw) > maxBody {
		t.Fatalf("test ELF is %d bytes, over the %d-byte cap", len(raw), maxBody)
	}
	big := bytes.Repeat([]byte{0x90}, 64*maxBody)

	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	for _, m := range []tarMember{{"fine", raw}, {"huge", big}, {"fine2", raw}} {
		fw, err := mw.CreateFormFile("binary", m.name)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(m.data)
	}
	mw.Close()

	for _, tc := range []struct {
		name, contentType string
		body              []byte
	}{
		{"tar", "application/x-tar", tarArchive(t, []tarMember{{"fine", raw}, {"huge", big}, {"fine2", raw}})},
		{"multipart", mw.FormDataContentType(), form.Bytes()},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		resp, err := http.Post(ts.URL+"/v1/batch", tc.contentType, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		recs := decodeNDJSON(t, resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)

		if len(recs) != 3 || recs[1].Name != "huge" || recs[1].Kind != "too_large" {
			t.Fatalf("%s: records %+v, want the middle one too_large", tc.name, recs)
		}
		if recs[0].Result == nil || recs[2].Result == nil {
			t.Fatalf("%s: neighbors of the oversized member did not analyze", tc.name)
		}
		if sum := lastSummary; sum.Items != 3 || sum.OK != 2 || sum.Errors != 1 || sum.Truncated {
			t.Fatalf("%s: summary = %+v", tc.name, sum)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(big))/4 {
			t.Errorf("%s: request allocated %d bytes for a %d-byte oversized member", tc.name, alloc, len(big))
		}
	}
}

// TestBatchTruncatedOversizedMember: an oversized member whose data is
// cut short is archive damage, not a too_large member — the stream
// carries the members before it and the one "archive" record, exactly
// as when such a member is read whole, in tar and multipart alike.
func TestBatchTruncatedOversizedMember(t *testing.T) {
	const maxBody = 64 << 10
	ts, _ := newTestServerEngine(t, engine.Config{Jobs: 2}, serverConfig{maxBodyBytes: maxBody})
	raw := testELFs(t, 1)[0]
	big := bytes.Repeat([]byte{0x90}, 4*maxBody)

	var tarBody bytes.Buffer
	tw := tar.NewWriter(&tarBody)
	for _, m := range []tarMember{{"fine", raw}, {"huge", big}} {
		if err := tw.WriteHeader(&tar.Header{Name: m.name, Mode: 0o644, Size: int64(len(m.data))}); err != nil {
			t.Fatal(err)
		}
		tw.Write(m.data)
	}
	// No Close: the archive ends half-way through the huge member's data.
	tarCut := tarBody.Bytes()[:tarBody.Len()-len(big)/2]

	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	for _, m := range []tarMember{{"fine", raw}, {"huge", big}} {
		fw, err := mw.CreateFormFile("binary", m.name)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(m.data)
	}
	// No closing boundary: the body ends inside the huge part.
	formCut := form.Bytes()[:form.Len()-len(big)/2]

	for _, tc := range []struct {
		name, contentType string
		body              []byte
	}{
		{"tar", "application/x-tar", tarCut},
		{"multipart", mw.FormDataContentType(), formCut},
	} {
		resp, err := http.Post(ts.URL+"/v1/batch", tc.contentType, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		recs := decodeNDJSON(t, resp.Body)
		resp.Body.Close()
		if len(recs) != 2 || recs[0].Result == nil || recs[0].Name != "fine" {
			t.Fatalf("%s: records %+v, want the fine member's result then the archive error", tc.name, recs)
		}
		if recs[1].Kind != "archive" {
			t.Fatalf("%s: second record = %+v, want an archive framing error", tc.name, recs[1])
		}
		if sum := lastSummary; sum.Items != 2 || sum.OK != 1 || sum.Errors != 1 || !sum.Truncated {
			t.Fatalf("%s: summary = %+v, want truncated with 1 ok / 1 error", tc.name, sum)
		}
	}
}

// grepLines filters text to lines containing needle, for terse failure
// output.
func grepLines(text, needle string) string {
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, needle) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
