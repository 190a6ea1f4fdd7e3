package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/engine"
	"github.com/funseeker/funseeker/internal/store"
)

// openTestStore opens a store in a fresh directory, closed when the test
// ends (after the servers registered later).
func openTestStore(t *testing.T, opts store.Options) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// analyzeQueryCases is the query table TestAnalyzeOptionsStrict drives
// through both endpoints and FuzzParseAnalyzeOptions starts from.
var analyzeQueryCases = []struct {
	name       string
	query      string
	wantStatus int
}{
	{"defaults", "", http.StatusOK},
	{"all valid", "?config=2&superset=1&require_cet=0", http.StatusOK},
	{"bool spellings", "?superset=yes&require_cet=false", http.StatusOK},
	{"unknown key", "?supserset=1", http.StatusBadRequest},
	{"config out of range", "?config=9", http.StatusBadRequest},
	{"config not a number", "?config=four", http.StatusBadRequest},
	{"bad bool", "?superset=maybe", http.StatusBadRequest},
	// The ELF header alone picks the backend: arch is not a key.
	{"bad arch", "?arch=x86-64", http.StatusBadRequest},
}

// TestAnalyzeOptionsStrict drives the shared query parser through both
// endpoints that use it: a typo'd or malformed option must be a
// structured 400 on /v1/analyze AND /v1/batch, never a silent analysis
// under different options than the client asked for.
func TestAnalyzeOptionsStrict(t *testing.T) {
	ts, _ := newTestServerEngine(t, engine.Config{Jobs: 2}, serverConfig{})
	raw := testELFs(t, 1)[0]
	archive := tarArchive(t, []tarMember{{"a", raw}})

	endpoints := []struct {
		name, path, contentType string
		body                    []byte
	}{
		{"analyze", "/v1/analyze", "application/octet-stream", raw},
		{"batch", "/v1/batch", "application/x-tar", archive},
	}
	for _, ep := range endpoints {
		for _, tc := range analyzeQueryCases {
			t.Run(ep.name+"/"+tc.name, func(t *testing.T) {
				resp, err := http.Post(ts.URL+ep.path+tc.query, ep.contentType, bytes.NewReader(ep.body))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != tc.wantStatus {
					t.Fatalf("%s%s = %d, want %d (body %s)", ep.path, tc.query, resp.StatusCode, tc.wantStatus, body)
				}
				if tc.wantStatus == http.StatusBadRequest {
					var er errorResponse
					if err := json.Unmarshal(body, &er); err != nil || er.Kind != "bad_request" {
						t.Fatalf("envelope = %s (err %v), want kind bad_request", body, err)
					}
				}
			})
		}
	}
}

// FuzzParseAnalyzeOptions checks the query parser against its contract
// on arbitrary query strings: it never panics, any key other than
// config, superset and require_cet is an error, and an accepted query
// yields exactly the configuration preset it names (4 by default) plus
// exactly the superset and require_cet bits it asks for. A query whose
// keys and values are all well formed must be accepted.
func FuzzParseAnalyzeOptions(f *testing.F) {
	for _, tc := range analyzeQueryCases {
		f.Add(strings.TrimPrefix(tc.query, "?"))
	}
	presets := []core.Options{core.Config1, core.Config2, core.Config3, core.Config4, core.Config5}
	boolean := func(v string) (val, ok bool) {
		switch v {
		case "", "0", "false", "no":
			return false, true
		case "1", "true", "yes":
			return true, true
		}
		return false, false
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		q, _ := url.ParseQuery(rawQuery) // what r.URL.Query() hands the handlers
		opts, configN, err := parseAnalyzeOptions(q)

		valid := true
		for key := range q {
			if key != "config" && key != "superset" && key != "require_cet" {
				if err == nil {
					t.Fatalf("%q: unknown key %q accepted", rawQuery, key)
				}
				valid = false
			}
		}
		wantN := 4
		if v := q.Get("config"); v != "" {
			n, convErr := strconv.Atoi(v)
			if convErr != nil || n < 1 || n > 5 {
				valid = false
			}
			wantN = n
		}
		superset, supersetOK := boolean(q.Get("superset"))
		requireCET, requireOK := boolean(q.Get("require_cet"))
		valid = valid && supersetOK && requireOK
		if !valid {
			if err == nil {
				t.Fatalf("%q: malformed query accepted as %+v", rawQuery, opts)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q: well-formed query rejected: %v", rawQuery, err)
		}
		want := presets[wantN-1]
		want.SupersetEndbrScan = superset
		want.RequireCET = requireCET
		if configN != wantN || opts != want {
			t.Fatalf("%q: got config %d %+v, want config %d %+v", rawQuery, configN, opts, wantN, want)
		}
	})
}

// TestResultTransferRoundTrip is the replica-transfer path end to end,
// exactly as funseeker-lb drives it: node A computes a result and
// exposes it under its store key; the raw value is copied to node B
// with PUT /v1/result; B then serves the same binary warm — from its
// caches, with zero fresh analyses — and lists the key in /v1/keys.
func TestResultTransferRoundTrip(t *testing.T) {
	raw := testELFs(t, 1)[0]
	tsA, _ := newTestServerEngine(t, engine.Config{Jobs: 2, Store: openTestStore(t, store.Options{})}, serverConfig{})
	tsB, engB := newTestServerEngine(t, engine.Config{Jobs: 2, Store: openTestStore(t, store.Options{})}, serverConfig{})

	// Node A computes; the response names the stored result.
	resp, body := postBinary(t, tsA.URL+"/v1/analyze", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze on A = %d, body %s", resp.StatusCode, body)
	}
	key := resp.Header.Get(storeKeyHeader)
	if len(key) != 68 { // 34 key bytes, hex
		t.Fatalf("%s = %q, want 68 hex chars", storeKeyHeader, key)
	}

	// Fetch the stored value from A.
	vresp, err := http.Get(tsA.URL + "/v1/result?key=" + key)
	if err != nil {
		t.Fatal(err)
	}
	val, _ := io.ReadAll(vresp.Body)
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK || len(val) == 0 {
		t.Fatalf("GET /v1/result on A = %d (%d bytes)", vresp.StatusCode, len(val))
	}

	// A key nobody stored is a clean 404, not an error.
	missing := strings.Repeat("ab", 34)
	mresp, err := http.Get(tsA.URL + "/v1/result?key=" + missing)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing key = %d, want 404", mresp.StatusCode)
	}

	// Install it on B.
	preq, err := http.NewRequest(http.MethodPut, tsB.URL+"/v1/result?key="+key, bytes.NewReader(val))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /v1/result on B = %d, body %s", presp.StatusCode, pbody)
	}

	// Installing under a mislabeled key must be refused — that's the
	// poisoning guard.
	wreq, _ := http.NewRequest(http.MethodPut, tsB.URL+"/v1/result?key="+missing, bytes.NewReader(val))
	wresp, err := http.DefaultClient.Do(wreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, wresp.Body)
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT under wrong key = %d, want 400", wresp.StatusCode)
	}

	// B lists the key.
	kresp, err := http.Get(tsB.URL + "/v1/keys")
	if err != nil {
		t.Fatal(err)
	}
	var kr keysResponse
	if err := json.NewDecoder(kresp.Body).Decode(&kr); err != nil {
		t.Fatal(err)
	}
	kresp.Body.Close()
	if kr.Count != 1 || len(kr.Keys) != 1 || kr.Keys[0] != key {
		t.Fatalf("/v1/keys on B = %+v, want exactly %q", kr, key)
	}

	// B serves the binary warm: no fresh analysis ran.
	resp, body = postBinary(t, tsB.URL+"/v1/analyze", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze on B = %d, body %s", resp.StatusCode, body)
	}
	ar := decodeAnalyze(t, body)
	if ar.Cached == false {
		t.Fatalf("B recomputed the transferred result (cached = %v)", ar.Cached)
	}
	if resp.Header.Get(storeKeyHeader) != key {
		t.Fatalf("B's store key header = %q, want %q", resp.Header.Get(storeKeyHeader), key)
	}
	if st := engB.Stats(); st.Engine.Analyzed != 0 || st.Store.Injected != 1 {
		t.Fatalf("B stats analyzed=%d injected=%d, want 0/1", st.Engine.Analyzed, st.Store.Injected)
	}
}

// TestAdminCompactEndpoint superseded-key garbage is reclaimable over
// HTTP: re-injecting a key twice leaves a stale record behind, and
// POST /v1/admin/compact rewrites it away without losing the live one.
func TestAdminCompactEndpoint(t *testing.T) {
	raw := testELFs(t, 1)[0]
	// Tiny segments so the records land in cold segments Compact can
	// touch; no background compactor.
	tsA, _ := newTestServerEngine(t, engine.Config{
		Jobs: 2, Store: openTestStore(t, store.Options{SegmentBytes: 256}),
	}, serverConfig{})

	resp, body := postBinary(t, tsA.URL+"/v1/analyze", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze = %d, body %s", resp.StatusCode, body)
	}
	key := resp.Header.Get(storeKeyHeader)
	vresp, err := http.Get(tsA.URL + "/v1/result?key=" + key)
	if err != nil {
		t.Fatal(err)
	}
	val, _ := io.ReadAll(vresp.Body)
	vresp.Body.Close()

	// Re-install the same key a few times: same live set, growing garbage.
	for i := 0; i < 4; i++ {
		preq, _ := http.NewRequest(http.MethodPut, tsA.URL+"/v1/result?key="+key, bytes.NewReader(val))
		presp, err := http.DefaultClient.Do(preq)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, presp.Body)
		presp.Body.Close()
		if presp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %d = %d", i, presp.StatusCode)
		}
	}

	cresp, err := http.Post(tsA.URL+"/v1/admin/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr store.CompactResult
	if err := json.NewDecoder(cresp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("compact = %d", cresp.StatusCode)
	}
	if cr.ReclaimedBytes <= 0 {
		t.Fatalf("compact reclaimed %d bytes, want > 0 (result %+v)", cr.ReclaimedBytes, cr)
	}

	// The live result is still served.
	vresp2, err := http.Get(tsA.URL + "/v1/result?key=" + key)
	if err != nil {
		t.Fatal(err)
	}
	val2, _ := io.ReadAll(vresp2.Body)
	vresp2.Body.Close()
	if vresp2.StatusCode != http.StatusOK || !bytes.Equal(val, val2) {
		t.Fatalf("post-compact GET = %d, value match %v", vresp2.StatusCode, bytes.Equal(val, val2))
	}
}

// TestReplicaEndpointsWithoutStore: a storeless node answers the whole
// replica surface with 404 kind no_store — the router treats it as
// having nothing, not as broken.
func TestReplicaEndpointsWithoutStore(t *testing.T) {
	ts, _ := newTestServerEngine(t, engine.Config{Jobs: 1}, serverConfig{})
	key := strings.Repeat("ab", 34)

	check := func(method, path string, body io.Reader) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		rbody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s = %d, want 404", method, path, resp.StatusCode)
		}
		var er errorResponse
		if err := json.Unmarshal(rbody, &er); err != nil || er.Kind != "no_store" {
			t.Fatalf("%s %s envelope = %s, want kind no_store", method, path, rbody)
		}
	}
	check(http.MethodGet, "/v1/result?key="+key, nil)
	check(http.MethodPut, "/v1/result?key="+key, strings.NewReader("{}"))
	check(http.MethodGet, "/v1/keys", nil)
	check(http.MethodPost, "/v1/admin/compact", nil)
}

// TestPutResultRefusesV1Record: a value in the version-1 store format,
// which kept the sets E, C, J and J′ in full, is a 400 naming the
// version; nothing is stored.
func TestPutResultRefusesV1Record(t *testing.T) {
	raw := testELFs(t, 1)[0]
	ts, eng := newTestServerEngine(t, engine.Config{Jobs: 2, Store: openTestStore(t, store.Options{})}, serverConfig{})
	bin, err := elfx.Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Identify(bin, core.Config4)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	v1, err := json.Marshal(map[string]any{
		"v": 1, "arch": rep.Arch, "entries": rep.Entries,
		"endbrs": rep.Endbrs, "call_targets": rep.CallTargets, "jump_targets": rep.JumpTargets,
		"sha256": hex.EncodeToString(sum[:]), "binary_bytes": len(raw),
	})
	if err != nil {
		t.Fatal(err)
	}
	key := resultKey(t, raw)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/result?key="+key, bytes.NewReader(v1))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "version 1") {
		t.Fatalf("PUT of a version-1 value = %d %s, want 400 naming the version", resp.StatusCode, body)
	}
	if st := eng.Stats(); st.Store.Injected != 0 {
		t.Fatalf("injected = %d, want 0", st.Store.Injected)
	}
}

// resultKey returns the store key raw's configuration-④ result lives
// under, read off a storeless server's analyze header.
func resultKey(t *testing.T, raw []byte) string {
	t.Helper()
	ts, _ := newTestServer(t, serverConfig{})
	resp, body := postBinary(t, ts.URL+"/v1/analyze", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze = %d: %s", resp.StatusCode, body)
	}
	return resp.Header.Get(storeKeyHeader)
}

// TestStatsAnalysisKeys: the engine.analysis block of /v1/stats speaks
// the document's language — snake_case stage keys and nanosecond times —
// like every other block.
func TestStatsAnalysisKeys(t *testing.T) {
	ts, _ := newTestServer(t, serverConfig{})
	if resp, body := postBinary(t, ts.URL+"/v1/analyze", testELF(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze = %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Engine struct {
			Analysis map[string]any `json:"analysis"`
		} `json:"engine"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	a := doc.Engine.Analysis
	want := []string{"sweep", "eh_parse", "landing_pad", "fde_index", "superset", "filter", "tail_call", "sweep_shards", "stitch_retries"}
	if len(a) != len(want) {
		t.Fatalf("engine.analysis keys = %v, want %v", mapKeys(a), want)
	}
	for _, k := range want {
		if _, ok := a[k]; !ok {
			t.Fatalf("engine.analysis has no %q: keys %v", k, mapKeys(a))
		}
	}
	sweep, _ := a["sweep"].(map[string]any)
	if len(sweep) != 3 || sweep["computes"] != float64(1) || sweep["hits"] == nil || sweep["time_ns"] == nil {
		t.Fatalf("engine.analysis.sweep = %v, want computes 1, hits, time_ns", sweep)
	}
}

func mapKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
