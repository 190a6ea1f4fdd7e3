package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// replicaBackend is a funseekerd stand-in with a real (in-memory)
// result store: /v1/analyze writes through and names the key in the
// response header, /v1/result and /v1/keys expose the replica-transfer
// surface, and a compute counter distinguishes warm serves from
// recomputation — the thing warm failover is supposed to prevent.
type replicaBackend struct {
	name string
	ts   *httptest.Server

	mu       sync.Mutex
	store    map[string][]byte
	computes int
	down     bool
}

// fakeStoreKey derives the 34-byte store key funseekerd would: the
// binary's SHA-256 plus two option bytes (fixed here — the tests always
// analyze with default options).
func fakeStoreKey(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]) + "0400"
}

func newReplicaBackend(t *testing.T, name string) *replicaBackend {
	t.Helper()
	rb := &replicaBackend{name: name, store: map[string][]byte{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		key := fakeStoreKey(raw)
		rb.mu.Lock()
		_, warm := rb.store[key]
		if !warm {
			rb.computes++
			rb.store[key] = []byte(fmt.Sprintf(`{"backend":%q,"body":%q}`, rb.name, raw))
		}
		rb.mu.Unlock()
		w.Header().Set(storeKeyHeader, key)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"backend":%q,"warm":%v}`, rb.name, warm)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		// Stand-in batch framing: newline-separated member payloads
		// (the router treats the archive body as opaque bytes, so the
		// tar details don't matter here). Every member writes through
		// the same store as /v1/analyze and names its key in the
		// NDJSON record, like funseekerd does.
		raw, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		items := 0
		for i, m := range strings.Split(string(raw), "\n") {
			if m == "" {
				continue
			}
			key := fakeStoreKey([]byte(m))
			rb.mu.Lock()
			if _, warm := rb.store[key]; !warm {
				rb.computes++
				rb.store[key] = []byte(fmt.Sprintf(`{"backend":%q,"body":%q}`, rb.name, m))
			}
			rb.mu.Unlock()
			enc.Encode(map[string]any{
				"index": i, "name": fmt.Sprintf("member-%d", i),
				"backend": rb.name, "store_key": key,
			})
			items++
		}
		enc.Encode(map[string]any{"summary": true, "items": items, "ok": items})
	})
	mux.HandleFunc("GET /v1/result", func(w http.ResponseWriter, r *http.Request) {
		rb.mu.Lock()
		val, ok := rb.store[r.URL.Query().Get("key")]
		rb.mu.Unlock()
		if !ok {
			http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(val)
	})
	mux.HandleFunc("PUT /v1/result", func(w http.ResponseWriter, r *http.Request) {
		val, _ := io.ReadAll(r.Body)
		rb.mu.Lock()
		rb.store[r.URL.Query().Get("key")] = val
		rb.mu.Unlock()
		fmt.Fprintln(w, `{"status":"stored"}`)
	})
	mux.HandleFunc("GET /v1/keys", func(w http.ResponseWriter, r *http.Request) {
		rb.mu.Lock()
		keys := make([]string, 0, len(rb.store))
		for k := range rb.store {
			keys = append(keys, k)
		}
		rb.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"count": len(keys), "keys": keys})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		rb.mu.Lock()
		n := len(rb.store)
		rb.mu.Unlock()
		fmt.Fprintf(w, `{"v":2,"store":{"records":%d}}`, n)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		rb.mu.Lock()
		down := rb.down
		rb.mu.Unlock()
		if down {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	rb.ts = httptest.NewServer(mux)
	t.Cleanup(rb.ts.Close)
	return rb
}

func (rb *replicaBackend) setDown(down bool) {
	rb.mu.Lock()
	rb.down = down
	rb.mu.Unlock()
}

func (rb *replicaBackend) hasKey(key string) bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	_, ok := rb.store[key]
	return ok
}

func (rb *replicaBackend) keyCount() int {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return len(rb.store)
}

func (rb *replicaBackend) computeCount() int {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.computes
}

func newReplicaRouter(t *testing.T, backends []*replicaBackend) (*httptest.Server, *router) {
	t.Helper()
	var urls []string
	for _, rb := range backends {
		urls = append(urls, rb.ts.URL)
	}
	rt, err := newRouter(routerConfig{backends: urls, replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.handler())
	t.Cleanup(ts.Close)
	return ts, rt
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationToRingSuccessor: a routed analyze is copied to exactly
// the binary's other replica-set member — LookupN(sum, 2)[1] — and to
// nobody else.
func TestReplicationToRingSuccessor(t *testing.T) {
	backends := []*replicaBackend{
		newReplicaBackend(t, "a"), newReplicaBackend(t, "b"), newReplicaBackend(t, "c"),
	}
	ts, rt := newReplicaRouter(t, backends)
	byURL := map[string]*replicaBackend{}
	for _, rb := range backends {
		byURL[rb.ts.URL] = rb
	}

	body := []byte("replicated-binary")
	sum := sha256.Sum256(body)
	set := rt.ring.LookupN(sum[:], 2)
	if len(set) != 2 {
		t.Fatalf("replica set = %v", set)
	}
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/octet-stream", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	key := resp.Header.Get(storeKeyHeader)
	if key == "" {
		t.Fatal("router did not relay the store key header")
	}

	waitFor(t, "replica write", func() bool { return byURL[set[1]].hasKey(key) })
	for _, rb := range backends {
		want := rb.ts.URL == set[0] || rb.ts.URL == set[1]
		if rb.hasKey(key) != want {
			t.Fatalf("backend %s hasKey = %v, want %v (set %v)", rb.name, rb.hasKey(key), want, set)
		}
	}
	// The sibling holds the key before the router has read the PUT's
	// answer and counted the write.
	waitFor(t, "replica write counted", func() bool { return rt.replicaWrites.Value() >= 1 })
	if v := rt.replicaWrites.Value(); v != 1 {
		t.Fatalf("replica writes = %d, want 1", v)
	}

	// The same body again replicates nothing new (the seen-set holds).
	resp, err = http.Post(ts.URL+"/v1/analyze", "application/octet-stream", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rt.repairWG.Wait()
	if v := rt.replicaWrites.Value(); v != 1 {
		t.Fatalf("replica writes after repeat = %d, want still 1", v)
	}
}

// TestWarmFailoverServesFromSibling: kill a binary's owner and the
// request lands on the replica that already holds the stored result —
// served warm, zero recomputation.
func TestWarmFailoverServesFromSibling(t *testing.T) {
	backends := []*replicaBackend{
		newReplicaBackend(t, "a"), newReplicaBackend(t, "b"), newReplicaBackend(t, "c"),
	}
	ts, rt := newReplicaRouter(t, backends)
	byURL := map[string]*replicaBackend{}
	for _, rb := range backends {
		byURL[rb.ts.URL] = rb
	}

	body := "failover-binary"
	sum := sha256.Sum256([]byte(body))
	set := rt.ring.LookupN(sum[:], 2)
	owner, sibling := byURL[set[0]], byURL[set[1]]

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	key := resp.Header.Get(storeKeyHeader)
	resp.Body.Close()
	waitFor(t, "replica write", func() bool { return sibling.hasKey(key) })
	siblingComputes := sibling.computeCount()

	// Kill the owner's listener outright: the next request hits a
	// connection error, demotes it, and falls through to the sibling.
	owner.ts.CloseClientConnections()
	owner.ts.Close()

	resp, err = http.Post(ts.URL+"/v1/analyze", "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover status = %d, body %s", resp.StatusCode, raw)
	}
	var out struct {
		Backend string `json:"backend"`
		Warm    bool   `json:"warm"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Backend != sibling.name || !out.Warm {
		t.Fatalf("failover served by %q warm=%v, want %q warm", out.Backend, out.Warm, sibling.name)
	}
	if got := sibling.computeCount(); got != siblingComputes {
		t.Fatalf("sibling recomputed (%d -> %d computes) — failover was cold", siblingComputes, got)
	}
	if v := rt.replicaFallbacks.Value(); v != 1 {
		t.Fatalf("replica fallbacks = %d, want 1", v)
	}
	if v := rt.failovers.Value(); v != 1 {
		t.Fatalf("failovers = %d, want 1", v)
	}
}

// TestRepairRewarmsRejoinedNode: a node that was down while results
// were written gets them copied back when it rejoins, before any
// client asks for them.
func TestRepairRewarmsRejoinedNode(t *testing.T) {
	backends := []*replicaBackend{
		newReplicaBackend(t, "a"), newReplicaBackend(t, "b"),
	}
	ts, rt := newReplicaRouter(t, backends)

	// Take b out; every result written meanwhile lives only on a.
	backends[1].setDown(true)
	rt.checkHealth()
	const n = 6
	for i := 0; i < n; i++ {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/octet-stream",
			strings.NewReader(fmt.Sprintf("repair-binary-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze %d = %d", i, resp.StatusCode)
		}
	}
	rt.repairWG.Wait()
	if got := backends[1].keyCount(); got != 0 {
		t.Fatalf("downed node holds %d keys, want 0", got)
	}
	if backends[0].keyCount() != n {
		t.Fatalf("survivor holds %d keys, want %d", backends[0].keyCount(), n)
	}

	// Rejoin: the up-transition triggers the repair pass.
	backends[1].setDown(false)
	rt.checkHealth()
	rt.repairWG.Wait()
	if got := backends[1].keyCount(); got != n {
		t.Fatalf("rejoined node holds %d keys after repair, want %d", got, n)
	}
	if v := rt.replicaRepairs.Value(); v != n {
		t.Fatalf("replica repairs = %d, want %d", v, n)
	}

	// And warm: the rejoined node serves its re-warmed keys without
	// computing.
	computesBefore := backends[1].computeCount()
	for i := 0; i < n; i++ {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/octet-stream",
			strings.NewReader(fmt.Sprintf("repair-binary-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got := backends[1].computeCount(); got != computesBefore {
		t.Fatalf("rejoined node computed %d results after repair, want 0", got-computesBefore)
	}
}

// TestBatchMemberReplication: every member of a proxied /v1/batch ends
// up replicated exactly like the same binaries pushed one by one
// through /v1/analyze — the router tees each record's store_key off the
// NDJSON stream and runs the ordinary value-transfer replication per
// member. With the batch's serving backend killed afterwards, every
// member must still be served warm from its replica set with zero
// recomputation.
func TestBatchMemberReplication(t *testing.T) {
	backends := []*replicaBackend{
		newReplicaBackend(t, "a"), newReplicaBackend(t, "b"), newReplicaBackend(t, "c"),
	}
	ts, rt := newReplicaRouter(t, backends)
	byURL := map[string]*replicaBackend{}
	byName := map[string]*replicaBackend{}
	for _, rb := range backends {
		byURL[rb.ts.URL] = rb
		byName[rb.name] = rb
	}

	members := make([]string, 5)
	for i := range members {
		members[i] = fmt.Sprintf("batch-member-%d", i)
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-tar",
		strings.NewReader(strings.Join(members, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", resp.StatusCode, raw)
	}

	// Decode the relayed NDJSON: one record per member (each naming its
	// store key and the backend that computed it) plus the summary.
	var servedBy string
	keys := make(map[string]string, len(members)) // member body -> key
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct {
			Summary  bool   `json:"summary"`
			Index    int    `json:"index"`
			Backend  string `json:"backend"`
			StoreKey string `json:"store_key"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if rec.Summary {
			continue
		}
		if rec.StoreKey == "" {
			t.Fatalf("member record without store_key: %q", line)
		}
		servedBy = rec.Backend
		keys[members[rec.Index]] = rec.StoreKey
	}
	if len(keys) != len(members) {
		t.Fatalf("got %d member records, want %d", len(keys), len(members))
	}

	// Every member's full replica set converges on its stored value.
	for _, m := range members {
		sum := sha256.Sum256([]byte(m))
		for _, u := range rt.ring.LookupN(sum[:], 2) {
			u, m := u, m
			waitFor(t, "batch replica write "+m, func() bool { return byURL[u].hasKey(keys[m]) })
		}
	}
	waitFor(t, "batch replica writes counted", func() bool { return rt.replicaWrites.Value() >= uint64(len(members)) })
	if v := rt.replicaWrites.Value(); v < uint64(len(members)) {
		t.Fatalf("replica writes = %d, want >= %d (one per member at minimum)", v, len(members))
	}
	totalComputes := func() int {
		n := 0
		for _, rb := range backends {
			n += rb.computeCount()
		}
		return n
	}
	if got := totalComputes(); got != len(members) {
		t.Fatalf("batch cost %d computes, want %d", got, len(members))
	}

	// Kill the backend that served the whole batch. Every member must
	// still be served warm by a surviving replica-set node — replication
	// made the batch's results survive the owner, with zero recomputation.
	served := byName[servedBy]
	if served == nil {
		t.Fatalf("unknown serving backend %q", servedBy)
	}
	served.ts.CloseClientConnections()
	served.ts.Close()
	for _, m := range members {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/octet-stream", strings.NewReader(m))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze %q after kill = %d, body %s", m, resp.StatusCode, body)
		}
		var out struct {
			Backend string `json:"backend"`
			Warm    bool   `json:"warm"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if !out.Warm {
			t.Fatalf("member %q served cold by %q after owner kill", m, out.Backend)
		}
	}
	if got := totalComputes(); got != len(members) {
		t.Fatalf("members recomputed after owner kill: %d computes, want still %d", got, len(members))
	}
}

// TestBatchReplicationSkippedWhenDisabled: with replicas=1 the batch
// tee must not run — no keys collected, no replication traffic.
func TestBatchReplicationSkippedWhenDisabled(t *testing.T) {
	backends := []*replicaBackend{
		newReplicaBackend(t, "a"), newReplicaBackend(t, "b"),
	}
	var urls []string
	for _, rb := range backends {
		urls = append(urls, rb.ts.URL)
	}
	rt, err := newRouter(routerConfig{backends: urls, replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-tar",
		strings.NewReader("solo-member"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rt.repairWG.Wait()
	if v := rt.replicaWrites.Value(); v != 0 {
		t.Fatalf("replica writes = %d with replication disabled, want 0", v)
	}
	if total := backends[0].keyCount() + backends[1].keyCount(); total != 1 {
		t.Fatalf("stored copies = %d, want exactly 1 (no replication)", total)
	}
}

// TestNodesRelaysStats: /lb/nodes carries each healthy node's own v2
// stats document and the configured replica width.
func TestNodesRelaysStats(t *testing.T) {
	backends := []*replicaBackend{
		newReplicaBackend(t, "a"), newReplicaBackend(t, "b"),
	}
	ts, rt := newReplicaRouter(t, backends)

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/octet-stream", strings.NewReader("stats-binary"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rt.repairWG.Wait()

	nresp, err := http.Get(ts.URL + "/lb/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Replicas int `json:"replicas"`
		Nodes    []struct {
			Backend string `json:"backend"`
			Healthy bool   `json:"healthy"`
			Stats   *struct {
				V     int `json:"v"`
				Store struct {
					Records int `json:"records"`
				} `json:"store"`
			} `json:"stats"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(nresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if doc.Replicas != 2 || len(doc.Nodes) != 2 {
		t.Fatalf("/lb/nodes = replicas %d, %d nodes", doc.Replicas, len(doc.Nodes))
	}
	total := 0
	for _, n := range doc.Nodes {
		if n.Stats == nil || n.Stats.V != 2 {
			t.Fatalf("node %s stats = %+v, want a v2 document", n.Backend, n.Stats)
		}
		total += n.Stats.Store.Records
	}
	if total != 2 { // one result, replicated to both nodes
		t.Fatalf("total records across nodes = %d, want 2", total)
	}
}
