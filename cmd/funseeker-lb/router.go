package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/funseeker/funseeker/internal/obs"
	"github.com/funseeker/funseeker/internal/ring"
	"github.com/funseeker/funseeker/internal/upload"
)

// Fixed routing parameters. The ring runs with ring.DefaultVirtualNodes
// (512) virtual nodes per backend.
const (
	// failoverSpares is how many extra ring-order successors (beyond
	// the replica set) an analyze tries after connection-level failures.
	failoverSpares = 2
	// healthTimeout bounds one health probe and one /lb/nodes stats
	// fetch.
	healthTimeout = 2 * time.Second
)

// routerConfig carries one funseeker-lb instance's knobs.
type routerConfig struct {
	// backends are the funseekerd base URLs ("http://host:port") the
	// router shards over.
	backends []string
	// maxBodyBytes caps a single-shot analyze body — the router must
	// buffer it to hash it.
	maxBodyBytes int64
	// replicas is the replica-set width: every analyze result is
	// copied to the first `replicas` distinct nodes in ring order for
	// its binary, so losing any one node leaves a warm sibling.
	// 1 disables replication; 0 selects the default of 2.
	replicas int
	// healthEvery is the health-probe cadence; zero disables the
	// background loop (tests drive checkHealth directly).
	healthEvery time.Duration
	// client is the forwarding HTTP client; nil selects a default whose
	// transport bounds the wait for response headers, so a backend that
	// accepts connections but never answers fails over instead of
	// hanging the forward. Response bodies are unbounded — batch
	// streams legitimately run for minutes.
	client *http.Client
	// logger receives routing decisions and health transitions; nil
	// discards.
	logger *slog.Logger
	// registry receives the router metrics; nil selects a private one.
	registry *obs.Registry
}

// router is the consistent-hash routing layer in front of N funseekerd
// replicas: /v1/analyze routes by content hash so each binary's result
// (LRU-hot or store-warm) lives on one owner replica; /v1/batch
// round-robins whole archives across healthy replicas; health probes
// move replicas in and out of the ring so a restart remaps only ~1/N
// of the key space while it lasts.
type router struct {
	cfg  routerConfig
	ring *ring.Ring
	// healthy tracks the probe state per backend; the ring holds only
	// the healthy subset.
	mu      sync.Mutex
	healthy map[string]bool
	// rr is the round-robin cursor for batch routing.
	rr atomic.Uint64

	// seen is the bounded set of store keys whose replication already
	// ran; cleared on membership transitions, when placements move.
	seenMu sync.Mutex
	seen   map[string]bool
	// repairWG tracks in-flight replication and repair goroutines, so
	// tests (and shutdown) can wait for them deterministically.
	repairWG sync.WaitGroup

	routedTo         *obs.CounterVec // requests forwarded, by backend
	failovers        *obs.Counter    // candidates skipped after a connection error
	unrouted         *obs.Counter    // requests refused: no healthy backend
	healthUp         *obs.GaugeVec   // 1 healthy / 0 down, by backend
	replicaWrites    *obs.Counter    // results copied to a replica after an analyze
	replicaFallbacks *obs.Counter    // analyzes served by a non-first candidate
	replicaRepairs   *obs.Counter    // results copied back to a rejoining node
}

func newRouter(cfg routerConfig) (*router, error) {
	if len(cfg.backends) == 0 {
		return nil, errors.New("no backends configured")
	}
	if cfg.maxBodyBytes <= 0 {
		cfg.maxBodyBytes = 64 << 20
	}
	if cfg.replicas == 0 {
		cfg.replicas = 2
	}
	if cfg.replicas < 1 {
		return nil, fmt.Errorf("replicas must be >= 1, got %d", cfg.replicas)
	}
	if cfg.client == nil {
		// No Client.Timeout: it would cap the whole exchange and kill
		// long batch streams. ResponseHeaderTimeout bounds only the
		// header wait, which is what failover needs to engage on a hung
		// backend.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.ResponseHeaderTimeout = 30 * time.Second
		cfg.client = &http.Client{Transport: tr}
	}
	if cfg.registry == nil {
		cfg.registry = obs.NewRegistry()
	}
	rt := &router{
		cfg:     cfg,
		ring:    ring.New(0),
		healthy: make(map[string]bool),
		seen:    make(map[string]bool),
	}
	rt.routedTo = cfg.registry.NewCounterVec("funseekerlb_routed_total",
		"Requests forwarded, by backend.", "backend")
	rt.failovers = cfg.registry.NewCounter("funseekerlb_failovers_total",
		"Requests that skipped their owner after a connection error.")
	rt.unrouted = cfg.registry.NewCounter("funseekerlb_unrouted_total",
		"Requests refused because no healthy backend remained.")
	rt.healthUp = cfg.registry.NewGaugeVec("funseekerlb_backend_up",
		"Backend health probe state (1 up, 0 down).", "backend")
	rt.replicaWrites = cfg.registry.NewCounter("funseekerlb_replica_writes_total",
		"Stored results copied to a replica after an analyze.")
	rt.replicaFallbacks = cfg.registry.NewCounter("funseekerlb_replica_fallbacks_total",
		"Analyzes served by a replica other than the ring owner.")
	rt.replicaRepairs = cfg.registry.NewCounter("funseekerlb_replica_repairs_total",
		"Stored results copied back to a rejoining node by the repair pass.")
	// Start optimistic: every configured backend is in the ring until a
	// probe says otherwise, so the router serves before the first sweep.
	for _, b := range cfg.backends {
		rt.healthy[b] = true
		rt.ring.Add(b)
		rt.healthUp.With(b).Set(1)
	}
	return rt, nil
}

// handler wires the router's public routes.
func (rt *router) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", rt.handleAnalyze)
	mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	mux.HandleFunc("GET /lb/nodes", rt.handleNodes)
	mux.Handle("GET /metrics", rt.cfg.registry.Handler())
	return mux
}

// healthLoop probes every backend each cfg.healthEvery until stop
// closes.
func (rt *router) healthLoop(stop <-chan struct{}) {
	t := time.NewTicker(rt.cfg.healthEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			rt.checkHealth()
		case <-stop:
			return
		}
	}
}

// checkHealth probes every configured backend once and moves it in or
// out of the ring on transitions. Exported-for-tests via direct call.
func (rt *router) checkHealth() {
	type probe struct {
		backend string
		up      bool
	}
	results := make(chan probe, len(rt.cfg.backends))
	for _, b := range rt.cfg.backends {
		go func(b string) {
			results <- probe{b, rt.probe(b)}
		}(b)
	}
	for range rt.cfg.backends {
		p := <-results
		rt.setHealth(p.backend, p.up)
	}
}

func (rt *router) probe(backend string) bool {
	client := &http.Client{Timeout: healthTimeout}
	resp, err := client.Get(backend + "/v1/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// setHealth records a probe result, updating the ring only on a
// transition — membership churn is what remaps keys, so steady state
// must not touch it.
func (rt *router) setHealth(backend string, up bool) {
	rt.mu.Lock()
	was := rt.healthy[backend]
	rt.healthy[backend] = up
	rt.mu.Unlock()
	if was == up {
		return
	}
	// Membership changed: replica placements may have moved, so the
	// replication dedup set is stale either way.
	rt.clearSeen()
	if up {
		rt.ring.Add(backend)
		rt.healthUp.With(backend).Set(1)
		// The rejoined node missed every write while it was out; copy
		// back what it should hold before cold requests find the gaps.
		if rt.cfg.replicas > 1 {
			rt.repairWG.Add(1)
			go rt.repairNode(backend)
		}
	} else {
		rt.ring.Remove(backend)
		rt.healthUp.With(backend).Set(0)
	}
	if rt.cfg.logger != nil {
		rt.cfg.logger.Info("backend health transition", "backend", backend, "up", up)
	}
}

// handleAnalyze buffers the binary, routes it by content hash, and
// forwards. On a connection-level failure the owner is marked down and
// the next ring successors are tried; an HTTP-level error (4xx/5xx)
// is the backend's answer and is relayed as-is.
func (rt *router) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	raw, err := upload.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErrorLB(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeErrorLB(w, http.StatusBadRequest, "reading body")
		return
	}
	sum := sha256.Sum256(raw)
	// Candidates in ring order: the replica set first (any of them can
	// serve the result warm), then failover spares for when a whole
	// replica set is unreachable at once.
	candidates := rt.ring.LookupN(sum[:], rt.cfg.replicas+failoverSpares)
	if len(candidates) == 0 {
		rt.unrouted.Inc()
		writeErrorLB(w, http.StatusServiceUnavailable, "no healthy backend")
		return
	}
	for i, backend := range candidates {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
			backend+"/v1/analyze?"+r.URL.RawQuery, bytes.NewReader(raw))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
		copyTraceHeaders(req, r)
		resp, err := rt.cfg.client.Do(req)
		if err != nil {
			// Connection-level: this replica is gone; say so and try the
			// next candidate in ring order.
			rt.setHealth(backend, false)
			rt.failovers.Inc()
			if rt.cfg.logger != nil {
				rt.cfg.logger.Warn("forward failed", "backend", backend, "err", err)
			}
			continue
		}
		if resp.StatusCode >= 500 && i+1 < len(candidates) {
			// The replica answered but failed internally; its sibling may
			// hold the replicated result. Not a connection failure, so it
			// keeps its ring slot. 4xx (including 429) is the backend's
			// answer and is relayed as-is below.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if rt.cfg.logger != nil {
				rt.cfg.logger.Warn("backend 5xx, trying sibling", "backend", backend, "status", resp.StatusCode)
			}
			continue
		}
		rt.routedTo.With(backend).Inc()
		if i > 0 {
			rt.replicaFallbacks.Inc()
		}
		key := resp.Header.Get(storeKeyHeader)
		status := resp.StatusCode
		relay(w, resp)
		if status == http.StatusOK && key != "" && rt.cfg.replicas > 1 {
			// Copy the stored result to the rest of its replica set off
			// the request path; the client never waits on replication.
			rt.repairWG.Add(1)
			go rt.replicate(sum[:], backend, key)
		}
		return
	}
	rt.unrouted.Inc()
	writeErrorLB(w, http.StatusBadGateway, "every candidate backend failed")
}

// handleBatch streams a whole archive to one healthy replica, chosen
// round-robin: a batch has no single content hash to shard by, and
// member-level resharding would mean re-framing the archive — the
// per-binary store/cache tier below makes the placement loss cheap.
func (rt *router) handleBatch(w http.ResponseWriter, r *http.Request) {
	backend, ok := rt.nextBackend()
	if !ok {
		rt.unrouted.Inc()
		writeErrorLB(w, http.StatusServiceUnavailable, "no healthy backend")
		return
	}
	// The batch hop is full duplex: the transport is still forwarding
	// the uploader's archive off r.Body while relayStream writes the
	// backend's NDJSON records. Without this, the HTTP/1 server drains
	// the unread request body on the first response write — racing the
	// transport's forwarding and corrupting the archive the backend
	// sees for any batch not fully uploaded by then. funseekerd's own
	// batch handler does the same; the proxy hop needs it too.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
		writeErrorLB(w, http.StatusInternalServerError, "full-duplex streaming unsupported")
		return
	}
	body := &bodyErrReader{r: r.Body}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		backend+"/v1/batch?"+r.URL.RawQuery, body)
	if err != nil {
		writeErrorLB(w, http.StatusInternalServerError, "building forward request")
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	copyTraceHeaders(req, r)
	resp, err := rt.cfg.client.Do(req)
	if err != nil {
		if body.Err() != nil {
			// The uploader's stream failed, not the backend: demoting the
			// backend here would eject a healthy replica from the ring and
			// remap ~1/N of the key space on every flaky client.
			writeErrorLB(w, http.StatusBadRequest, "reading request body")
			return
		}
		rt.setHealth(backend, false)
		rt.unrouted.Inc()
		writeErrorLB(w, http.StatusBadGateway, "backend unreachable")
		return
	}
	rt.routedTo.With(backend).Inc()
	// Tee the NDJSON stream: each member record carries its store_key,
	// and a batch must leave every member's result replicated exactly
	// like the same binaries pushed through /v1/analyze one by one —
	// otherwise killing the serving backend after a batch would force a
	// full recomputation of the whole archive. Keys are collected while
	// relaying and replicated off the response path once the stream
	// ends (even a partial relay replicates what was computed).
	var keys *batchKeyScanner
	if resp.StatusCode == http.StatusOK && rt.cfg.replicas > 1 {
		keys = &batchKeyScanner{}
	}
	relayStream(w, resp, keys)
	if keys == nil {
		return
	}
	for _, key := range keys.finish() {
		kb, err := hex.DecodeString(key)
		if err != nil || len(kb) < sha256.Size {
			continue
		}
		rt.repairWG.Add(1)
		go rt.replicate(kb[:sha256.Size], backend, key)
	}
}

// batchKeyScanner incrementally splits a relayed batch response into
// NDJSON lines and collects each member record's store_key. Error
// records and the summary line carry no key and are skipped; the
// carry buffer only ever holds one partial line (~2 KB), never the
// stream.
type batchKeyScanner struct {
	carry []byte
	keys  []string
}

func (s *batchKeyScanner) feed(p []byte) {
	s.carry = append(s.carry, p...)
	for {
		i := bytes.IndexByte(s.carry, '\n')
		if i < 0 {
			return
		}
		s.line(s.carry[:i])
		s.carry = append(s.carry[:0], s.carry[i+1:]...)
	}
}

func (s *batchKeyScanner) line(line []byte) {
	var rec struct {
		StoreKey string `json:"store_key"`
	}
	if json.Unmarshal(line, &rec) == nil && rec.StoreKey != "" {
		s.keys = append(s.keys, rec.StoreKey)
	}
}

// finish flushes any trailing unterminated line and returns the keys.
func (s *batchKeyScanner) finish() []string {
	if len(s.carry) > 0 {
		s.line(s.carry)
		s.carry = nil
	}
	return s.keys
}

// bodyErrReader wraps the uploader's request body and records any read
// error, so a failed forward is blamed on the right side of the proxy:
// a client that dies mid-upload must not cost a backend its ring slot.
// The mutex makes Err safe to call from the handler while the
// transport's write loop is still reading.
type bodyErrReader struct {
	r   io.Reader
	mu  sync.Mutex
	err error
}

func (b *bodyErrReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err != nil && err != io.EOF {
		b.mu.Lock()
		b.err = err
		b.mu.Unlock()
	}
	return n, err
}

func (b *bodyErrReader) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// nextBackend returns the next healthy backend in round-robin order.
func (rt *router) nextBackend() (string, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := len(rt.cfg.backends)
	for i := 0; i < n; i++ {
		b := rt.cfg.backends[int(rt.rr.Add(1))%n]
		if rt.healthy[b] {
			return b, true
		}
	}
	return "", false
}

func (rt *router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","ring_nodes":%d}`+"\n", rt.ring.Len())
}

// handleNodes reports ring membership, probe state, and each healthy
// node's own v2 stats document — the operator's one-stop view of where
// the key space lives and how warm each replica is.
func (rt *router) handleNodes(w http.ResponseWriter, r *http.Request) {
	type node struct {
		Backend string `json:"backend"`
		Healthy bool   `json:"healthy"`
		// Stats is the node's relayed /v1/stats ("v": 2) document;
		// omitted when the node is down or the fetch fails.
		Stats json.RawMessage `json:"stats,omitempty"`
	}
	rt.mu.Lock()
	nodes := make([]node, 0, len(rt.cfg.backends))
	for _, b := range rt.cfg.backends {
		nodes = append(nodes, node{Backend: b, Healthy: rt.healthy[b]})
	}
	rt.mu.Unlock()
	var wg sync.WaitGroup
	for i := range nodes {
		if !nodes[i].Healthy {
			continue
		}
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), healthTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.Backend+"/v1/stats", nil)
			if err != nil {
				return
			}
			resp, err := rt.cfg.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				return
			}
			if raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20)); err == nil && json.Valid(raw) {
				n.Stats = raw
			}
		}(&nodes[i])
	}
	wg.Wait()
	writeJSONLB(w, map[string]any{
		"replicas":   rt.cfg.replicas,
		"nodes":      nodes,
		"ring_nodes": rt.ring.Nodes(),
	})
}

// copyTraceHeaders forwards the request-trace header so one ID follows
// the request across the router hop.
func copyTraceHeaders(dst *http.Request, src *http.Request) {
	if id := src.Header.Get(obs.RequestIDHeader); id != "" {
		dst.Header.Set(obs.RequestIDHeader, id)
	}
}

// relay copies a buffered backend response to the client.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	copyResponseHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// relayStream copies an NDJSON stream, flushing per write so records
// reach the client as they complete. When keys is non-nil every relayed
// byte is also fed to it, so the batch handler can replicate member
// results after the stream ends.
func relayStream(w http.ResponseWriter, resp *http.Response, keys *batchKeyScanner) {
	defer resp.Body.Close()
	copyResponseHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if keys != nil {
				keys.feed(buf[:n])
			}
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func copyResponseHeaders(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After", storeKeyHeader, obs.RequestIDHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

// writeErrorLB answers one of the router's own errors: status and a
// {"error": msg} body, labelled as JSON.
func writeErrorLB(w http.ResponseWriter, status int, msg string) {
	body, _ := json.Marshal(struct { // a lone string field cannot fail to encode
		Error string `json:"error"`
	}{msg})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func writeJSONLB(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
