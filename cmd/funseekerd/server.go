package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"mime"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"github.com/funseeker/funseeker/internal/core"
	"github.com/funseeker/funseeker/internal/elfx"
	"github.com/funseeker/funseeker/internal/engine"
	"github.com/funseeker/funseeker/internal/obs"
	"github.com/funseeker/funseeker/internal/upload"
)

// serverConfig carries the per-request limits of one funseekerd
// instance.
type serverConfig struct {
	// maxBodyBytes caps the request body (the uploaded ELF image), and
	// the per-member size inside a batch archive.
	maxBodyBytes int64
	// maxBatchBytes caps a whole /v1/batch upload; zero selects
	// 16×maxBodyBytes.
	maxBatchBytes int64
	// reqTimeout bounds one analyze request end to end; zero disables.
	reqTimeout time.Duration
	// slowThreshold promotes requests slower than this to a WARN-level
	// "slow request" log line; zero disables.
	slowThreshold time.Duration
	// logger receives structured access logs; nil discards them.
	logger *slog.Logger
	// registry receives the server's HTTP metrics and backs GET
	// /metrics. Nil selects a private registry (useful in tests that
	// don't scrape). Share it with the engine's Config.Registry so one
	// scrape covers both layers.
	registry *obs.Registry
	// shedQueueP99 is the engine queue-wait p99 past which new analysis
	// work is refused with 429; zero disables shedding.
	shedQueueP99 time.Duration
	// shedWindow is the observation window of the shedding signal. Zero
	// selects defaultShedWindow; negative reads the cumulative
	// distribution (tests use it for determinism).
	shedWindow time.Duration
}

// defaultShedWindow is the shedding observation window when
// serverConfig.shedWindow is zero.
const defaultShedWindow = 10 * time.Second

// server is the HTTP surface over one shared analysis engine.
type server struct {
	eng   *engine.Engine
	cfg   serverConfig
	start time.Time

	// reqsByKind counts finished requests by outcome kind (the error
	// taxonomy kind, or "ok"); reqSeconds is the edge-to-edge request
	// latency including body read and JSON encode.
	reqsByKind *obs.CounterVec
	reqSeconds *obs.Histogram
	// analyzeByArch counts successful analyses by the architecture the
	// dispatched backend reported, so a mixed-ISA corpus shows its split
	// at the scrape endpoint.
	analyzeByArch *obs.CounterVec
	// batchItems counts /v1/batch member records by outcome ("ok" or
	// "error"); shedTotal counts requests refused by the load shedder.
	batchItems *obs.CounterVec
	shedTotal  *obs.Counter
	// shed is the admission controller behind 429 + Retry-After.
	shed *shedder
}

// newServer builds the funseekerd HTTP layer over eng. Call handler()
// for the public routes and debugHandler() for the opt-in debug
// listener.
func newServer(eng *engine.Engine, cfg serverConfig) *server {
	if cfg.registry == nil {
		cfg.registry = obs.NewRegistry()
	}
	s := &server{eng: eng, cfg: cfg, start: time.Now()}
	s.reqsByKind = cfg.registry.NewCounterVec("funseekerd_http_requests_total",
		"Finished HTTP requests by outcome kind.", "kind")
	s.reqSeconds = cfg.registry.NewHistogram("funseekerd_http_request_seconds",
		"Edge-to-edge HTTP request latency.", nil)
	s.analyzeByArch = cfg.registry.NewCounterVec("funseekerd_analyze_arch_total",
		"Successful analyses by binary architecture.", "arch")
	s.batchItems = cfg.registry.NewCounterVec("funseekerd_batch_items_total",
		"Batch archive members processed, by outcome.", "outcome")
	s.shedTotal = cfg.registry.NewCounter("funseekerd_shed_total",
		"Requests refused with 429 by the queue-wait load shedder.")
	if s.cfg.maxBatchBytes <= 0 {
		s.cfg.maxBatchBytes = 16 * s.cfg.maxBodyBytes
	}
	if s.cfg.shedWindow == 0 {
		s.cfg.shedWindow = defaultShedWindow
	}
	s.shed = newShedder(eng, s.cfg.shedQueueP99, s.cfg.shedWindow)
	return s
}

// handler wires the public funseekerd routes:
//
//	POST /v1/analyze  — analyze the ELF image sent as the raw request
//	                    body; x86-64 and aarch64 images are
//	                    dispatched to their backends by the ELF header.
//	                    ?config=1..5 selects the algorithm
//	                    configuration, ?superset=1 adds the byte-level
//	                    landmark scan, ?require_cet=1 rejects
//	                    landmark-free binaries; any other key is a 400
//	POST /v1/batch    — analyze a tar stream of ELF images; per-member
//	                    results stream back as NDJSON in archive order,
//	                    with per-member error isolation and a final
//	                    summary line. Same query options as
//	                    /v1/analyze, applied to every member.
//	GET  /v1/healthz  — liveness
//	GET  /v1/stats    — versioned stats document ("v": 2) with
//	                    engine/cache/store/shed/server blocks; any
//	                    other ?v is a 400
//	GET  /v1/result   — raw stored-result value by hex store key
//	PUT  /v1/result   — install a stored result computed on another
//	                    replica (validated against the key's hash)
//	GET  /v1/keys     — every persisted result key, for replica diffs
//	POST /v1/admin/compact — run one store compaction now
//	GET  /metrics     — Prometheus text-format exposition (engine +
//	                    HTTP series)
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/result", s.handleGetResult)
	mux.HandleFunc("PUT /v1/result", s.handlePutResult)
	mux.HandleFunc("GET /v1/keys", s.handleKeys)
	mux.HandleFunc("POST /v1/admin/compact", s.handleCompact)
	mux.Handle("GET /metrics", s.cfg.registry.Handler())
	return s.middleware(mux)
}

// debugHandler wires the opt-in debug listener: pprof only, behind the
// same tracing middleware so even profile fetches carry request IDs in
// the access log. The pprof streaming endpoints are why statusWriter
// implements http.Flusher.
func (s *server) debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.middleware(mux)
}

// analyzeResponse is the JSON shape of one successful analysis: the
// Report plus service metadata.
type analyzeResponse struct {
	SHA256 string `json:"sha256"`
	// Arch is the backend that analyzed the image ("x86-64",
	// "aarch64", ...), detected from the ELF header.
	Arch   string `json:"arch"`
	Config int    `json:"config"`
	// Cached is false for a fresh analysis, or the string "lru" /
	// "store" / "coalesced" naming the fast path that served the
	// result.
	Cached    any     `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`

	Entries         []uint64 `json:"entries"`
	Endbrs          int      `json:"endbrs"`
	CallTargets     int      `json:"call_targets"`
	JumpTargets     int      `json:"jump_targets"`
	TailCallTargets int      `json:"tail_call_targets"`

	FilteredIndirectReturn int `json:"filtered_indirect_return"`
	FilteredLandingPads    int `json:"filtered_landing_pads"`
	// FusedFDEEntries counts the entries configuration ⑤ added from
	// .eh_frame FDE starts; always 0 for configs 1-4.
	FusedFDEEntries int      `json:"fused_fde_entries,omitempty"`
	Warnings        []string `json:"warnings,omitempty"`
}

// errorResponse is the JSON error envelope; kind is the stable sentinel
// name clients branch on, request_id the trace ID to quote when
// reporting the failure.
type errorResponse struct {
	Error     string `json:"error"`
	Kind      string `json:"kind,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

func (s *server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if retry, shed := s.shed.overloaded(); shed {
		s.shedTotal.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds())))
		writeErrorKind(w, r, http.StatusTooManyRequests,
			errors.New("queue-wait p99 over the shed bound; retry later"), "overloaded")
		return
	}
	ctx := r.Context()
	if s.cfg.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.reqTimeout)
		defer cancel()
	}

	opts, configN, err := parseAnalyzeOptions(r.URL.Query())
	if err != nil {
		writeErrorKind(w, r, http.StatusBadRequest, err, "bad_request")
		return
	}

	raw, err := s.readBinary(w, r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, r, http.StatusBadRequest, err)
		return
	}

	res, err := s.eng.Analyze(ctx, raw, opts)
	if err != nil {
		status, kind := classifyAnalyzeError(err)
		writeErrorKind(w, r, status, err, kind)
		return
	}

	s.analyzeByArch.With(res.Report.Arch).Inc()
	// The store key identifies this result across replicas; the router's
	// replication path copies it to the ring successor by this handle.
	w.Header().Set(storeKeyHeader, res.StoreKey)
	writeJSON(w, http.StatusOK, buildAnalyzeResponse(res, configN))
}

// storeKeyHeader carries the hex persistent-store key of an analyze
// result, so a proxy can address the stored result without recomputing
// the content hash + option bits itself.
const storeKeyHeader = "X-Funseeker-Store-Key"

// analyzeQueryKeys is the complete query surface of /v1/analyze and
// /v1/batch. Anything else is a structured 400 — a typo like
// ?supserset=1 must fail loudly, not silently analyze with different
// options than the client believes.
var analyzeQueryKeys = map[string]bool{
	"config":      true,
	"superset":    true,
	"require_cet": true,
}

// parseAnalyzeOptions maps the analyze query surface (?config=1..5,
// ?superset, ?require_cet) to engine options. One parser for
// both /v1/analyze and /v1/batch, so the two endpoints can never
// drift; unknown keys and malformed values are errors the handlers
// turn into 400 kind "bad_request".
func parseAnalyzeOptions(q url.Values) (core.Options, int, error) {
	for key := range q {
		if !analyzeQueryKeys[key] {
			return core.Options{}, 0, fmt.Errorf("unknown query parameter %q (want config, superset, require_cet)", key)
		}
	}
	configN := 4
	if v := q.Get("config"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 5 {
			return core.Options{}, 0, fmt.Errorf("config must be 1-5, got %q", v)
		}
		configN = n
	}
	var opts core.Options
	switch configN {
	case 1:
		opts = core.Config1
	case 2:
		opts = core.Config2
	case 3:
		opts = core.Config3
	case 4:
		opts = core.Config4
	case 5:
		opts = core.Config5
	}
	superset, err := parseQueryBool(q, "superset")
	if err != nil {
		return core.Options{}, 0, err
	}
	opts.SupersetEndbrScan = opts.SupersetEndbrScan || superset
	requireCET, err := parseQueryBool(q, "require_cet")
	if err != nil {
		return core.Options{}, 0, err
	}
	opts.RequireCET = opts.RequireCET || requireCET
	return opts, configN, nil
}

// parseQueryBool reads an optional boolean query flag strictly: the
// usual spellings of true and false are accepted, anything else is an
// error rather than a silent false.
func parseQueryBool(q url.Values, key string) (bool, error) {
	switch v := q.Get(key); v {
	case "", "0", "false", "no":
		return false, nil
	case "1", "true", "yes":
		return true, nil
	default:
		return false, fmt.Errorf("%s must be a boolean (1/true/yes or 0/false/no), got %q", key, v)
	}
}

// readBinary reads the ELF image from the raw request body under the
// configured body limit. A multipart form is refused by name (curl -F
// is an easy mistake), and so is an empty body: better a clear 400
// here than a baffling 422 not_elf from the engine.
func (s *server) readBinary(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if err := refuseMultipart(r, "the ELF image as the raw request body (curl --data-binary @file)"); err != nil {
		return nil, err
	}
	raw, err := upload.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes))
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, errors.New("empty request body")
	}
	return raw, nil
}

// refuseMultipart returns a bad-request error naming the one accepted
// form (want) when r carries a multipart/form-data body.
func refuseMultipart(r *http.Request, want string) error {
	if mediaType, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mediaType == "multipart/form-data" {
		return fmt.Errorf("multipart/form-data is not accepted; send %s", want)
	}
	return nil
}

// classifyAnalyzeError maps the package error taxonomy onto HTTP status
// codes: malformed inputs are the client's fault (422), cancellations
// and timeouts are reported as such, anything else is a 500.
func classifyAnalyzeError(err error) (status int, kind string) {
	switch {
	case errors.Is(err, elfx.ErrNotELF):
		return http.StatusUnprocessableEntity, "not_elf"
	case errors.Is(err, elfx.ErrNoText):
		return http.StatusUnprocessableEntity, "no_text"
	case errors.Is(err, elfx.ErrMalformed):
		return http.StatusUnprocessableEntity, "malformed_elf"
	case errors.Is(err, core.ErrNotCET):
		return http.StatusUnprocessableEntity, "not_cet"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "canceled"
	default:
		return http.StatusInternalServerError, ""
	}
}

// statusKind maps a finished response's status code to the label value
// of the request counter. Analyze failures keep their taxonomy kind via
// classifyAnalyzeError's status mapping.
func statusKind(status int) string {
	switch {
	case status < 300:
		return "ok"
	case status == http.StatusBadRequest:
		return "bad_request"
	case status == http.StatusNotFound:
		return "not_found"
	case status == http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case status == http.StatusRequestEntityTooLarge:
		return "too_large"
	case status == http.StatusTooManyRequests:
		return "shed"
	case status == http.StatusUnprocessableEntity:
		return "unprocessable"
	case status == http.StatusServiceUnavailable:
		return "canceled"
	case status == http.StatusGatewayTimeout:
		return "deadline"
	case status >= 500:
		return "internal"
	default:
		return "other"
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statsDoc builds the versioned v2 stats document: the engine's
// engine/cache/store blocks plus the server-owned shed and process
// blocks. funseeker-lb relays this same document per node.
func (s *server) statsDoc() engine.StatsDoc {
	doc := s.eng.Stats()
	doc.Shed = &engine.ShedStatsBlock{
		Enabled:    s.cfg.shedQueueP99 > 0,
		BoundMS:    float64(s.cfg.shedQueueP99) / float64(time.Millisecond),
		WindowMS:   float64(s.cfg.shedWindow) / float64(time.Millisecond),
		QueueP99MS: s.shed.currentP99() * 1000,
		ShedTotal:  s.shedTotal.Value(),
	}
	doc.Server = &engine.ServerStatsBlock{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
	}
	return doc
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	switch v := r.URL.Query().Get("v"); v {
	case "", "2":
		writeJSON(w, http.StatusOK, s.statsDoc())
	default:
		writeErrorKind(w, r, http.StatusBadRequest,
			fmt.Errorf("unsupported stats version %q (want 2)", v), "bad_request")
	}
}

// handleGetResult serves the raw stored-result value under a hex store
// key — the replica-transfer read side. 404 not_found when the key is
// absent (or no store is configured: a storeless replica has nothing
// to offer and the router treats both the same).
func (s *server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErrorKind(w, r, http.StatusBadRequest, errors.New("missing key parameter"), "bad_request")
		return
	}
	val, ok, err := s.eng.StoredValue(key)
	if errors.Is(err, engine.ErrNoStore) {
		writeErrorKind(w, r, http.StatusNotFound, err, "no_store")
		return
	}
	if err != nil {
		writeErrorKind(w, r, http.StatusBadRequest, err, "bad_request")
		return
	}
	if !ok {
		writeErrorKind(w, r, http.StatusNotFound, errors.New("no stored result under that key"), "not_found")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(val)
}

// handlePutResult installs a stored result computed on another replica
// — the replica-transfer write side. The engine validates the codec
// and that the value's content hash matches the key before anything is
// persisted or cached.
func (s *server) handlePutResult(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErrorKind(w, r, http.StatusBadRequest, errors.New("missing key parameter"), "bad_request")
		return
	}
	val, err := upload.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, r, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeErrorKind(w, r, http.StatusBadRequest, err, "bad_request")
		return
	}
	if err := s.eng.InjectResult(key, val); err != nil {
		if errors.Is(err, engine.ErrNoStore) {
			writeErrorKind(w, r, http.StatusNotFound, err, "no_store")
			return
		}
		writeErrorKind(w, r, http.StatusBadRequest, err, "bad_request")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "stored"})
}

// keysResponse is GET /v1/keys: every persisted result key, the
// inventory the router's re-replication diff walks.
type keysResponse struct {
	Count int      `json:"count"`
	Keys  []string `json:"keys"`
}

func (s *server) handleKeys(w http.ResponseWriter, r *http.Request) {
	keys, err := s.eng.StoreKeys()
	if errors.Is(err, engine.ErrNoStore) {
		writeErrorKind(w, r, http.StatusNotFound, err, "no_store")
		return
	}
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, http.StatusOK, keysResponse{Count: len(keys), Keys: keys})
}

// handleCompact runs one explicit store compaction and reports what it
// reclaimed. Admin surface: the background compactor does the same on
// its own schedule; this exists for tests, runbooks, and the CI smoke.
func (s *server) handleCompact(w http.ResponseWriter, r *http.Request) {
	res, err := s.eng.CompactStore()
	if errors.Is(err, engine.ErrNoStore) {
		writeErrorKind(w, r, http.StatusNotFound, err, "no_store")
		return
	}
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// middleware is the observability edge shared by every route: it mints
// (or adopts) the per-request trace ID, returns it in the
// X-Funseeker-Request-Id header, threads it through the request context
// so every slog line below carries it, captures status/bytes for the
// access log, feeds the HTTP metrics, and promotes requests slower than
// the configured threshold to a WARN line.
func (s *server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.RequestIDHeader)
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		ctx := obs.WithRequestID(r.Context(), id)
		r = r.WithContext(ctx)
		w.Header().Set(obs.RequestIDHeader, id)

		rw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rw, r)
		elapsed := time.Since(start)

		s.reqsByKind.With(statusKind(rw.status)).Inc()
		s.reqSeconds.ObserveDuration(elapsed)

		if s.cfg.logger == nil {
			return
		}
		attrs := []any{
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"query", r.URL.RawQuery,
			"status", rw.status,
			"bytes_out", rw.bytes,
			"duration_ms", float64(elapsed) / float64(time.Millisecond),
			"remote", r.RemoteAddr,
		}
		// Context-free on purpose: these lines carry request_id as an
		// explicit attr, so the context decorator must not stamp a second
		// copy. Handler-level logging below the middleware uses the
		// ...Context forms and gets the ID from the decorator instead.
		s.cfg.logger.Info("request", attrs...)
		if s.cfg.slowThreshold > 0 && elapsed > s.cfg.slowThreshold {
			s.cfg.logger.Warn("slow request",
				append(attrs, "threshold_ms", float64(s.cfg.slowThreshold)/float64(time.Millisecond))...)
		}
	})
}

// statusWriter captures the status code and byte count for the access
// log while passing the optional http.ResponseWriter extensions through:
// Flush for streaming handlers (pprof's profile/trace endpoints write
// incrementally) and Unwrap for http.ResponseController.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush forwards to the underlying writer's Flusher, if any — without
// this the wrapper would silently hide streaming support from handlers
// that probe for http.Flusher.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

// writeJSON answers with v as compact JSON, one line.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeErrorKind(w, r, status, err, "")
}

func writeErrorKind(w http.ResponseWriter, r *http.Request, status int, err error, kind string) {
	writeJSON(w, status, errorResponse{
		Error:     err.Error(),
		Kind:      kind,
		RequestID: obs.RequestID(r.Context()),
	})
}
