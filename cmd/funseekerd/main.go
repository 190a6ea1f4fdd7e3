// Command funseekerd serves FunSeeker function identification over HTTP,
// backed by the corpus-scale analysis engine: a bounded worker pool, a
// content-hash (SHA-256) LRU result cache, and cooperative cancellation
// threaded down into the linear sweep.
//
// Usage:
//
//	funseekerd [-addr :8745] [-jobs N] [-cache-bytes B]
//	           [-max-body B] [-max-batch B] [-timeout 30s]
//	           [-shutdown-grace 10s] [-store-dir DIR]
//	           [-shed-queue-p99 D] [-log text|json] [-slow 1s]
//	           [-debug-addr addr]
//
// Endpoints:
//
//	POST /v1/analyze   analyze the ELF image sent as the raw request
//	                   body. Query: config=1..5 (Table II
//	                   configuration, default 4; 5 fuses .eh_frame
//	                   FDE starts), superset=1 (byte-level end-branch
//	                   scan), require_cet=1 (fail on endbr-free
//	                   binaries); any other key is a 400. The ELF
//	                   header picks the backend (x86, x86-64 or
//	                   aarch64). Returns the report as JSON.
//	POST /v1/batch     analyze a tar stream of ELF images; results
//	                   stream back as NDJSON, one record per member in
//	                   archive order, errors isolated per member, then
//	                   a summary line.
//	GET  /v1/healthz   liveness probe.
//	GET  /v1/stats     versioned stats document ("v": 2): engine, cache,
//	                   store (with compaction), shed, and server blocks.
//	                   Any ?v other than 2 is a 400.
//	GET  /v1/result    raw stored-result value by hex store key; with
//	PUT  /v1/result    and GET /v1/keys this is the replica-transfer
//	                   surface funseeker-lb uses to copy results between
//	                   nodes instead of recomputing them.
//	POST /v1/admin/compact  run one store compaction immediately.
//	GET  /metrics      Prometheus text-format exposition: request
//	                   counters by status kind, analyze/stage latency
//	                   histograms, cache hit/miss/coalesced counters.
//
// A multipart/form-data request to /v1/analyze or /v1/batch is a 400
// that names the accepted form.
//
// With -store-dir set, every cold result is written through to a
// crash-safe append-only store in that directory and served from it
// after a restart (Cached: "store"); a background compactor checks the
// store's garbage once a minute. With -shed-queue-p99 set, the server
// refuses new analysis work with 429 + Retry-After while the queue-wait
// p99 of the last 10 s window is over the bound.
//
// Every response carries an X-Funseeker-Request-Id header (generated at
// the edge, or adopted from a well-formed client-supplied value); the
// same ID appears on every access-log line and inside error envelopes.
// Requests slower than -slow are additionally logged at WARN level.
//
// With -debug-addr set, a second listener serves net/http/pprof — keep
// it on localhost or a management network; profiles are not for the
// public edge.
//
// The server stops accepting work on SIGINT/SIGTERM and gives in-flight
// requests -shutdown-grace to finish before hard-closing connections,
// which cancels their contexts and (through the engine) stops their
// sweeps.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/funseeker/funseeker/internal/engine"
	"github.com/funseeker/funseeker/internal/obs"
	"github.com/funseeker/funseeker/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "funseekerd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8745", "listen address")
		jobs       = flag.Int("jobs", 0, "max concurrent analyses (0 = GOMAXPROCS)")
		cacheBytes = flag.Int64("cache-bytes", engine.DefaultCacheBytes, "result-cache budget in bytes (negative disables)")
		maxBody    = flag.Int64("max-body", 64<<20, "max request body bytes")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request analysis timeout (0 disables)")
		grace      = flag.Duration("shutdown-grace", 10*time.Second, "graceful-shutdown window")
		storeDir   = flag.String("store-dir", "", "persistent result-store directory (empty disables persistence)")
		maxBatch   = flag.Int64("max-batch", 0, "max /v1/batch upload bytes (0 = 16x max-body)")
		shedP99    = flag.Duration("shed-queue-p99", 0, "shed with 429 when queue-wait p99 exceeds this (0 disables)")
		logFormat  = flag.String("log", "text", "log format: text or json")
		slow       = flag.Duration("slow", time.Second, "WARN-log requests slower than this (0 disables)")
		debugAddr  = flag.String("debug-addr", "", "optional debug listen address for pprof (e.g. 127.0.0.1:8746)")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("-log must be text or json, got %q", *logFormat)
	}
	if *shedP99 < 0 {
		return fmt.Errorf("-shed-queue-p99 must not be negative, got %v", *shedP99)
	}
	// The obs wrapper stamps request_id onto every line logged with a
	// request context — handlers and everything below them just log.
	logger := slog.New(obs.NewLogHandler(handler))

	// With -store-dir set, results computed before a crash or deploy are
	// served warm (CacheSource "store") after a restart, and the
	// background compactor keeps superseded records from accumulating.
	// The store is closed only after the HTTP server has drained.
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{CompactEvery: time.Minute})
		if err != nil {
			return fmt.Errorf("opening store %s: %w", *storeDir, err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				logger.Warn("closing result store", "err", err)
			}
		}()
		ss := st.Stats()
		logger.Info("result store open", "dir", ss.Dir,
			"records", ss.Records, "segments", ss.Segments,
			"recovered", ss.RecoveredRecords, "truncated_bytes", ss.TruncatedBytes)
	}

	// One registry spans both layers: the engine's stage/cache series
	// and the server's HTTP series come out of the same /metrics scrape.
	reg := obs.NewRegistry()
	eng := engine.New(engine.Config{
		Jobs:       *jobs,
		CacheBytes: *cacheBytes,
		Store:      st,
		Registry:   reg,
	})
	srv2 := newServer(eng, serverConfig{
		maxBodyBytes:  *maxBody,
		maxBatchBytes: *maxBatch,
		reqTimeout:    *timeout,
		slowThreshold: *slow,
		logger:        logger,
		registry:      reg,
		shedQueueP99:  *shedP99,
	})

	// The debug listener is opt-in and meant for localhost/management
	// networks: pprof profiles and traces stream from here without
	// exposing them on the public edge.
	if *debugAddr != "" {
		dsrv := &http.Server{
			Addr:              *debugAddr,
			Handler:           srv2.debugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("debug listening", "addr", *debugAddr)
			if err := dsrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("debug listener failed", "err", err)
			}
		}()
		defer dsrv.Close()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           srv2.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "jobs", eng.Jobs(), "cache_bytes", *cacheBytes)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err // bind failure etc.
	case <-ctx.Done():
	}

	logger.Info("shutting down", "grace", grace.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Grace expired: hard-close the remaining connections, which
		// cancels their request contexts and stops their sweeps.
		logger.Warn("graceful shutdown expired, closing", "err", err)
		if cerr := srv.Close(); cerr != nil {
			return cerr
		}
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("stopped")
	return nil
}
