// Command funseekerd serves FunSeeker function identification over HTTP,
// backed by the corpus-scale analysis engine: a bounded worker pool, a
// content-hash (SHA-256) LRU result cache, and cooperative cancellation
// threaded down into the linear sweep.
//
// Usage:
//
//	funseekerd [-addr :8745] [-jobs N] [-cache-bytes B]
//	           [-max-body B] [-max-batch B] [-timeout 30s]
//	           [-shutdown-grace 10s] [-require-cet]
//	           [-store-dir DIR] [-store-segment-bytes B]
//	           [-shed-queue-p99 D] [-shed-window 10s]
//	           [-log text|json] [-slow 1s] [-debug-addr addr]
//
// Endpoints:
//
//	POST /v1/analyze   analyze an ELF image. The image is the raw request
//	                   body, or the "binary" file field of a multipart
//	                   form. Query: config=1..4 (Table II configuration,
//	                   default 4), superset=1 (byte-level end-branch
//	                   scan), require_cet=1 (fail on endbr-free
//	                   binaries). Returns the report as JSON.
//	POST /v1/batch     analyze a tar archive (or multipart form) of ELF
//	                   images; results stream back as NDJSON, one
//	                   record per member in archive order, errors
//	                   isolated per member, then a summary line.
//	GET  /v1/healthz   liveness probe.
//	GET  /v1/stats     versioned stats document ("v": 2): engine, cache,
//	                   store (with compaction), shed, and server blocks.
//	                   Any ?v other than 2 is a 400. The flat engine
//	                   counters (not this document) are published
//	                   through expvar under "funseeker" at /debug/vars.
//	GET  /v1/result    raw stored-result value by hex store key; with
//	PUT  /v1/result    and GET /v1/keys this is the replica-transfer
//	                   surface funseeker-lb uses to copy results between
//	                   nodes instead of recomputing them.
//	POST /v1/admin/compact  run one store compaction immediately.
//	GET  /metrics      Prometheus text-format exposition: request
//	                   counters by status kind, analyze/stage latency
//	                   histograms, cache hit/miss/coalesced counters.
//
// With -store-dir set, every cold result is written through to a
// crash-safe append-only store in that directory and served from it
// after a restart (Cached: "store"). With -shed-queue-p99 set, the
// server refuses new analysis work with 429 + Retry-After while the
// windowed queue-wait p99 is over the bound.
//
// Every response carries an X-Funseeker-Request-Id header (generated at
// the edge, or adopted from a well-formed client-supplied value); the
// same ID appears on every access-log line and inside error envelopes.
// Requests slower than -slow are additionally logged at WARN level.
//
// With -debug-addr set, a second listener serves net/http/pprof,
// /debug/vars, and /metrics — keep it on localhost or a management
// network; profiles are not for the public edge.
//
// The server stops accepting work on SIGINT/SIGTERM and gives in-flight
// requests -shutdown-grace to finish before hard-closing connections,
// which cancels their contexts and (through the engine) stops their
// sweeps.
package main

import (
	"context"
	"errors"
	"expvar"
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
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "funseekerd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8745", "listen address")
		jobs         = flag.Int("jobs", 0, "max concurrent analyses (0 = GOMAXPROCS)")
		cacheBytes   = flag.Int64("cache-bytes", engine.DefaultCacheBytes, "result-cache budget in bytes (negative disables)")
		maxBody      = flag.Int64("max-body", 64<<20, "max request body bytes")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request analysis timeout (0 disables)")
		grace        = flag.Duration("shutdown-grace", 10*time.Second, "graceful-shutdown window")
		requireCET   = flag.Bool("require-cet", false, "reject binaries without any end-branch instruction")
		storeDir     = flag.String("store-dir", "", "persistent result-store directory (empty disables persistence)")
		storeSeg     = flag.Int64("store-segment-bytes", 0, "persistent-store segment rotation size (0 = default)")
		compactEvery = flag.Duration("store-compact-every", 0, "background store-compaction check interval (0 = default, negative disables)")
		compactRatio = flag.Float64("store-compact-ratio", 0, "garbage ratio that triggers background compaction (0 = default)")
		compactMin   = flag.Int64("store-compact-min-bytes", 0, "on-disk floor below which background compaction never runs (0 = default)")
		maxBatch     = flag.Int64("max-batch", 0, "max /v1/batch upload bytes (0 = 16x max-body)")
		shedP99      = flag.Duration("shed-queue-p99", 0, "shed with 429 when queue-wait p99 exceeds this (0 disables)")
		shedWin      = flag.Duration("shed-window", 0, "sampling window for the shed signal (0 = default, negative = cumulative)")
		logFormat    = flag.String("log", "text", "log format: text or json")
		slow         = flag.Duration("slow", time.Second, "WARN-log requests slower than this (0 disables)")
		debugAddr    = flag.String("debug-addr", "", "optional debug listen address for pprof/expvar/metrics (e.g. 127.0.0.1:8746)")
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
	// The obs wrapper stamps request_id onto every line logged with a
	// request context — handlers and everything below them just log.
	logger := slog.New(obs.NewLogHandler(handler))

	// One registry spans both layers: the engine's stage/cache series
	// and the server's HTTP series come out of the same /metrics scrape.
	// Defaults and validation for every engine knob — cache budget,
	// store sizing, compaction, shedding — live in Config.Normalize, so
	// the flags above pass zeros straight through. With -store-dir set,
	// the engine opens (and owns) the persistent store: results computed
	// before a crash or deploy are served warm (CacheSource "store")
	// after a restart, and the background compactor keeps superseded
	// records from accumulating.
	reg := obs.NewRegistry()
	eng, err := engine.New(engine.Config{
		Jobs:                     *jobs,
		CacheBytes:               *cacheBytes,
		RequireCET:               *requireCET,
		StoreDir:                 *storeDir,
		StoreSegmentBytes:        *storeSeg,
		StoreCompactEvery:        *compactEvery,
		StoreCompactGarbageRatio: *compactRatio,
		StoreCompactMinBytes:     *compactMin,
		ShedQueueP99:             *shedP99,
		ShedWindow:               *shedWin,
		Registry:                 reg,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	if st := eng.Stats().Store; st != nil {
		logger.Info("result store open", "dir", st.Dir,
			"records", st.Records, "segments", st.Segments,
			"recovered", st.RecoveredRecords, "truncated_bytes", st.TruncatedBytes)
	}
	srv2 := newServer(eng, serverConfig{
		maxBodyBytes:  *maxBody,
		maxBatchBytes: *maxBatch,
		reqTimeout:    *timeout,
		slowThreshold: *slow,
		logger:        logger,
		registry:      reg,
	})
	srvHandler := srv2.handler()

	// Publish the engine snapshot through expvar; /debug/vars comes with
	// the expvar import's default mux registration, so wire the default
	// mux in behind our own routes.
	expvar.Publish("funseeker", expvar.Func(func() any { return eng.Stats() }))
	mux := http.NewServeMux()
	mux.Handle("/v1/", srvHandler)
	mux.Handle("/metrics", srvHandler)
	mux.Handle("/debug/vars", expvar.Handler())

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
		Handler:           mux,
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
