// Command funseeker-lb is the consistent-hash routing layer in front
// of N funseekerd replicas.
//
// Usage:
//
//	funseeker-lb -backends http://h1:8745,http://h2:8745 [-addr :8744]
//	             [-replicas 2] [-max-body B] [-health-interval 2s]
//	             [-log text|json]
//
// Routing:
//
//	POST /v1/analyze  — routed by the binary's SHA-256 on a consistent-
//	                    hash ring of 512 virtual nodes per backend, so
//	                    each binary's cached/stored result lives on one
//	                    owner replica. Connection-level failures fail
//	                    over to the next replicas in ring order, and to
//	                    2 successors past the replica set; HTTP errors
//	                    are the backend's answer and are relayed as-is
//	                    (including 429 + Retry-After from a shedding
//	                    replica).
//	POST /v1/batch    — streamed round-robin to one healthy replica
//	                    (an archive has no single content hash).
//	GET  /v1/healthz  — router liveness + current ring size.
//	GET  /lb/nodes    — per-backend health, ring membership, and each
//	                    node's relayed v2 stats document.
//	GET  /metrics     — router metrics (routed/failover/unrouted and
//	                    replica write/fallback/repair counters,
//	                    per-backend health gauges).
//
// Replication (-replicas N, default 2): after every successful analyze
// the stored result is copied — by value transfer over GET/PUT
// /v1/result, never recomputation — to the first N distinct nodes in
// ring order for that binary. Killing any one node then fails its keys
// over to a sibling that already holds them warm, and when the node
// rejoins, a repair pass diffs /v1/keys against a healthy donor and
// copies back everything it missed. -replicas 1 disables all of this.
//
// A background loop probes every backend's /v1/healthz (each probe
// times out after 2 s); a replica that fails its probe (or a forward)
// leaves the ring — remapping only its ~1/N share of the key space —
// and rejoins on the next passing probe.
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
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "funseeker-lb:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8744", "listen address")
		backends    = flag.String("backends", "", "comma-separated funseekerd base URLs (required)")
		replicas    = flag.Int("replicas", 2, "nodes holding each result (1 disables replication)")
		maxBody     = flag.Int64("max-body", 64<<20, "max /v1/analyze body bytes (buffered to hash)")
		healthEvery = flag.Duration("health-interval", 2*time.Second, "backend health-probe cadence")
		logFormat   = flag.String("log", "text", "log format: text or json")
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
	logger := slog.New(handler)

	var list []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSuffix(strings.TrimSpace(b), "/"); b != "" {
			list = append(list, b)
		}
	}
	rt, err := newRouter(routerConfig{
		backends:     list,
		replicas:     *replicas,
		maxBodyBytes: *maxBody,
		healthEvery:  *healthEvery,
		logger:       logger,
	})
	if err != nil {
		return err
	}

	stop := make(chan struct{})
	if *healthEvery > 0 {
		go rt.healthLoop(stop)
	}
	defer close(stop)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("routing", "addr", *addr, "backends", len(list))
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		srv.Close()
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
