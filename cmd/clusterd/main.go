// Clusterd is the scheduling daemon: a long-running HTTP service in
// front of the clustersched pipeline with a content-addressed result
// cache, request coalescing, bounded concurrency with 429
// backpressure, and graceful drain.
//
// Usage:
//
//	clusterd                              # listen on :8425
//	clusterd -addr 127.0.0.1:0            # pick a free port (printed)
//	clusterd -cache-mb 256 -timeout 30s   # bigger cache, bounded runs
//	clusterd -max-inflight 64             # admit at most 64 requests
//	clusterd -trace events.jsonl          # stream pipeline trace events
//
// The API (POST /v1/schedule, /v1/batch, /v1/compile, /v1/lint; GET
// /healthz, /statsz) is documented in docs/SERVICE.md. On SIGINT or SIGTERM the
// daemon stops accepting connections, drains in-flight requests for up
// to -drain, then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clustersched/internal/obs"
	"clustersched/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8425", "listen address (host:port; port 0 picks a free one)")
		cacheMB     = flag.Int("cache-mb", 64, "result cache budget in MiB")
		timeout     = flag.Duration("timeout", 0, "per-request schedule timeout (0 = bounded only by the client)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently admitted requests before 429 (0 = 4 x GOMAXPROCS)")
		workers     = flag.Int("workers", 0, "batch fan-out width (0 = GOMAXPROCS)")
		drain       = flag.Duration("drain", 30*time.Second, "max time to drain in-flight requests on shutdown")
		trace       = flag.String("trace", "", "stream every pipeline trace event as JSON lines to this file (- for stderr)")
		node        = flag.String("node", "", "node identity reported on /fleetz (default: the listen address)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "clusterd: ", log.LstdFlags)

	cfg := server.Config{
		CacheBytes:  int64(*cacheMB) << 20,
		Timeout:     *timeout,
		MaxInflight: *maxInflight,
		Workers:     *workers,
		NodeID:      *node,
	}
	finishTrace := func() error { return nil }
	if *trace != "" {
		j, finish, err := obs.CreateJSON(*trace)
		if err != nil {
			logger.Fatal(err)
		}
		cfg.Observer, finishTrace = j, finish
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	if cfg.NodeID == "" {
		cfg.NodeID = ln.Addr().String()
	}
	srv := &http.Server{
		Handler:           server.New(cfg),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The multi-process tests and bench/ parse this line to find the port.
	fmt.Printf("clusterd: listening on http://%s\n", ln.Addr())
	logger.Printf("cache %d MiB, timeout %v, max in-flight %d",
		*cacheMB, *timeout, *maxInflight)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		logger.Fatal(err)
	case <-ctx.Done():
	}

	logger.Printf("signal received, draining for up to %v", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("drain incomplete: %v", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("serve: %v", err)
	}
	if err := finishTrace(); err != nil {
		logger.Printf("trace: %v", err)
		os.Exit(1)
	}
	logger.Printf("drained, bye")
}
