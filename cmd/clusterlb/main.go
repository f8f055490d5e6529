// Clusterlb is the fleet front end: an HTTP balancer fanning the
// clusterd API (/v1/schedule, /v1/batch, /v1/lint) out over N
// workers. Schedule requests route to the consistent-hash owner of
// their cache key so repeated requests stay on a warm cache; batch
// and lint go to the least-loaded live worker; slow
// schedule requests are hedged to a second worker after a
// p99-derived delay. Worker health is tracked via /fleetz heartbeats
// and transport failures, and a dead worker only remaps the slice of
// keys it owned.
//
// Usage:
//
//	clusterlb -workers http://h1:8425,http://h2:8425,http://h3:8425
//	clusterlb -addr 127.0.0.1:0 -workers ...    # pick a free port (printed)
//	clusterlb -hedge 0.05 -hedge-min 50ms       # tighter hedge budget
//	clusterlb -heartbeat 500ms                  # faster probes
//
// GET /healthz answers ok while at least one worker is alive; GET
// /statsz reports placement, hedge, failover, and ring counters plus
// the per-worker membership table (docs/SERVICE.md has the fleet
// deployment guide).
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
	"strings"
	"syscall"
	"time"

	"clustersched/internal/balance"
)

func main() {
	var (
		addr      = flag.String("addr", ":8426", "listen address (host:port; port 0 picks a free one)")
		workers   = flag.String("workers", "", "comma-separated clusterd base URLs (required)")
		heartbeat = flag.Duration("heartbeat", time.Second, "worker /fleetz poll interval")
		hedge     = flag.Float64("hedge", 0.1, "hedge budget as a fraction of dispatches (0 disables hedging)")
		hedgeMin  = flag.Duration("hedge-min", 20*time.Millisecond, "hedge delay floor (used until p99 is known)")
		timeout   = flag.Duration("timeout", 0, "per-request end-to-end timeout including failover (0 = client-bounded)")
		drain     = flag.Duration("drain", 30*time.Second, "max time to drain in-flight requests on shutdown")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "clusterlb: ", log.LstdFlags)

	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	b, err := balance.New(balance.Config{
		Workers:        urls,
		HeartbeatEvery: *heartbeat,
		HedgeBudget:    *hedge,
		HedgeAfterMin:  *hedgeMin,
		RequestTimeout: *timeout,
	})
	if err != nil {
		logger.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	srv := &http.Server{
		Handler:           b,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The smoke and bench scripts parse this line to find the port.
	fmt.Printf("clusterlb: listening on http://%s\n", ln.Addr())
	logger.Printf("%d workers, heartbeat %v, hedge %.2f (min %v)",
		len(urls), *heartbeat, *hedge, *hedgeMin)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go b.Run(ctx)

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
	logger.Printf("drained, bye")
}
