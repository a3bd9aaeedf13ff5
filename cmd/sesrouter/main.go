// Command sesrouter fronts a partitioned sesd cluster: it accepts the
// same HTTP API as a single sesd node, splits NDJSON ingest batches by
// the partition key, stamps every event with a cluster-global sequence
// number and fans the sub-batches to the owning nodes — failing over
// to a partition's warm standby when the leader refuses or disappears.
// Query registration fans to every partition, and the read endpoints
// merge the per-partition match streams into one deterministic stream
// that is byte-identical to what a single sesd evaluating the whole
// stream would serve.
//
// Usage:
//
//	sesrouter -cluster cluster.conf -schema 'ID:int,L:string,V:float,U:string'
//
// Flags:
//
//	-addr ADDR          HTTP listen address (default :8133)
//	-cluster FILE       membership file (required; see docs/OPERATIONS.md §8)
//	-schema SPEC        event schema as name:type,... (required; must
//	                    match the nodes')
//	-inflight N         queued-but-unacknowledged sub-batches per
//	                    partition before ingest blocks (default 8)
//	-health-every D     node health polling interval (default 500ms)
//	-retry-attempts N   delivery attempts per sub-batch before the
//	                    batch fails (default 20, exponential backoff
//	                    10ms..2s between attempts)
//
// The HTTP API mirrors sesd: POST /events, POST/GET/DELETE /queries,
// GET /queries/{id}/matches (?from, ?follow, NDJSON or SSE),
// GET /queries/{id}/stats, GET /healthz (the aggregated cluster view)
// and GET /metrics.
//
// On startup the router probes every partition for its persisted
// sequence high-water and resumes the global numbering above it, so a
// router restart cannot re-issue sequence numbers the cluster has
// already seen. On SIGTERM or SIGINT it stops accepting requests and
// shuts down; in-flight sub-batches are delivered first.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/resilience"
)

func main() {
	var (
		addr        = flag.String("addr", ":8133", "HTTP listen address")
		clusterFile = flag.String("cluster", "", "membership file (required)")
		schemaSpec  = flag.String("schema", "", "event schema as name:type,... (types: string, int, float)")
		inflight    = flag.Int("inflight", 0, "queued-but-unacknowledged sub-batches per partition (default 8)")
		healthEvery = flag.Duration("health-every", 0, "node health polling interval (default 500ms)")
		attempts    = flag.Int("retry-attempts", 0, "delivery attempts per sub-batch before the batch fails (default 20)")
	)
	flag.Parse()
	if err := run(*addr, *clusterFile, *schemaSpec, *inflight, *healthEvery, *attempts, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sesrouter:", err)
		os.Exit(1)
	}
}

// HTTP server timeouts: a client that never finishes its request
// headers, or parks an idle keep-alive connection, is dropped. There
// is deliberately no WriteTimeout — ?follow=1 merged match streams are
// legitimately long-lived responses.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpIdleTimeout       = 2 * time.Minute
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: httpReadHeaderTimeout, IdleTimeout: httpIdleTimeout}
}

// run starts the router and blocks until a termination signal. When
// ready is non-nil it receives the resolved listen address once the
// router accepts connections (used by tests).
func run(addr, clusterFile, schemaSpec string, inflight int, healthEvery time.Duration, attempts int, logw *os.File, ready chan<- string) error {
	if clusterFile == "" {
		return fmt.Errorf("-cluster is required (the membership file)")
	}
	schema, err := event.ParseSchema(schemaSpec)
	if err != nil {
		return fmt.Errorf("-schema: %w", err)
	}
	m, err := cluster.LoadMembership(clusterFile)
	if err != nil {
		return err
	}
	reg := ses.NewMetricsRegistry()
	router, err := cluster.NewRouter(cluster.RouterOptions{
		Membership:  m,
		Schema:      schema,
		InFlight:    inflight,
		Registry:    reg,
		HealthEvery: healthEvery,
		Retry:       resilience.RetryPolicy{MaxAttempts: attempts},
	})
	if err != nil {
		return err
	}
	startCtx, cancelStart := context.WithTimeout(context.Background(), 30*time.Second)
	err = router.Start(startCtx)
	cancelStart()
	if err != nil {
		return err
	}
	defer router.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(router.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(logw, "sesrouter: routing %d partitions (key %s, %d slots) on http://%s/, next seq %d\n",
		len(m.Partitions), m.Key, m.Slots, ln.Addr(), router.NextSeq())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	fmt.Fprintln(logw, "sesrouter: stopped")
	return nil
}
