// Command sesd is the SES pattern matching server: a long-running
// process that ingests one event stream over HTTP and evaluates every
// registered SES query against it concurrently.
//
// Usage:
//
//	sesd -schema 'ID:int,L:string,V:float,U:string'
//	sesd -schema 'ID:int,L:string' -addr :9000 -checkpoint-dir /var/lib/sesd
//
// Flags:
//
//	-addr ADDR             HTTP listen address (default :8134)
//	-schema SPEC           event schema as name:type,... (required;
//	                       types: string, int, float)
//	-mailbox N             per-query mailbox capacity in event blocks (default 16)
//	-matchlog N            retained matches per query (default 4096)
//	-checkpoint-dir DIR    persist checkpoints and the query manifest
//	-checkpoint-every N    events between checkpoints (default 256)
//	-drain-timeout D       max graceful-drain wait (default 30s)
//	-wal-dir DIR           append every admitted event to a durable
//	                       segmented log in DIR before fan-out
//	-fsync POLICY          WAL flush policy: always, interval or never
//	                       (default interval)
//	-fsync-interval D      flush period of the interval policy
//	                       (default 100ms)
//	-segment-bytes N       WAL segment rotation size (default 64 MiB)
//	-retain-bytes N        reclaim oldest WAL segments beyond this
//	                       total size (default: keep everything)
//	-retain-age D          reclaim WAL segments older than D
//	                       (default: keep everything)
//	-unshipped-cap N       reclaim unshipped WAL segments (held for a
//	                       follower) beyond this many bytes, loudly
//	                       (default: hold them indefinitely)
//	-follow URL            start as a warm-standby follower of the
//	                       leader at URL: read-only, replicating its
//	                       WAL and query set (requires -wal-dir)
//	-promote-after D       with -follow: promote to leader after the
//	                       leader has been unreachable for D
//	                       (default: manual promotion only)
//	-peer URL              check the peer's fencing epoch at startup
//	                       and refuse writes if it is higher (set it
//	                       on a restarted ex-leader to its standby)
//	-cluster FILE          membership file of the partitioned cluster
//	                       this node serves in (see docs/OPERATIONS.md
//	                       §8); requires -partition
//	-partition N           with -cluster: the partition id this node
//	                       serves. The node adopts the partition's
//	                       keyspace slice: events keep the sequence
//	                       numbers the router assigned instead of
//	                       being numbered by the node, events hashing
//	                       outside the slice are refused with 421, and
//	                       duplicate deliveries are dropped
//	                       idempotently. A -wal-dir holding segments
//	                       from before WAL records carried their
//	                       sequence number is refused.
//
// The HTTP API (see docs/OPERATIONS.md for the full reference):
//
//	POST   /events               ingest events, one JSON object per line
//	POST   /queries              register a query
//	GET    /queries              list queries
//	GET    /queries/{id}         one query's state
//	DELETE /queries/{id}         remove a query
//	GET    /queries/{id}/matches stream matches (NDJSON or SSE, ?follow=1)
//	GET    /queries/{id}/stats   aggregate results of an AGGREGATE query
//	                             (JSON snapshot, or SSE deltas with ?follow=1)
//	POST   /promote              promote a follower to leader
//	GET    /healthz              liveness (role + fencing epoch)
//	GET    /metrics              Prometheus metrics
//	GET    /debug/pprof/         profiling
//	GET    /replica/manifest     replication manifest (with -wal-dir)
//	GET    /replica/wal          CRC-framed WAL records (with -wal-dir)
//
// On SIGTERM or SIGINT the server drains gracefully: ingest is
// refused, every query's pipeline consumes its backlog and flushes its
// window, supervised queries write a final checkpoint, and the query
// set is persisted. A sesd restarted with the same -checkpoint-dir
// re-registers the persisted queries and resumes their checkpoints.
//
// With -wal-dir the server additionally owns its ingest durability: a
// crashed or killed sesd restarted over the same directories rebuilds
// every query by replaying its own log from the per-query checkpoint
// watermark (or registration offset) — the upstream source does not
// re-send anything — and POST /queries?backfill=true bootstraps a new
// query from the retained history.
//
// With -follow the process runs as a warm standby: it mirrors the
// leader's WAL and query set, serves read-only match streams at a
// small replication lag, and takes over on POST /promote (or
// automatically after -promote-after without leader contact). The
// promotion bumps a fencing epoch persisted in the WAL manifest; a
// revived old leader started with -peer pointing at the standby
// observes the higher epoch and refuses writes instead of forking the
// log. See docs/OPERATIONS.md for the replication runbook.
package main

import (
	"context"
	"errors"
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
	"repro/internal/replica"
)

// options collects the command line configuration of one run.
type options struct {
	addr            string
	schemaSpec      string
	mailbox         int
	matchLog        int
	checkpointDir   string
	checkpointEvery int
	drainTimeout    time.Duration
	walDir          string
	fsync           string
	fsyncInterval   time.Duration
	segmentBytes    int64
	retainBytes     int64
	retainAge       time.Duration
	unshippedCap    int64
	follow          string
	promoteAfter    time.Duration
	peer            string
	clusterFile     string
	partition       int
	// idleTimeout overrides httpIdleTimeout when positive. No flag sets
	// it: the smoke test lowers it to outlive it with a follow stream.
	idleTimeout time.Duration
}

// HTTP server timeouts: a client that never finishes its request
// headers, or parks an idle keep-alive connection, is dropped. There
// is deliberately no WriteTimeout — ?follow=1 match streams and
// /replica/wal long-polls are legitimately long-lived responses.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpIdleTimeout       = 2 * time.Minute
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: httpReadHeaderTimeout, IdleTimeout: httpIdleTimeout}
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8134", "HTTP listen address")
	flag.StringVar(&o.schemaSpec, "schema", "", "event schema as name:type,... (types: string, int, float)")
	flag.IntVar(&o.mailbox, "mailbox", 0, "per-query mailbox capacity in event blocks (default 16)")
	flag.IntVar(&o.matchLog, "matchlog", 0, "retained matches per query (default 4096)")
	flag.StringVar(&o.checkpointDir, "checkpoint-dir", "", "directory for checkpoints and the query manifest")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 0, "events between checkpoints (default 256)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "maximum graceful-drain wait on shutdown")
	flag.StringVar(&o.walDir, "wal-dir", "", "directory for the durable ingest WAL (enables crash replay and backfill)")
	flag.StringVar(&o.fsync, "fsync", "", "WAL flush policy: always, interval or never (default interval)")
	flag.DurationVar(&o.fsyncInterval, "fsync-interval", 0, "flush period of the interval policy (default 100ms)")
	flag.Int64Var(&o.segmentBytes, "segment-bytes", 0, "WAL segment rotation size in bytes (default 64 MiB)")
	flag.Int64Var(&o.retainBytes, "retain-bytes", 0, "reclaim oldest WAL segments beyond this total size (default: keep everything)")
	flag.DurationVar(&o.retainAge, "retain-age", 0, "reclaim WAL segments older than this (default: keep everything)")
	flag.Int64Var(&o.unshippedCap, "unshipped-cap", 0, "reclaim unshipped WAL segments beyond this many bytes (default: hold them for the follower indefinitely)")
	flag.StringVar(&o.follow, "follow", "", "run as a read-only follower replicating the leader at this URL (requires -wal-dir)")
	flag.DurationVar(&o.promoteAfter, "promote-after", 0, "with -follow: promote to leader after this long without leader contact (default: manual only)")
	flag.StringVar(&o.peer, "peer", "", "check this peer's fencing epoch at startup and refuse writes if it is higher")
	flag.StringVar(&o.clusterFile, "cluster", "", "membership file of the partitioned cluster this node serves in (requires -partition)")
	flag.IntVar(&o.partition, "partition", -1, "with -cluster: the partition id this node serves")
	flag.Parse()
	if err := run(o, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sesd:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until a termination signal drains
// it. When ready is non-nil it receives the resolved listen address
// once the server accepts connections (used by tests).
func run(o options, logw *os.File, ready chan<- string) error {
	schema, err := event.ParseSchema(o.schemaSpec)
	if err != nil {
		return fmt.Errorf("-schema: %w", err)
	}
	if o.follow != "" && o.walDir == "" {
		return fmt.Errorf("-follow requires -wal-dir (the follower appends the leader's records to its own WAL)")
	}
	if o.promoteAfter > 0 && o.follow == "" {
		return fmt.Errorf("-promote-after only makes sense with -follow")
	}
	var own *cluster.Ownership
	if o.clusterFile != "" {
		if o.partition < 0 {
			return fmt.Errorf("-cluster requires -partition (which slice this node serves)")
		}
		m, err := cluster.LoadMembership(o.clusterFile)
		if err != nil {
			return err
		}
		p := m.Partition(o.partition)
		if p == nil {
			return fmt.Errorf("partition %d is not declared in %s", o.partition, o.clusterFile)
		}
		if _, ok := schema.Index(m.Key); !ok {
			return fmt.Errorf("partition key %q is not a schema attribute (schema: %s)", m.Key, schema)
		}
		own = p.Ownership(m.Key, m.Slots)
	} else if o.partition >= 0 {
		return fmt.Errorf("-partition only makes sense with -cluster")
	}
	reg := ses.NewMetricsRegistry()
	srv, err := ses.NewServer(ses.ServerConfig{
		Schema:               schema,
		Ownership:            own,
		Registry:             reg,
		Mailbox:              o.mailbox,
		MatchLog:             o.matchLog,
		CheckpointDir:        o.checkpointDir,
		CheckpointEvery:      o.checkpointEvery,
		DrainTimeout:         o.drainTimeout,
		WALDir:               o.walDir,
		WALFsync:             o.fsync,
		WALFsyncInterval:     o.fsyncInterval,
		WALSegmentBytes:      o.segmentBytes,
		WALRetainBytes:       o.retainBytes,
		WALRetainAge:         o.retainAge,
		WALUnshippedCapBytes: o.unshippedCap,
	})
	if err != nil {
		return err
	}
	if o.follow != "" {
		srv.SetReadOnly()
	}
	if o.peer != "" {
		// Fencing check: a restarted ex-leader must observe a promoted
		// standby's higher epoch before accepting a single write.
		checkCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		epoch, ok := replica.CheckPeer(checkCtx, nil, o.peer)
		cancel()
		switch {
		case !ok:
			fmt.Fprintf(logw, "sesd: peer %s unreachable; proceeding with local epoch %d\n", o.peer, srv.Epoch())
		case epoch > srv.Epoch():
			srv.Fence(epoch)
			fmt.Fprintf(logw, "sesd: fenced: peer %s holds epoch %d > local %d; refusing writes\n", o.peer, epoch, srv.Epoch())
		default:
			fmt.Fprintf(logw, "sesd: peer %s at epoch %d, local %d; write path open\n", o.peer, epoch, srv.Epoch())
		}
	}

	mux := http.NewServeMux()
	if srv.WAL() != nil {
		shipper, err := replica.NewShipper(srv, reg)
		if err != nil {
			srv.Close()
			return err
		}
		mux.Handle("/replica/", shipper)
	}
	mux.Handle("/", srv.Handler())

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		srv.Close()
		return err
	}
	hs := newHTTPServer(mux)
	if o.idleTimeout > 0 {
		hs.IdleTimeout = o.idleTimeout
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(logw, "sesd: serving schema (%s) on http://%s/ as %s\n", schema, ln.Addr(), srv.Role())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	pullerCtx, stopPuller := context.WithCancel(context.Background())
	defer stopPuller()
	var pullerDone chan struct{}
	if o.follow != "" {
		p, err := replica.NewPuller(srv, replica.Options{
			Leader:           o.follow,
			AutoPromoteAfter: o.promoteAfter,
			Registry:         reg,
			Logf: func(format string, args ...interface{}) {
				fmt.Fprintf(logw, "sesd: "+format+"\n", args...)
			},
		})
		if err != nil {
			srv.Close()
			return err
		}
		pullerDone = make(chan struct{})
		go func() {
			defer close(pullerDone)
			switch err := p.Run(pullerCtx); {
			case err == nil:
				fmt.Fprintf(logw, "sesd: replication ended; now %s at epoch %d\n", srv.Role(), srv.Epoch())
			case errors.Is(err, context.Canceled):
			default:
				// Terminal replication failure (divergence, reclaimed
				// gap): keep serving the read-only state and leave the
				// decision — re-seed or promote — to the operator.
				fmt.Fprintf(logw, "sesd: replication stopped: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	stop()

	stopPuller()
	if pullerDone != nil {
		<-pullerDone
	}
	fmt.Fprintf(logw, "sesd: draining (up to %s)\n", o.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout+5*time.Second)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	shutdownErr := hs.Shutdown(drainCtx)
	if drainErr != nil {
		return drainErr
	}
	if shutdownErr != nil {
		return shutdownErr
	}
	fmt.Fprintln(logw, "sesd: drained cleanly")
	return nil
}
