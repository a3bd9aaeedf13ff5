package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/automaton"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/wal"
)

// Sentinel errors returned by the registry and ingest operations. The
// HTTP layer maps them to status codes (see Handler).
var (
	// ErrDraining rejects registrations and ingest after Drain began.
	ErrDraining = errors.New("server: draining")
	// ErrDuplicate rejects a registration whose id is taken. Distinct
	// ids compiling to the same automaton fingerprint are accepted and
	// share one compiled instance.
	ErrDuplicate = errors.New("server: duplicate query")
	// ErrNotFound reports an unknown query id.
	ErrNotFound = errors.New("server: no such query")
	// ErrNotOwned rejects an event whose partition key hashes outside
	// the server's owned keyspace slice (Config.Ownership): the event
	// was routed to the wrong node. The HTTP layer maps it to 421
	// Misdirected Request so a router can re-resolve the topology.
	ErrNotOwned = errors.New("server: event key outside owned keyspace slice")
)

// Config parameterizes a Server. Schema is required; every other
// field has a working default.
type Config struct {
	// Schema is the event schema of the ingest stream. Every
	// registered query compiles against it.
	Schema *event.Schema
	// Registry, when non-nil, receives the server's metrics and those
	// of every per-query pipeline (labeled query="<id>"), and is
	// served on /metrics by Handler.
	Registry *obs.Registry
	// Mailbox is the capacity of each query's input mailbox in event
	// blocks — one ingest batch is one block (default 16). Together
	// with the per-query Admission mode it bounds how far a slow query
	// may lag the shared ingest; the event backlog is bounded by
	// Mailbox times the largest batch size.
	Mailbox int
	// MatchLog is the number of encoded matches retained per query for
	// the streaming endpoint (default 4096); older matches are evicted.
	MatchLog int
	// CheckpointDir, when non-empty, persists the query runners'
	// checkpoints as <dir>/<id>.ckpt and the query manifest as
	// <dir>/queries.json. A server started over an existing directory
	// re-registers the manifest queries and resumes their checkpoints.
	CheckpointDir string
	// CheckpointEvery is the default checkpoint cadence in events for
	// every query (default 256); QuerySpec.CheckpointEvery
	// overrides it per query.
	CheckpointEvery int
	// DrainTimeout caps how long Drain waits for the per-query
	// pipelines to flush (default 30s).
	DrainTimeout time.Duration
	// WALDir, when non-empty, enables the durable ingest log: every
	// admitted event is appended to a segmented WAL in this directory
	// before fan-out, restarts replay the un-checkpointed suffix from
	// the server's own log (no upstream re-delivery needed), and
	// queries may register with backfill to process retained history.
	WALDir string
	// WALFsync is the WAL flush policy: "always", "interval" (default)
	// or "never". See wal.FsyncPolicy for the durability trade-offs.
	WALFsync string
	// WALFsyncInterval is the flush period under the "interval" policy
	// (default 100ms).
	WALFsyncInterval time.Duration
	// WALSegmentBytes is the segment rotation size (default 64 MiB).
	WALSegmentBytes int64
	// WALRetainBytes caps the WAL's total on-disk size; the oldest
	// segments are reclaimed beyond it. 0 keeps everything.
	WALRetainBytes int64
	// WALRetainAge reclaims segments whose newest record is older than
	// this. 0 keeps everything.
	WALRetainAge time.Duration
	// WALUnshippedCapBytes bounds how many bytes of sealed segments a
	// follower's replication floor may hold back from retention; past
	// the cap the oldest unshipped segments are reclaimed loudly
	// instead of filling the disk. 0 never overrides the floor.
	WALUnshippedCapBytes int64
	// Automata, when non-nil, is a shared compiled-automaton cache (see
	// NewAutomatonCache). Servers sharing one cache must share a schema.
	// When nil the server creates a private cache.
	Automata *AutomatonCache
	// Ownership, when non-nil, declares the slice of the cluster
	// keyspace this server owns: every ingested event must carry a
	// router-assigned global seq (strictly increasing; duplicates from
	// router retries are dropped idempotently) instead of being
	// numbered by the server, and its partition key must hash into the
	// owned slot range (ErrNotOwned otherwise). The WAL persists each
	// record's seq either way, so replay and replication keep the
	// cluster-global numbering; a WAL that still holds segments from
	// before records carried their seq is refused.
	Ownership *cluster.Ownership
}

// Server fans one ingested event stream out to a registry of
// concurrently running SES queries. Create it with New; all methods
// are safe for concurrent use.
type Server struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	// ingestMu serializes Ingest calls: events enter every mailbox in
	// one global order, so each query's Seq numbering matches the
	// stream positions a standalone evaluation would see.
	ingestMu sync.Mutex

	// ingestFree recycles the per-request ingest scratch (handleIngest).
	ingestFree chan *ingestScratch
	// maxIngestBody is cluster.MaxIngestBody; tests lower it
	// (export_test.go).
	maxIngestBody int64

	mu       sync.RWMutex
	queries  map[string]*queryState
	order    []string // registration order, for stable listings
	draining bool
	// byFP indexes one live query per automaton fingerprint, so a
	// registration finds its shared compiled instance without scanning
	// the registry.
	byFP map[string]*queryState

	drainOnce sync.Once
	drainErr  error

	// wal is the durable ingest log, nil when Config.WALDir is empty.
	wal *wal.Log
	// repl carries the replication role (leader / follower / fenced).
	repl replState
	// drainStarted is closed when Drain begins, so catch-up feeders
	// stop before the mailboxes close under them.
	drainStarted chan struct{}
	// feeders tracks running catch-up feeder goroutines.
	feeders sync.WaitGroup

	// route is the lock-free routing index snapshot (see router.go).
	// Registry changes mark it dirty; the next reader rebuilds it under
	// s.mu (routeSnap), so bulk registration costs one rebuild.
	route      atomic.Pointer[routeSnapshot]
	routeDirty atomic.Bool
	// scratch is the dispatcher's routing working state; guarded by
	// ingestMu (dispatch is serialized).
	scratch routeScratch
	// broadcast puts every query in the catch-all bucket, the pre-index
	// full fan-out; it is the reference the routing identity tests
	// compare against (set through export_test.go only). Guarded by mu.
	broadcast bool
	// ownKeyIdx is the schema index of the ownership partition key
	// (-1 without Ownership).
	ownKeyIdx int
	// lastSeq is the highest seq dispatched or recovered from the WAL
	// (-1 before the first): an unsequenced batch is numbered on from
	// it, and a sequenced one is deduplicated against it. Written under
	// ingestMu, read lock-free by /healthz.
	lastSeq atomic.Int64
	// lastTime is the highest event time dispatched (MinInt64 before
	// the first): the stream high-water lateness is judged against, and
	// the router's merge watermark. Written under ingestMu.
	lastTime atomic.Int64
	// deduped counts events dropped as duplicate deliveries (seq at or
	// below lastSeq), the idempotence of router retries; guarded by
	// ingestMu for writes.
	deduped atomic.Int64
	// autos shares compiled automata across registrations.
	autos *AutomatonCache

	eventsIngested *obs.Counter
	ingestBatches  *obs.Counter
	replayEvents   *obs.Counter
	backfills      *obs.Counter
	routedEvents   *obs.Counter
	skippedEvents  *obs.Counter
	lateEvents     *obs.Counter
	statsRequests  *obs.Counter
}

// queryState is one registered query and its running pipeline.
type queryState struct {
	spec QuerySpec
	auto *automaton.Automaton
	fp   string

	mailbox chan event.Block
	// removed is closed by RemoveQuery so a blocked mailbox send
	// unblocks immediately; the pipeline context is cancelled with it.
	removed chan struct{}
	// finished is closed when the pipeline's match channel has closed
	// and the match log is complete.
	finished chan struct{}
	cancel   context.CancelFunc

	log *matchLog
	// sup is the pipeline's handle: nil until the pipeline starts.
	// startPipe publishes it from the ingest goroutine (lazy start)
	// while info reads it from any other.
	sup atomic.Pointer[resilience.Supervisor]
	// started is closed once sup is published.
	started chan struct{}
	// agg holds the query's aggregate groups when its text carries an
	// AGGREGATE clause (nil otherwise); served by /queries/{id}/stats.
	agg *engine.Aggregator

	// lifecycle arbitrates the pipeline's one-shot fate: the first
	// block headed for the mailbox starts the evaluator goroutines
	// (startPipe, bound by startPipeline), or drain/removal retires a
	// pipeline nothing was ever routed to — with a routing index and
	// many sparse queries, most registrations never need goroutines at
	// all. Pipelines that may owe work from the past (WAL replay,
	// checkpoint resume) are started at registration instead.
	lifecycle sync.Once
	startPipe func()

	// fence is the seq the query's stream starts at, assigned at
	// registration: the next seq for a live query, the oldest retained
	// one for a backfill. Live blocks are narrowed to seqs at or above
	// it (deliverBlock), and a restarted server rebuilds the query's
	// state from it when no checkpoint narrows the replay.
	fence int64
	// backfill records that the query was registered against retained
	// history (AddQueryBackfill).
	backfill bool
	// catchingUp is true while a feeder goroutine owns the query's
	// mailbox, replaying the WAL; live fan-out skips the query until
	// the feeder hands off at the tail.
	catchingUp atomic.Bool
	// replayLag is the number of WAL records between the feeder's
	// position and the tail; 0 once live.
	replayLag atomic.Int64

	// route is the automaton's routing summary, extracted once at
	// registration.
	route automaton.RouteSet

	events  *obs.Counter
	shed    *obs.Counter
	matches *obs.Counter

	termMu sync.Mutex
	err    error
}

// start launches the pipeline goroutines; the first caller wins, and
// a pipeline retired first can never start.
func (q *queryState) start() { q.lifecycle.Do(q.startPipe) }

// retire marks a never-started pipeline terminal: its (empty) match
// log completes and finished closes, exactly as if the evaluator had
// run over zero events and drained. A no-op once start has won.
func (q *queryState) retire() {
	q.lifecycle.Do(func() {
		q.log.close()
		if q.agg != nil {
			q.agg.Close()
		}
		close(q.finished)
	})
}

func (q *queryState) recordErr(err error) {
	if err == nil {
		return
	}
	q.termMu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.termMu.Unlock()
}

func (q *queryState) terminalErr() error {
	q.termMu.Lock()
	defer q.termMu.Unlock()
	return q.err
}

// info renders the query's externally visible state.
func (q *queryState) info() QueryInfo {
	start, end := q.log.bounds()
	done := false
	select {
	case <-q.finished:
		done = true
	default:
	}
	info := QueryInfo{
		ID:          q.spec.ID,
		Query:       q.spec.Query,
		Fingerprint: q.fp,
		States:      q.auto.NumStates(),
		Transitions: q.auto.NumTransitions(),
		Events:      q.events.Value(),
		Shed:        q.shed.Value(),
		Matches:     q.matches.Value(),
		QueueDepth:  len(q.mailbox),
		LogStart:    start,
		LogEnd:      end,
		Done:        done,
		Backfill:    q.backfill,
		CatchingUp:  q.catchingUp.Load(),
		ReplayLag:   q.replayLag.Load(),
		Window:      int64(q.auto.Within),
	}
	if sup := q.sup.Load(); sup != nil {
		// Watermark before emitted count: a reader pairing the two to
		// prove quiescence needs every match at or below the watermark
		// included in the count (resilience.Supervisor.CompletedThrough),
		// which bounds a keyed query's matches per key only.
		if w, ok := sup.CompletedThrough(); ok && q.spec.Key == "" {
			info.ProcessedThrough = &w
		}
		info.Emitted = sup.Emitted()
	}
	if q.agg != nil {
		info.Aggregate = true
		info.AggVersion = q.agg.Folds()
		info.AggGroups = q.agg.NumGroups()
	}
	if err := q.terminalErr(); err != nil {
		info.Err = err.Error()
	}
	return info
}

// New creates a Server and, when Config.CheckpointDir holds a query
// manifest from a previous drained run, re-registers those queries and
// resumes their checkpoints.
func New(cfg Config) (*Server, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("server: Config.Schema is required")
	}
	if cfg.Mailbox <= 0 {
		cfg.Mailbox = 16
	}
	if cfg.MatchLog <= 0 {
		cfg.MatchLog = 4096
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 256
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		ctx:          ctx,
		cancel:       cancel,
		queries:      make(map[string]*queryState),
		byFP:         make(map[string]*queryState),
		drainStarted: make(chan struct{}),
		autos:        cfg.Automata,

		maxIngestBody: cluster.MaxIngestBody,
		ingestFree:    make(chan *ingestScratch, ingestFreeCap),
	}
	if s.autos == nil {
		s.autos = NewAutomatonCache(0)
	}
	s.route.Store(&routeSnapshot{})
	s.ownKeyIdx = -1
	s.lastSeq.Store(-1)
	s.lastTime.Store(int64(event.MinTime))
	if own := cfg.Ownership; own != nil {
		if err := own.Validate(); err != nil {
			cancel()
			return nil, fmt.Errorf("server: %w", err)
		}
		idx, ok := cfg.Schema.Index(own.Key)
		if !ok {
			cancel()
			return nil, fmt.Errorf("server: ownership partition key %q is not in the schema (%s)", own.Key, cfg.Schema)
		}
		s.ownKeyIdx = idx
	}
	if cfg.Registry != nil {
		s.eventsIngested = cfg.Registry.Counter("ses_server_events_ingested_total",
			"Events accepted by the shared ingest path.")
		s.ingestBatches = cfg.Registry.Counter("ses_server_ingest_batches_total",
			"Ingest batches accepted.")
		s.replayEvents = cfg.Registry.Counter("ses_server_replay_events_total",
			"Events delivered to queries from the WAL (restart replay and backfill).")
		s.backfills = cfg.Registry.Counter("ses_server_backfills_total",
			"Queries registered against retained history.")
		s.routedEvents = cfg.Registry.Counter("ses_route_events_routed_total",
			"Query-event deliveries made through the routing index.")
		s.skippedEvents = cfg.Registry.Counter("ses_route_events_skipped_total",
			"Query-event deliveries avoided by the routing index: in-order events matching none of a routed query's keys.")
		s.lateEvents = cfg.Registry.Counter("ses_server_late_events_total",
			"Events earlier than the stream high-water at dispatch, withheld from every query without reorder slack.")
		s.statsRequests = cfg.Registry.Counter("ses_agg_stats_requests_total",
			"GET /queries/{id}/stats requests served.")
		cfg.Registry.GaugeFunc("ses_server_queries_active",
			"Currently registered queries.",
			func() int64 {
				s.mu.RLock()
				defer s.mu.RUnlock()
				return int64(len(s.queries))
			})
		cfg.Registry.GaugeFunc("ses_route_index_size",
			"(Attribute, value) keys in the routing index.",
			func() int64 { return int64(s.routeSnap().keyCount) })
		cfg.Registry.GaugeFunc("ses_route_catchall_queries",
			"Registered queries in the catch-all bucket (type-agnostic, keyed or with reorder slack).",
			func() int64 { return int64(len(s.routeSnap().catchAll)) })
	} else {
		s.eventsIngested = &obs.Counter{}
		s.ingestBatches = &obs.Counter{}
		s.replayEvents = &obs.Counter{}
		s.backfills = &obs.Counter{}
		s.routedEvents = &obs.Counter{}
		s.skippedEvents = &obs.Counter{}
		s.lateEvents = &obs.Counter{}
		s.statsRequests = &obs.Counter{}
	}
	if cfg.WALDir != "" {
		policy, err := wal.ParseFsyncPolicy(orDefault(cfg.WALFsync, "interval"))
		if err != nil {
			cancel()
			return nil, err
		}
		s.wal, err = wal.Open(wal.Options{
			Dir:               cfg.WALDir,
			Schema:            cfg.Schema,
			SegmentBytes:      cfg.WALSegmentBytes,
			Fsync:             policy,
			FsyncInterval:     cfg.WALFsyncInterval,
			RetainBytes:       cfg.WALRetainBytes,
			RetainAge:         cfg.WALRetainAge,
			UnshippedCapBytes: cfg.WALUnshippedCapBytes,
			Registry:          cfg.Registry,
		})
		if err != nil {
			cancel()
			return nil, err
		}
		if cfg.Ownership != nil && s.wal.Legacy() {
			s.Close()
			return nil, fmt.Errorf("server: WAL %s holds segments written before records carried their seq; a partition node needs router-assigned seqs", cfg.WALDir)
		}
		s.lastSeq.Store(s.wal.LastSeq())
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			s.Close()
			return nil, err
		}
		m, err := loadManifest(filepath.Join(cfg.CheckpointDir, "queries.json"))
		if err != nil {
			s.Close()
			return nil, err
		}
		for _, spec := range m.Queries {
			reg := registration{fence: m.Offsets[spec.ID].fence(), backfill: m.Offsets[spec.ID].Backfill}
			if s.wal != nil {
				// Replay the query's un-checkpointed suffix from the
				// server's own log: the query resumes after the watermark
				// persisted in its checkpoint, or without one rebuilds
				// from its fence.
				reg.catchUp = true
				reg.replayFrom = reg.fence
				ckpt := filepath.Join(cfg.CheckpointDir, spec.ID+".ckpt")
				if w, ok, err := resilience.CheckpointOffset(ckpt); err != nil {
					s.Close()
					return nil, fmt.Errorf("server: restoring query %q: %w", spec.ID, err)
				} else if ok {
					reg.replayFrom = w + 1
				}
			}
			if _, err := s.addQuery(spec, reg); err != nil {
				s.Close()
				return nil, fmt.Errorf("server: restoring query %q from manifest: %w", spec.ID, err)
			}
		}
	}
	return s, nil
}

// orDefault returns s, or def when s is empty.
func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// compile turns a spec's query text into its single-variant SES
// automaton and aggregation plan (engine.CompileQuery), sharing
// compiled instances across identical texts through the automaton
// cache.
func (s *Server) compile(spec QuerySpec) (*automaton.Automaton, *engine.AggPlan, error) {
	return s.autos.get(spec.Query, func() (*automaton.Automaton, *engine.AggPlan, error) {
		return engine.CompileQuery(spec.Query, s.cfg.Schema)
	})
}

// registration carries how a query enters the registry: live at the
// stream's next seq, or catching up from a replay seq.
type registration struct {
	// fence is the query's fence seq (queryState.fence). For a new
	// registration the caller leaves it to be stamped under the ingest
	// lock.
	fence int64
	// catchUp starts a feeder that streams the WAL from the first
	// record with seq >= replayFrom into the mailbox before handing off
	// to live fan-out.
	catchUp    bool
	replayFrom int64
	// backfill marks an AddQueryBackfill registration: its fence and
	// replay start are the oldest retained seq.
	backfill bool
	// stampFence assigns the fence under the ingest lock, where the
	// stream cannot move.
	stampFence bool
}

// AddQuery compiles and registers a query and starts its pipeline. It
// returns ErrDuplicate when the id is taken and ErrDraining after
// Drain has begun; distinct ids whose texts compile to the same
// automaton share one compiled instance. The query sees events
// ingested after the call; use AddQueryBackfill to include retained
// history.
func (s *Server) AddQuery(spec QuerySpec) (QueryInfo, error) {
	if err := s.writeGate(); err != nil {
		return QueryInfo{}, err
	}
	return s.addQuery(spec, registration{stampFence: true})
}

// writeGate refuses externally driven writes on a follower or fenced
// server; replication has its own entry points (ApplyReplicated,
// SyncReplicatedQueries).
func (s *Server) writeGate() error {
	if s.repl.fenced.Load() {
		return ErrFenced
	}
	if s.repl.readOnly.Load() {
		return ErrReadOnly
	}
	return nil
}

// AddQueryBackfill registers a query like AddQuery, but bootstraps it
// from the WAL's retained history: a catch-up feeder streams every
// retained event through the query's pipeline, then hands off to live
// fan-out at a fenced offset — no event is lost or duplicated across
// the handoff. The query reports CatchingUp and ReplayLag in its
// QueryInfo until the handoff completes. Requires a WAL (ErrNoWAL
// otherwise).
func (s *Server) AddQueryBackfill(spec QuerySpec) (QueryInfo, error) {
	if err := s.writeGate(); err != nil {
		return QueryInfo{}, err
	}
	if s.wal == nil {
		return QueryInfo{}, ErrNoWAL
	}
	info, err := s.addQuery(spec, registration{catchUp: true, backfill: true, stampFence: true})
	if err == nil {
		s.backfills.Inc()
	}
	return info, err
}

func (s *Server) addQuery(spec QuerySpec, reg registration) (QueryInfo, error) {
	if err := spec.validate(s.cfg.Schema); err != nil {
		return QueryInfo{}, err
	}
	// The aggregation plan compiles against the query's own automaton,
	// before any fingerprint sharing below: the fingerprint excludes the
	// AGGREGATE clause, so a fingerprint-sharing partner may carry a
	// different clause (or none) on its pattern. Sharing stays safe —
	// equal fingerprints imply identical variables and schema, which is
	// all the plan's resolved indices refer to.
	auto, plan, err := s.compile(spec)
	if err != nil {
		return QueryInfo{}, err
	}
	if plan == nil && spec.Materialize {
		return QueryInfo{}, fmt.Errorf("server: query %q sets materialize but has no AGGREGATE clause", spec.ID)
	}
	fp := auto.Fingerprint()

	// The ingest lock fences the registration against in-flight
	// batches: while held, the stream cannot move, so a live query's
	// fence is exactly the first seq it sees live, and a catch-up
	// feeder hands off at the tail it freezes under the same lock.
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return QueryInfo{}, ErrDraining
	}
	if _, ok := s.queries[spec.ID]; ok {
		return QueryInfo{}, fmt.Errorf("%w: id %q is already registered", ErrDuplicate, spec.ID)
	}
	if other, ok := s.byFP[fp]; ok {
		// Identical automata under different ids share one compiled
		// instance, even when the texts differ (the cache is keyed by
		// text, so only equal texts share through it).
		auto = other.auto
	}

	if reg.stampFence {
		if reg.backfill {
			// A backfill query's history starts at the oldest retained
			// record; restarts rebuild from there.
			reg.fence = s.wal.FirstSeq()
			reg.replayFrom = reg.fence
		} else {
			reg.fence = s.lastSeq.Load() + 1
		}
	}
	q, err := s.startPipeline(spec, auto, fp, plan)
	if err != nil {
		return QueryInfo{}, err
	}
	q.fence = reg.fence
	q.backfill = reg.backfill
	if reg.catchUp && s.wal != nil {
		q.catchingUp.Store(true)
		s.feeders.Add(1)
		go s.catchUp(q, reg.replayFrom)
	}
	s.queries[spec.ID] = q
	s.order = append(s.order, spec.ID)
	if _, ok := s.byFP[fp]; !ok {
		s.byFP[fp] = q
	}
	s.routeDirty.Store(true)
	if err := s.saveManifestLocked(); err != nil {
		return q.info(), err
	}
	return q.info(), nil
}

// startPipeline builds the query's mailbox, evaluator and match
// collector. Called with s.mu held.
func (s *Server) startPipeline(spec QuerySpec, auto *automaton.Automaton, fp string, plan *engine.AggPlan) (*queryState, error) {
	ctx, cancel := context.WithCancel(s.ctx)
	q := &queryState{
		spec:     spec,
		auto:     auto,
		fp:       fp,
		route:    auto.RouteKeys(),
		mailbox:  make(chan event.Block, s.cfg.Mailbox),
		removed:  make(chan struct{}),
		finished: make(chan struct{}),
		started:  make(chan struct{}),
		cancel:   cancel,
		log:      newMatchLog(s.cfg.MatchLog),
	}
	if reg := s.cfg.Registry; reg != nil {
		label := []string{"query", spec.ID}
		q.events = reg.Counter(obs.SeriesName("ses_server_query_events_total", label...),
			"Events accepted into the query's mailbox.")
		q.shed = reg.Counter(obs.SeriesName("ses_server_query_shed_total", label...),
			"Events dropped for this query by admission control or after pipeline termination.")
		q.matches = reg.Counter(obs.SeriesName("ses_server_query_matches_total", label...),
			"Matches emitted by the query's pipeline.")
		mailbox := q.mailbox
		reg.GaugeFunc(obs.SeriesName("ses_server_query_queue_depth", label...),
			"Event blocks queued in the query's mailbox.",
			func() int64 { return int64(len(mailbox)) })
		if s.wal != nil {
			reg.GaugeFunc(obs.SeriesName("ses_server_query_replay_lag", label...),
				"WAL records between the query's catch-up feeder and the tail; 0 once live.",
				q.replayLag.Load)
		}
	} else {
		q.events, q.shed, q.matches = &obs.Counter{}, &obs.Counter{}, &obs.Counter{}
	}

	pol, _ := parsePolicy(spec.Policy) // validated in spec.validate
	opts := []engine.Option{engine.WithFilter(spec.Filter)}
	if s.cfg.Registry != nil {
		// The runner exports its own series (notably
		// ses_cond_type_mismatch_total); registration is idempotent, so
		// supervisor restarts rebind the same counters.
		opts = append(opts,
			engine.WithMetricsRegistry(s.cfg.Registry),
			engine.WithMetricLabels("query", spec.ID))
	}
	if spec.MaxInstances > 0 {
		opts = append(opts,
			engine.WithMaxInstances(spec.MaxInstances),
			engine.WithOverloadPolicy(pol))
		if spec.ShedLowWater > 0 {
			opts = append(opts, engine.WithShedLowWater(spec.ShedLowWater))
		}
	}
	if plan != nil {
		// Supervisor restarts re-apply these options: each restarted
		// runner resets the aggregator and a checkpoint restore reloads
		// the folded groups, so replay converges on the same state.
		q.agg = engine.NewAggregator(plan)
		opts = append(opts, engine.WithAggregation(q.agg), engine.WithAggregateOnly(!spec.Materialize))
	}
	if spec.Key != "" {
		opts = append(opts, engine.WithPartitionKey(spec.Key))
	}

	rcfg := resilience.Config{
		Slack:           event.Duration(spec.Slack),
		CheckpointEvery: spec.CheckpointEvery,
		Registry:        s.cfg.Registry,
		MetricLabels:    []string{"query", spec.ID},
	}
	if rcfg.CheckpointEvery <= 0 {
		rcfg.CheckpointEvery = s.cfg.CheckpointEvery
	}
	if s.cfg.CheckpointDir != "" {
		rcfg.CheckpointPath = filepath.Join(s.cfg.CheckpointDir, spec.ID+".ckpt")
		rcfg.Resume = true
	}
	q.startPipe = func() {
		out, sup := resilience.Supervise(ctx, auto, opts, q.mailbox, rcfg)
		q.sup.Store(sup)
		close(q.started)
		go s.collect(q, out)
	}
	if s.wal != nil || s.cfg.CheckpointDir != "" {
		// The pipeline may owe work from before this registration — a
		// WAL catch-up feeder about to own the mailbox, or a resumed
		// checkpoint whose windows must flush at drain — so it cannot
		// wait for live delivery.
		q.start()
	}
	return q, nil
}

// collect drains a pipeline's match blocks into the query's match log.
// A block's matches are encoded into one reused scratch buffer, copied
// out at exact size once, and appended as lines slicing that copy: one
// allocation and one log append per block. The encoder renders each
// bound event once per block and copies it into every later match of
// the block that binds it; it is reset after the block, so it pins no
// event past it. A match that fails to encode is left out and its
// error recorded; the rest of its block is served, and the log counts
// the dropped match with the block's lines. collect closes the log and
// the finished channel when the pipeline terminates.
func (s *Server) collect(q *queryState, blocks <-chan []engine.Match) {
	defer close(q.finished)
	defer q.log.close()
	if q.agg != nil {
		// End the /stats follow streams when the pipeline terminates.
		defer q.agg.Close()
	}
	enc := engine.NewMatchEncoder(s.cfg.Schema)
	var (
		scratch []byte
		ends    []int
		lines   [][]byte
	)
	for ms := range blocks {
		scratch, ends = scratch[:0], ends[:0]
		for _, m := range ms {
			var err error
			if scratch, err = enc.Append(scratch, m); err != nil {
				q.recordErr(err)
				continue
			}
			ends = append(ends, len(scratch))
		}
		enc.Reset()
		lines = lines[:0]
		if len(ends) > 0 {
			// Exact size: the log retains these bytes, so slack here
			// would be held for as long as the lines are.
			buf := make([]byte, len(scratch))
			copy(buf, scratch)
			lo := 0
			for _, hi := range ends {
				lines = append(lines, buf[lo:hi:hi])
				lo = hi
			}
		}
		q.log.appendBlock(lines, len(ms)-len(lines))
		q.matches.Add(int64(len(lines)))
		clear(lines) // the log holds the lines now; do not pin evicted ones
	}
	if sup := q.sup.Load(); sup != nil {
		q.recordErr(sup.Err())
	}
}

// RemoveQuery unregisters the query, stops its pipeline and retires
// its metric series. In-flight state is discarded; the match log stays
// readable through an already-held reference, but the query no longer
// appears in the registry.
func (s *Server) RemoveQuery(id string) error {
	if err := s.writeGate(); err != nil {
		return err
	}
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		// The drain is flushing every pipeline for its final matches;
		// pulling a query out from under it would discard them.
		return ErrDraining
	}
	return s.removeQueryInternal(id)
}

// removeQueryInternal removes a query without the follower write gate;
// SyncReplicatedQueries uses it to mirror leader-side removals.
func (s *Server) removeQueryInternal(id string) error {
	s.mu.Lock()
	q, ok := s.queries[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	delete(s.queries, id)
	for i, qid := range s.order {
		if qid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if s.byFP[q.fp] == q {
		// The removed query represented its fingerprint; elect another
		// sharer if one remains (removal is rare, the scan is fine).
		delete(s.byFP, q.fp)
		for _, other := range s.queries {
			if other.fp == q.fp {
				s.byFP[q.fp] = other
				break
			}
		}
	}
	s.routeDirty.Store(true)
	err := s.saveManifestLocked()
	s.mu.Unlock()

	close(q.removed)
	q.cancel()
	// A never-started pipeline has no goroutines to observe the
	// cancellation; complete its log and finished channel directly.
	q.retire()
	if reg := s.cfg.Registry; reg != nil {
		tag := fmt.Sprintf("query=%q", id)
		reg.UnregisterMatching(func(name string) bool { return strings.Contains(name, tag) })
	}
	return err
}

// Query returns the state of one registered query.
func (s *Server) Query(id string) (QueryInfo, error) {
	s.mu.RLock()
	q, ok := s.queries[id]
	s.mu.RUnlock()
	if !ok {
		return QueryInfo{}, ErrNotFound
	}
	return q.info(), nil
}

// Queries lists all registered queries in registration order.
func (s *Server) Queries() []QueryInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]QueryInfo, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.queries[id].info())
	}
	return out
}

// Matches returns the retained encoded match lines (engine.MatchJSON
// objects) of a query at offsets >= from; see QueryInfo.LogStart and
// LogEnd for the retention window. The HTTP streaming endpoint is the
// same data with live follow.
func (s *Server) Matches(id string, from int64) ([][]byte, error) {
	q, ok := s.lookup(id)
	if !ok {
		return nil, ErrNotFound
	}
	lines, _, _ := q.log.read(nil, from)
	return lines, nil
}

// Stats returns an AGGREGATE query's aggregate state as its stats JSON
// document (engine.Aggregator.Stats): since = 0 requests the full
// snapshot, a previous call's ver requests a delta (nil data when
// nothing changed). wait is closed at the next fold and nil once the
// pipeline has terminated. Queries without an AGGREGATE clause error;
// the HTTP endpoint GET /queries/{id}/stats serves the same data.
func (s *Server) Stats(id string, since uint64) (data []byte, ver uint64, wait <-chan struct{}, err error) {
	q, ok := s.lookup(id)
	if !ok {
		return nil, 0, nil, ErrNotFound
	}
	if q.agg == nil {
		return nil, 0, nil, fmt.Errorf("server: query %q has no AGGREGATE clause", id)
	}
	data, ver, wait = q.agg.Stats(since)
	return data, ver, wait, nil
}

// lookup returns the live state of a query, for the HTTP layer.
func (s *Server) lookup(id string) (*queryState, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	q, ok := s.queries[id]
	return q, ok
}

// Ingest validates a batch of events and dispatches each one to every
// registered query's mailbox, in order. The batch is rejected as a
// whole (nothing dispatched) when any event fails schema validation
// or carries a reserved sentinel timestamp. A query whose mailbox is
// full blocks the ingest ("block" admission, the default) or sheds the
// event ("drop"); a query whose pipeline has terminated sheds. It
// returns the number of events dispatched. The caller keeps its slice:
// the server works on a copy.
func (s *Server) Ingest(events []event.Event) (int, error) {
	return s.ingestOwned(slices.Clone(events))
}

// ingestOwned is Ingest for a batch the caller gives up, such as one
// fresh from BlockDecoder.Finish: it becomes the shared block as is.
func (s *Server) ingestOwned(events []event.Event) (int, error) {
	if err := s.writeGate(); err != nil {
		return 0, err
	}
	return s.dispatch(events, s.cfg.Ownership != nil)
}

// dispatch validates, persists and fans out a batch — the shared core
// of Ingest (leader write path) and ApplyReplicated (follower apply
// path). A sequenced batch (routed by a cluster router, or replicated)
// keeps the seqs it carries; any other is numbered on from LastSeq. It
// takes ownership of events: the slice is stamped in place and
// published to every query as one immutable block, so the caller must
// neither read nor reuse it afterwards.
func (s *Server) dispatch(events []event.Event, sequenced bool) (int, error) {
	own := s.cfg.Ownership
	for i := range events {
		if err := s.cfg.Schema.Check(events[i].Attrs); err != nil {
			return 0, fmt.Errorf("server: event %d: %w", i, err)
		}
		if event.SentinelTime(events[i].Time) {
			return 0, fmt.Errorf("server: event %d: timestamp %d is a reserved sentinel", i, events[i].Time)
		}
		if own != nil {
			if slot := own.Slot(events[i].Attrs[s.ownKeyIdx]); !own.Owns(slot) {
				return 0, fmt.Errorf("%w: event %d hashes to slot %d, this node owns [%d,%d)",
					ErrNotOwned, i, slot, own.Lo, own.Hi)
			}
		}
		if sequenced && events[i].Seq < 0 {
			return 0, fmt.Errorf("server: event %d: sequenced ingest requires a non-negative seq, got %d", i, events[i].Seq)
		}
	}

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		return 0, ErrDraining
	}
	// No registration can interleave here: a fence is stamped under
	// s.ingestMu, which this dispatch holds, so the snapshot (rebuilt
	// now if registrations dirtied it) covers exactly the queries fenced
	// at or before this batch.
	snap := s.routeSnap()

	// A sequenced batch carries its seqs: duplicate deliveries (a
	// router retrying a sub-batch the node already acknowledged before
	// its peer failed over) are dropped idempotently, and the fresh
	// suffix must be strictly increasing. Any other batch is numbered on
	// from the last seq, so every query's matches carry global stream
	// positions however the stream was routed to it.
	if sequenced {
		last := s.lastSeq.Load()
		received := len(events)
		kept := events[:0]
		for i := range events {
			sq := int64(events[i].Seq)
			if sq <= last {
				continue
			}
			if len(kept) > 0 && sq <= int64(kept[len(kept)-1].Seq) {
				return 0, fmt.Errorf("server: event %d: seq %d is not strictly increasing within the batch", i, sq)
			}
			kept = append(kept, events[i])
		}
		s.deduped.Add(int64(received - len(kept)))
		if len(kept) == 0 {
			return 0, nil
		}
		events = kept
	} else {
		next := int(s.lastSeq.Load()) + 1
		for i := range events {
			events[i].Seq = next + i
		}
	}

	// Decode once, share everywhere: the batch becomes one immutable
	// block and every query receives a reference to — or an index slice
	// over — this one allocation.
	//
	// Durability before fan-out: the batch is appended (and, per the
	// fsync policy, persisted) with its seqs before any query sees it,
	// so a crash can never have delivered an event the restarted server
	// cannot replay.
	if s.wal != nil {
		if _, err := s.wal.AppendBatch(events); err != nil {
			return 0, err
		}
	}
	if len(events) > 0 {
		s.lastSeq.Store(int64(events[len(events)-1].Seq))
	}
	// Lateness is judged once, on the stream: an event earlier than the
	// stream high-water, the latest time dispatched before it, is late
	// (ties are not).
	// Queries without reorder slack never see it, whether they are
	// routed or not, so each of them steps an ordered subsequence of the
	// stream; the WAL keeps it, and queries with slack receive it.
	hi := s.lastTime.Load()
	var inOrder []int32 // nil while no event of the batch is late
	for i := range events {
		if t := int64(events[i].Time); t >= hi {
			hi = t
			if inOrder != nil {
				inOrder = append(inOrder, int32(i))
			}
		} else if inOrder == nil {
			inOrder = make([]int32, i, len(events))
			for j := range inOrder {
				inOrder[j] = int32(j)
			}
		}
	}
	s.lastTime.Store(hi)
	if inOrder != nil {
		s.lateEvents.Add(int64(len(events) - len(inOrder)))
	}
	s.routeBatch(snap, events, inOrder)
	s.eventsIngested.Add(int64(len(events)))
	s.ingestBatches.Inc()
	return len(events), nil
}

// deliverBlock places one event block into a query's mailbox under its
// admission policy. It never blocks indefinitely: a removal or
// pipeline termination unblocks a full mailbox, counting the block's
// events as shed.
func (s *Server) deliverBlock(q *queryState, blk event.Block) {
	if q.catchingUp.Load() {
		// The events are already in the WAL; the query's catch-up feeder
		// delivers them in offset order and hands off at the tail.
		return
	}
	if blk.Len() > 0 && int64(blk.At(0).Seq) < q.fence {
		// Part of the block lies below the query's fence. On a leader
		// this cannot happen (the fence is stamped at the tail under the
		// ingest lock); on a follower a replicated query may be fenced
		// past the local tail, and records below the fence belong to
		// history the leader-side query never saw. Narrow the block to
		// the fenced suffix.
		ix := make([]int32, 0, blk.Len())
		for i := 0; i < blk.Len(); i++ {
			if int64(blk.At(i).Seq) >= q.fence {
				if blk.Idx != nil {
					ix = append(ix, blk.Idx[i])
				} else {
					ix = append(ix, int32(i))
				}
			}
		}
		if len(ix) == 0 {
			return
		}
		blk = event.Block{Events: blk.Events, Idx: ix}
	}
	n := int64(blk.Len())
	select {
	case <-q.removed:
		// A removed or terminated pipeline sheds deterministically even
		// when its mailbox still has capacity.
		q.shed.Add(n)
		return
	case <-q.finished:
		q.shed.Add(n)
		return
	default:
	}
	// A block is about to enter the mailbox: make sure someone will
	// consume it (no-op after the first delivery).
	q.start()
	if q.spec.Admission == "drop" {
		select {
		case q.mailbox <- blk:
			q.events.Add(n)
		default:
			q.shed.Add(n)
		}
		return
	}
	select {
	case q.mailbox <- blk:
		q.events.Add(n)
	case <-q.removed:
		q.shed.Add(n)
	case <-q.finished:
		q.shed.Add(n)
	}
}

// Drain shuts the server down gracefully: it stops admitting ingest
// and registrations, closes every query's mailbox so the pipelines
// consume their backlog, flush their windows (the end-of-input matches
// of Definition 2) and — with a checkpoint directory — write a final
// checkpoint, then persists the query
// manifest. It waits up to Config.DrainTimeout (and ctx) for the
// pipelines to finish; queries still running after that are cancelled
// and an error is returned. Drain is idempotent: concurrent and
// repeated calls share the first call's outcome.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { s.drainErr = s.drain(ctx) })
	return s.drainErr
}

func (s *Server) drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	targets := make([]*queryState, 0, len(s.order))
	for _, id := range s.order {
		targets = append(targets, s.queries[id])
	}
	s.mu.Unlock()

	// Stop the catch-up feeders before the mailboxes close under them;
	// an interrupted catch-up resumes from its checkpoint or
	// registration offset on the next start.
	close(s.drainStarted)
	s.feeders.Wait()

	// Wait out any in-flight Ingest; later ones observe draining.
	// Pipelines nothing was ever routed to retire here instead of
	// starting goroutines just to observe a closed empty mailbox; the
	// ingest lock freezes the started/unstarted distinction.
	s.ingestMu.Lock()
	for _, q := range targets {
		q.retire()
		close(q.mailbox)
	}
	s.ingestMu.Unlock()

	timeout := time.NewTimer(s.cfg.DrainTimeout)
	defer timeout.Stop()
	var err error
	for _, q := range targets {
		select {
		case <-q.finished:
		case <-timeout.C:
			err = fmt.Errorf("server: drain timed out after %s waiting for query %q", s.cfg.DrainTimeout, q.spec.ID)
		case <-ctx.Done():
			err = fmt.Errorf("server: drain aborted waiting for query %q: %w", q.spec.ID, ctx.Err())
		}
		if err != nil {
			break
		}
	}
	s.cancel() // stop any pipeline still running after a timeout

	s.mu.Lock()
	merr := s.saveManifestLocked()
	s.mu.Unlock()
	if err == nil {
		err = merr
	}
	if s.wal != nil {
		if werr := s.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}

// Ownership returns the server's keyspace slice, nil when the server
// owns the whole keyspace (non-cluster deployment).
func (s *Server) Ownership() *cluster.Ownership { return s.cfg.Ownership }

// LastSeq returns the highest seq dispatched or recovered from the WAL
// (-1 before the first): the position of the newest event in the
// stream. Routers probe it at startup to resume the global numbering.
func (s *Server) LastSeq() int64 { return s.lastSeq.Load() }

// LastTime returns the highest event time dispatched, or (false) when
// nothing has been ingested. Routers use it as the merge watermark: a
// node has emitted every match whose window closed before this time.
func (s *Server) LastTime() (int64, bool) {
	t := s.lastTime.Load()
	return t, t != int64(event.MinTime)
}

// Deduped returns the number of events dropped as duplicate deliveries
// of sequenced batches.
func (s *Server) Deduped() int64 { return s.deduped.Load() }

// Close stops the server immediately, cancelling every pipeline
// without flushing or checkpointing. Use Drain for a graceful stop.
func (s *Server) Close() {
	s.cancel()
	if s.wal != nil {
		s.wal.Close()
	}
}

// manifest is the persisted query set, written to
// CheckpointDir/queries.json. Offsets (absent in manifests written
// before the WAL existed) records each query's fence and backfill
// flag, so a restart knows where its state rebuild begins.
type manifest struct {
	Queries []QuerySpec          `json:"queries"`
	Offsets map[string]fenceJSON `json:"offsets,omitempty"`
}

// fenceJSON is a query's fence and backfill flag as any version
// persisted them, in the manifest and, beside the spec, in the
// replication manifest (ReplicatedQuery). This version writes Fence,
// the query's fence seq. Versions whose WAL records did not all carry
// their seq wrote an offset fence (registered, registered_at) and,
// where seq and offset could differ, a seq fence (seq,
// registered_seq); fence resolves those. Readers call fence after
// plain decoding: a custom unmarshaler would cost five allocations per
// query on every manifest sync of a follower.
type fenceJSON struct {
	Fence         int64 `json:"fence"`
	Backfill      bool  `json:"backfill,omitempty"`
	Registered    int64 `json:"registered,omitempty"`
	Seq           int64 `json:"seq,omitempty"`
	RegisteredAt  int64 `json:"registered_at,omitempty"`
	RegisteredSeq int64 `json:"registered_seq,omitempty"`
}

// fence resolves the fence seq. Of an older version's two fences the
// seq one is taken where it was written; for a backfill the offset one
// is, because there the seq fence marked the live handoff rather than
// where the query's history began, and no record below that offset was
// retained even then.
func (f fenceJSON) fence() int64 {
	off, seq := max(f.Registered, f.RegisteredAt), max(f.Seq, f.RegisteredSeq)
	switch {
	case seq != 0 && !f.Backfill:
		return seq
	case off != 0:
		return off
	}
	return f.Fence
}

// saveManifestLocked persists the registered specs in registration
// order. Called with s.mu held; a no-op without a checkpoint dir.
func (s *Server) saveManifestLocked() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	m := manifest{Queries: make([]QuerySpec, 0, len(s.order))}
	if s.wal != nil {
		m.Offsets = make(map[string]fenceJSON, len(s.order))
	}
	for _, id := range s.order {
		q := s.queries[id]
		m.Queries = append(m.Queries, q.spec)
		if m.Offsets != nil {
			m.Offsets[id] = fenceJSON{Fence: q.fence, Backfill: q.backfill}
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.cfg.CheckpointDir, "queries.json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadManifest reads a query manifest; a missing file is an empty set.
func loadManifest(path string) (manifest, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return manifest{}, nil
	}
	if err != nil {
		return manifest{}, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("server: reading manifest %s: %w", path, err)
	}
	return m, nil
}
