package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Router fronts a partitioned sesd cluster: it accepts the same NDJSON
// batch ingest as a single node, splits each batch by the partition
// key, stamps every event with a cluster-global sequence number, and
// fans the sub-batches to the owning nodes — retrying against a
// partition's standby when its leader is unavailable. Query
// registration fans to all partitions, and the read endpoints merge
// the per-partition match streams and aggregate states back into one.
//
// The global sequence numbers are what make the merged match stream
// deterministic: every event carries the position it held in the
// router's arrival order, nodes reject regressions and deduplicate
// retried deliveries by it, and the match merge orders matches by
// (window start, minimum bound sequence) — a total order, because two
// matches from different partitions can never bind the same event.
type Router struct {
	m      *Membership
	schema *event.Schema
	keyIdx int
	client *http.Client
	retry  resilience.RetryPolicy
	// maxIngestBody is MaxIngestBody; tests lower it (export_test.go).
	maxIngestBody int64

	// nextSeq is the next global sequence number to assign. It is only
	// mutated under ingestMu (assignment must be atomic with enqueueing
	// so per-partition sub-batches arrive in sequence order), but reads
	// for lag gauges are lock-free.
	nextSeq  atomic.Int64
	ingestMu sync.Mutex
	// ingestFree recycles the per-batch ingest scratch (see ingestScratch).
	ingestFree chan *ingestScratch

	parts       []*routePartition
	drain       chan struct{} // closed by Close; stops senders and health loops
	wg          sync.WaitGroup
	closed      atomic.Bool
	healthEvery time.Duration

	registry  *obs.Registry
	batches   *obs.Counter // ses_router_batches_total
	events    *obs.Counter // ses_router_events_total
	retries   *obs.Counter // ses_router_partition_retries_total
	mergedOut *obs.Counter // ses_router_matches_merged_total
}

// routePartition is the router's live state for one partition: the
// static assignment plus which node currently accepts writes and what
// the health prober last saw on each node.
type routePartition struct {
	Partition
	queue chan *subBatch

	// active is 0 (leader) or 1 (standby) — the node index writes
	// currently go to. The sender flips it when the active node turns
	// out fenced, read-only or unreachable.
	active atomic.Int32

	nodes []*nodeState
	// failovers is ses_router_failovers_total, shared by every
	// partition (nil without a registry).
	failovers *obs.Counter
}

// failover moves writes from node act to its peer. Concurrent callers
// that saw the same act switch once: only the swap that wins counts.
func (rp *routePartition) failover(act int32) {
	if len(rp.nodes) == 2 && rp.active.CompareAndSwap(act, 1-act) && rp.failovers != nil {
		rp.failovers.Inc()
	}
}

// nodeState is the prober's view of one node.
type nodeState struct {
	url      string
	up       atomic.Bool
	role     atomic.Value // string
	epoch    atomic.Int64
	lastSeq  atomic.Int64
	lastTime atomic.Int64
	hasTime  atomic.Bool
}

// urls returns the partition's node URLs in [leader, standby] order.
func (rp *routePartition) urls() []string {
	out := []string{rp.Leader.URL}
	if rp.Standby.URL != "" {
		out = append(out, rp.Standby.URL)
	}
	return out
}

// subBatch is one partition's slice of an ingest batch, queued for
// ordered delivery.
type subBatch struct {
	body    []byte
	events  int
	maxSeq  int64
	maxTime int64
	done    chan struct{}
	err     error
	deduped int
}

// RouterOptions configures NewRouter.
type RouterOptions struct {
	// Membership is the cluster layout (required, validated).
	Membership *Membership
	// Schema is the event schema all nodes serve (required; the
	// partition key must be one of its attributes).
	Schema *event.Schema
	// InFlight bounds the queued-but-unacknowledged sub-batches per
	// partition; ingest blocks when the window is full. Default 8.
	InFlight int
	// Client is the HTTP client used for all node traffic; a default
	// client without timeout is used when nil (match streams are
	// long-lived).
	Client *http.Client
	// Retry shapes the per-delivery retry/failover loop. The zero
	// value retries with 10ms..2s exponential backoff, 20 attempts.
	Retry resilience.RetryPolicy
	// Registry receives the router's metrics when non-nil.
	Registry *obs.Registry
	// HealthEvery is the node health polling interval. Default 500ms.
	HealthEvery time.Duration
}

// NewRouter validates the options and creates a router. Call Start to
// probe the cluster's sequence high-water and begin serving.
func NewRouter(opts RouterOptions) (*Router, error) {
	if opts.Membership == nil {
		return nil, fmt.Errorf("cluster: router needs a membership")
	}
	if err := opts.Membership.Validate(); err != nil {
		return nil, err
	}
	if opts.Schema == nil {
		return nil, fmt.Errorf("cluster: router needs an event schema")
	}
	keyIdx, ok := opts.Schema.Index(opts.Membership.Key)
	if !ok {
		return nil, fmt.Errorf("cluster: partition key %q is not a schema attribute (schema: %s)",
			opts.Membership.Key, opts.Schema)
	}
	if opts.InFlight <= 0 {
		opts.InFlight = 8
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.Retry.MaxAttempts == 0 {
		opts.Retry.MaxAttempts = 20
	}
	if opts.HealthEvery <= 0 {
		opts.HealthEvery = 500 * time.Millisecond
	}
	r := &Router{
		m:      opts.Membership,
		schema: opts.Schema,
		keyIdx: keyIdx,
		client: opts.Client,
		retry:  opts.Retry,
		drain:  make(chan struct{}),

		maxIngestBody: MaxIngestBody,
		ingestFree:    make(chan *ingestScratch, ingestFreeCap),
	}
	for _, p := range r.m.Partitions {
		rp := &routePartition{Partition: p, queue: make(chan *subBatch, opts.InFlight)}
		for _, u := range rp.urls() {
			ns := &nodeState{url: u}
			ns.role.Store("unknown")
			rp.nodes = append(rp.nodes, ns)
		}
		r.parts = append(r.parts, rp)
	}
	r.healthEvery = opts.HealthEvery
	if opts.Registry != nil {
		r.attachMetrics(opts.Registry)
	}
	return r, nil
}

// attachMetrics binds the router's observability series.
func (r *Router) attachMetrics(reg *obs.Registry) {
	r.registry = reg
	r.batches = reg.Counter("ses_router_batches_total",
		"ingest batches accepted and fanned out by the router")
	r.events = reg.Counter("ses_router_events_total",
		"events sequenced and routed to a partition")
	r.retries = reg.Counter("ses_router_partition_retries_total",
		"sub-batch deliveries retried after a node refused or failed")
	r.mergedOut = reg.Counter("ses_router_matches_merged_total",
		"match lines released by the deterministic merge")
	failovers := reg.Counter("ses_router_failovers_total",
		"partition writes switched from one node to its peer")
	reg.GaugeFunc("ses_router_next_seq",
		"next global sequence number the router will assign",
		func() int64 { return r.nextSeq.Load() })
	for _, rp := range r.parts {
		rp.failovers = failovers
		for _, ns := range rp.nodes {
			ns := ns
			reg.GaugeFunc(obs.SeriesName("ses_router_node_up", "node", ns.url),
				"1 when the node answered its last health probe",
				func() int64 {
					if ns.up.Load() {
						return 1
					}
					return 0
				})
			reg.GaugeFunc(obs.SeriesName("ses_router_node_lag", "node", ns.url),
				"events assigned by the router but not yet acknowledged by the node",
				func() int64 {
					lag := r.nextSeq.Load() - 1 - ns.lastSeq.Load()
					if lag < 0 || !ns.up.Load() {
						return 0
					}
					return lag
				})
		}
	}
}

// Start probes every partition for its sequence high-water — so a
// restarted router resumes the global numbering after the highest
// sequence any node has persisted — and starts the per-partition
// sender and health loops. ctx bounds the probe only.
func (r *Router) Start(ctx context.Context) error {
	var probe int64
	for _, rp := range r.parts {
		seq, err := r.probePartition(ctx, rp)
		if err != nil {
			return fmt.Errorf("cluster: probing partition %d: %w", rp.ID, err)
		}
		if seq+1 > probe {
			probe = seq + 1
		}
	}
	r.nextSeq.Store(probe)
	for _, rp := range r.parts {
		rp := rp
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.runSender(rp)
		}()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.runHealth(rp)
		}()
	}
	return nil
}

// Close stops the sender and health loops. Queued sub-batches are
// failed, not delivered.
func (r *Router) Close() {
	if r.closed.Swap(true) {
		return
	}
	close(r.drain)
	r.wg.Wait()
}

// NextSeq returns the next global sequence number the router will
// assign (i.e. the number of events routed so far, after Start).
func (r *Router) NextSeq() int64 { return r.nextSeq.Load() }

// probePartition asks a partition for its persisted sequence
// high-water, preferring the leader but accepting the standby's
// answer when the leader is down (the standby trails the leader, so a
// fresh router may re-assign sequences the dead leader already issued;
// the node-side regression check rejects them and the operator heals
// the partition by failing over, which the health loop then observes).
func (r *Router) probePartition(ctx context.Context, rp *routePartition) (int64, error) {
	var lastErr error
	for _, u := range rp.urls() {
		h, err := r.fetchHealth(ctx, u)
		if err != nil {
			lastErr = err
			continue
		}
		return h.LastSeq, nil
	}
	return 0, lastErr
}

// routerHealth is the node /healthz shape the router consumes.
type routerHealth struct {
	Status   string `json:"status"`
	Role     string `json:"role"`
	Epoch    int64  `json:"epoch"`
	LastSeq  int64  `json:"last_seq"`
	LastTime *int64 `json:"last_time"`
	Partn    *struct {
		Key   string `json:"key"`
		Slots int    `json:"slots"`
		Lo    int    `json:"lo"`
		Hi    int    `json:"hi"`
	} `json:"partition"`
}

func (r *Router) fetchHealth(ctx context.Context, url string) (*routerHealth, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/healthz: %s", url, resp.Status)
	}
	var h routerHealth
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, fmt.Errorf("%s/healthz: %w", url, err)
	}
	return &h, nil
}

// runHealth polls the partition's nodes, keeping the per-node gauges
// and the epoch-aware role view fresh. A node reporting a higher
// fencing epoch than its peer is authoritative about leadership; the
// sender consults this view to pick its first target after a failure.
func (r *Router) runHealth(rp *routePartition) {
	tick := time.NewTicker(r.healthEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.drain:
			return
		case <-tick.C:
		}
		for _, ns := range rp.nodes {
			h, err := r.fetchHealth(context.Background(), ns.url)
			if err != nil {
				ns.up.Store(false)
				continue
			}
			ns.up.Store(true)
			ns.role.Store(h.Role)
			ns.epoch.Store(h.Epoch)
			ns.lastSeq.Store(h.LastSeq)
			if h.LastTime != nil {
				ns.lastTime.Store(*h.LastTime)
				ns.hasTime.Store(true)
			}
		}
		// Follow the fencing epochs: if the non-active node is a leader
		// with an epoch at least as high as the active node's, it won an
		// election (or the active node died and its standby promoted) —
		// switch writes over without waiting for a delivery failure.
		if len(rp.nodes) == 2 {
			act := rp.active.Load()
			other := 1 - act
			if rp.nodes[other].up.Load() &&
				rp.nodes[other].role.Load() == "leader" &&
				rp.nodes[other].epoch.Load() >= rp.nodes[act].epoch.Load() &&
				(!rp.nodes[act].up.Load() || rp.nodes[act].role.Load() != "leader") {
				rp.failover(act)
			}
		}
	}
}

// runSender delivers the partition's queued sub-batches in order.
func (r *Router) runSender(rp *routePartition) {
	for {
		select {
		case <-r.drain:
			// Fail whatever is still queued so ingest callers unblock.
			for {
				select {
				case sb := <-rp.queue:
					sb.err = fmt.Errorf("cluster: router closed")
					close(sb.done)
				default:
					return
				}
			}
		case sb := <-rp.queue:
			sb.err = r.deliver(rp, sb)
			close(sb.done)
		}
	}
}

// routedError is a node refusal the router should fail over on: the
// node is up but not accepting writes (follower, fenced, draining).
type routedError struct {
	status int
	state  string
	msg    string
}

func (e *routedError) Error() string {
	return fmt.Sprintf("node refused: %s (state %q): %s", http.StatusText(e.status), e.state, e.msg)
}

// postEvents delivers one sub-batch body to a node.
func (r *Router) postEvents(ctx context.Context, url string, body []byte) (ingested, deduped int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/events", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
			State string `json:"state"`
		}
		_ = json.Unmarshal(raw, &e)
		return 0, 0, &routedError{status: resp.StatusCode, state: e.State, msg: e.Error}
	}
	var ok struct {
		Ingested int `json:"ingested"`
		Deduped  int `json:"deduped"`
	}
	if err := json.Unmarshal(raw, &ok); err != nil {
		return 0, 0, fmt.Errorf("%s/events: %w", url, err)
	}
	return ok.Ingested, ok.Deduped, nil
}

// deliver sends one sub-batch to the partition, retrying with backoff
// and failing over between leader and standby on refusals and
// transport errors. Duplicate deliveries are safe: nodes drop events
// at or below their sequence high-water, so a retry after an
// ambiguous failure (the request may or may not have landed) cannot
// double-ingest.
func (r *Router) deliver(rp *routePartition, sb *subBatch) error {
	first := true
	ctx := context.Background()
	err := resilience.Retry(ctx, r.retry, func() error {
		if r.closed.Load() {
			return resilience.Permanent(fmt.Errorf("cluster: router closed"))
		}
		if !first && r.retries != nil {
			r.retries.Inc()
		}
		act := rp.active.Load()
		if first {
			first = false
		}
		url := rp.nodes[act].url
		_, deduped, err := r.postEvents(ctx, url, sb.body)
		if err == nil {
			sb.deduped = deduped
			rp.nodes[act].lastSeq.Store(sb.maxSeq)
			rp.nodes[act].lastTime.Store(sb.maxTime)
			rp.nodes[act].hasTime.Store(true)
			return nil
		}
		var re *routedError
		if ok := asRoutedError(err, &re); ok {
			switch {
			case re.status == http.StatusServiceUnavailable:
				// follower / fenced / draining: flip to the peer (it may
				// need a promotion beat first; the backoff covers that).
				rp.failover(act)
				return err
			case re.status == http.StatusMisdirectedRequest:
				// 421 means this node owns a different slice than the
				// membership file says — a topology mismatch no retry
				// fixes.
				return resilience.Permanent(err)
			case re.status >= 400 && re.status < 500:
				return resilience.Permanent(err)
			}
			return err
		}
		// Transport error: the node may be gone; try the peer next.
		rp.failover(act)
		return err
	})
	return err
}

// asRoutedError unwraps a *routedError (errors.As without the import
// dance around the retry wrapper).
func asRoutedError(err error, out **routedError) bool {
	for err != nil {
		if re, ok := err.(*routedError); ok {
			*out = re
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// IngestResult summarises one routed batch.
type IngestResult struct {
	Ingested   int `json:"ingested"`
	Deduped    int `json:"deduped,omitempty"`
	Partitions int `json:"partitions"`
}

// ingestScratch is what routing one batch needs and nothing outlives:
// the request body (HTTP path only), the block decoder, the line index
// and one stamped sub-batch body per partition (indexed like
// Router.parts). Reused across batches, none of them regrows from empty
// per request.
type ingestScratch struct {
	body  bytes.Buffer
	dec   *engine.BlockDecoder
	lines [][]byte
	subs  []subSlice
}

// subSlice is one partition's share of the batch being split.
type subSlice struct {
	buf     bytes.Buffer
	events  int
	maxSeq  int64
	maxTime int64
}

// ingestFreeCap is how many idle ingestScratch values the router keeps
// (a fixed list rather than a sync.Pool, which every other collection
// empties); keepIngestBuf is the largest buffer worth keeping in one.
const (
	ingestFreeCap = 4
	keepIngestBuf = 1 << 22
)

func (r *Router) getIngestScratch() *ingestScratch {
	select {
	case sc := <-r.ingestFree:
		return sc
	default:
		return &ingestScratch{dec: engine.NewBlockDecoder(r.schema), subs: make([]subSlice, len(r.parts))}
	}
}

// putIngestScratch returns the scratch of a batch every node has
// acknowledged: only then is it certain that no HTTP transport is still
// reading a sub-batch body, so the scratch of a failed batch is dropped
// instead.
func (r *Router) putIngestScratch(sc *ingestScratch) {
	sc.dec.Reset()
	clear(sc.lines)
	if sc.body.Cap() > keepIngestBuf {
		sc.body = bytes.Buffer{}
	}
	for i := range sc.subs {
		if sc.subs[i].buf.Cap() > keepIngestBuf {
			sc.subs[i].buf = bytes.Buffer{}
		}
	}
	select {
	case r.ingestFree <- sc:
	default:
	}
}

// IngestNDJSON routes one NDJSON batch: it validates and decodes every
// line (the same block decoder nodes use), rejects lines that already
// carry a "seq" (sequences are the router's to assign), stamps each
// event with the next global sequence number, splits the batch by the
// partition key's hash slot and queues one sub-batch per owning
// partition, in arrival order. It blocks until every involved
// partition acknowledged its slice (or delivery failed terminally).
func (r *Router) IngestNDJSON(body []byte) (IngestResult, error) {
	return r.ingest(r.getIngestScratch(), body)
}

// ingest is IngestNDJSON on a scratch from getIngestScratch, which it
// gives back when the batch succeeds. body may be sc.body's contents.
func (r *Router) ingest(sc *ingestScratch, body []byte) (IngestResult, error) {
	var res IngestResult
	lines, events, err := r.decodeBatch(sc, body)
	if err != nil {
		return res, err
	}
	if len(events) == 0 {
		r.putIngestScratch(sc)
		return res, nil
	}
	for i := range sc.subs {
		sl := &sc.subs[i]
		sl.buf.Reset()
		sl.events, sl.maxSeq, sl.maxTime = 0, 0, 0
	}

	// Sequence assignment and enqueueing are atomic: two concurrent
	// batches must not interleave their sequence ranges out of order
	// inside one partition's queue, because nodes treat a sequence
	// regression within a batch as an error and an already-seen
	// sequence as a duplicate to drop.
	r.ingestMu.Lock()
	for i := range events {
		slot := SlotOf(events[i].Attrs[r.keyIdx], r.m.Slots)
		pi := r.m.partitionIndex(slot) // r.parts mirrors r.m.Partitions
		if pi < 0 {
			r.ingestMu.Unlock()
			return res, fmt.Errorf("cluster: no partition owns slot %d", slot)
		}
		sl := &sc.subs[pi]
		seq := r.nextSeq.Add(1) - 1
		sl.buf.WriteString(`{"seq":`)
		sl.buf.Write(strconv.AppendInt(sl.buf.AvailableBuffer(), seq, 10))
		sl.buf.WriteByte(',')
		sl.buf.Write(lines[i][1:]) // the line is a JSON object; splice after '{'
		sl.buf.WriteByte('\n')
		sl.events++
		sl.maxSeq = seq
		if t := int64(events[i].Time); t > sl.maxTime {
			sl.maxTime = t
		}
	}
	var pending []*subBatch
	var perrs []error
	for pi := range sc.subs {
		sl := &sc.subs[pi]
		if sl.events == 0 {
			continue
		}
		sb := &subBatch{
			body:    sl.buf.Bytes(),
			events:  sl.events,
			maxSeq:  sl.maxSeq,
			maxTime: sl.maxTime,
			done:    make(chan struct{}),
		}
		select {
		case r.parts[pi].queue <- sb:
			pending = append(pending, sb)
		case <-r.drain:
			perrs = append(perrs, fmt.Errorf("cluster: router closed"))
		}
	}
	r.ingestMu.Unlock()

	for _, sb := range pending {
		<-sb.done
		if sb.err != nil {
			perrs = append(perrs, sb.err)
			continue
		}
		res.Ingested += sb.events - sb.deduped
		res.Deduped += sb.deduped
		res.Partitions++
	}
	if len(perrs) > 0 {
		return res, perrs[0]
	}
	r.putIngestScratch(sc)
	if r.batches != nil {
		r.batches.Inc()
		r.events.Add(int64(len(events)))
	}
	return res, nil
}

// decodeBatch splits and decodes the NDJSON body, returning the
// trimmed raw lines alongside the decoded events (index-aligned).
// Lines already carrying a "seq" are rejected.
func (r *Router) decodeBatch(sc *ingestScratch, body []byte) ([][]byte, []event.Event, error) {
	dec := sc.dec
	lines := sc.lines[:0]
	lineNo := 0
	for len(body) > 0 {
		var line []byte
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			line, body = body, nil
		}
		lineNo++
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		lines = append(lines, line)
		if !dec.Add(lineNo, line) {
			break
		}
	}
	sc.lines = lines
	events, err := dec.Finish()
	if err != nil {
		return nil, nil, err
	}
	for i := range events {
		if events[i].Seq >= 0 {
			return nil, nil, fmt.Errorf("line %d: carries a \"seq\"; global sequence numbers are assigned by the router", i+1)
		}
		if len(lines[i]) == 0 || lines[i][0] != '{' {
			return nil, nil, fmt.Errorf("line %d: not a JSON object", i+1)
		}
	}
	return lines, events, nil
}
