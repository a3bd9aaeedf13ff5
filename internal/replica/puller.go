package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/wal"
)

// Terminal replication errors. Both mean the follower cannot make
// progress by retrying and must be re-seeded from the leader (wipe
// its WAL directory and start over).
var (
	// ErrDiverged reports that the follower's log is no prefix of the
	// leader's: its tail lies beyond the leader's, or their epochs
	// ordered the wrong way.
	ErrDiverged = errors.New("replica: follower log diverged from the leader")
	// ErrGapped reports that the leader reclaimed records the follower
	// never received (the unshipped cap fired, or the follower was
	// down past the retention window).
	ErrGapped = errors.New("replica: leader reclaimed records the follower never received")
)

// Options configures a Puller. Leader is required; everything else
// has working defaults.
type Options struct {
	// Leader is the leader's base URL (e.g. http://127.0.0.1:8080).
	Leader string
	// Client is the HTTP client used for all requests (default: a
	// client with a 60s timeout, comfortably above the long-poll).
	Client *http.Client
	// Retry shapes the capped backoff between failed requests
	// (defaults: 100ms initial, 3s cap, jitter 0.2).
	Retry resilience.RetryPolicy
	// WaitMS is the long-poll duration requested at the tail
	// (default 1000, max 30000).
	WaitMS int
	// ManifestEvery is how often the leader's query manifest and epoch
	// are re-synced (default 2s).
	ManifestEvery time.Duration
	// AutoPromoteAfter, when positive, promotes this follower to
	// leader after the leader has been unreachable for the duration.
	// Zero disables automatic failover (promotion stays manual).
	AutoPromoteAfter time.Duration
	// BatchSize is the number of records applied per ApplyReplicated
	// call (default 256).
	BatchSize int
	// Registry receives the puller's metrics when non-nil.
	Registry *obs.Registry
	// Logf receives operational log lines (default: standard logger).
	Logf func(format string, args ...interface{})
}

// Puller is the follower side of the replication protocol: it tails
// the leader's shipper, appends the received records to the local WAL
// through Server.ApplyReplicated, and mirrors the leader's query
// manifest, so the follower serves the same match streams at a small
// replication lag.
type Puller struct {
	srv *server.Server
	opt Options

	// lag is leader tail minus local tail after the last contact.
	lag atomic.Int64

	mPulls    *obs.Counter
	mApplied  *obs.Counter
	mErrors   *obs.Counter
	mPromoted *obs.Counter
}

// NewPuller builds a follower puller for srv, which must be WAL-backed
// and in read-only (follower) mode — ApplyReplicated enforces the
// latter on every batch.
func NewPuller(srv *server.Server, opt Options) (*Puller, error) {
	if srv.WAL() == nil {
		return nil, errors.New("replica: puller requires a WAL-backed server")
	}
	if !srv.ReadOnly() {
		return nil, errors.New("replica: puller requires a read-only (follower) server")
	}
	if opt.Leader == "" {
		return nil, errors.New("replica: Options.Leader is required")
	}
	opt.Leader = strings.TrimRight(opt.Leader, "/")
	if opt.Client == nil {
		opt.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if opt.Retry.Initial <= 0 {
		opt.Retry.Initial = 100 * time.Millisecond
	}
	if opt.Retry.Max <= 0 {
		opt.Retry.Max = 3 * time.Second
	}
	if opt.Retry.Jitter == 0 {
		opt.Retry.Jitter = 0.2
	}
	if opt.WaitMS <= 0 {
		opt.WaitMS = 1000
	}
	if opt.WaitMS > maxWaitMS {
		opt.WaitMS = maxWaitMS
	}
	if opt.ManifestEvery <= 0 {
		opt.ManifestEvery = 2 * time.Second
	}
	if opt.BatchSize <= 0 {
		opt.BatchSize = 256
	}
	if opt.Logf == nil {
		opt.Logf = log.Printf
	}
	p := &Puller{srv: srv, opt: opt}
	if reg := opt.Registry; reg != nil {
		p.mPulls = reg.Counter("ses_replica_pulls_total", "Segment-stream requests issued to the leader.")
		p.mApplied = reg.Counter("ses_replica_records_applied_total", "Records applied to the local WAL from the leader.")
		p.mErrors = reg.Counter("ses_replica_pull_errors_total", "Failed replication requests.")
		p.mPromoted = reg.Counter("ses_replica_auto_promotions_total", "Automatic promotions after leader health-check timeout.")
		reg.GaugeFunc("ses_replica_lag", "Leader tail minus local tail at the last leader contact.", p.Lag)
	} else {
		p.mPulls, p.mApplied, p.mErrors, p.mPromoted = &obs.Counter{}, &obs.Counter{}, &obs.Counter{}, &obs.Counter{}
	}
	return p, nil
}

// Lag returns the replication lag in records (leader tail minus local
// tail) observed at the last successful leader contact.
func (p *Puller) Lag() int64 { return p.lag.Load() }

// Run replicates until the context is cancelled, the server stops
// being a follower (promotion — returns nil), or a terminal error
// (ErrDiverged, ErrGapped) requires re-seeding. Transient failures
// retry with capped backoff plus jitter; when Options.AutoPromoteAfter
// is set and the leader stays unreachable past it, the follower
// promotes itself and Run returns nil.
func (p *Puller) Run(ctx context.Context) error {
	bo := resilience.NewBackoff(p.opt.Retry)
	lastContact := time.Now()
	var lastManifest time.Time

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !p.srv.ReadOnly() {
			// Promoted (manually or by a previous iteration): the write
			// path is open and replication is over.
			return nil
		}

		var err error
		if time.Since(lastManifest) >= p.opt.ManifestEvery {
			if err = p.syncManifest(ctx); err == nil {
				lastManifest = time.Now()
			}
		}
		if err == nil {
			_, err = p.pullOnce(ctx)
		}
		if err == nil {
			lastContact = time.Now()
			bo.Reset()
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if errors.Is(err, ErrDiverged) || errors.Is(err, ErrGapped) {
			return err
		}
		p.mErrors.Inc()
		if p.opt.AutoPromoteAfter > 0 && time.Since(lastContact) >= p.opt.AutoPromoteAfter {
			epoch, perr := p.srv.Promote()
			if perr != nil {
				return fmt.Errorf("replica: auto-promotion after %s without leader contact: %w", p.opt.AutoPromoteAfter, perr)
			}
			p.mPromoted.Inc()
			p.opt.Logf("replica: leader unreachable for %s; promoted to leader at epoch %d (last error: %v)",
				p.opt.AutoPromoteAfter, epoch, err)
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(bo.Next()):
		}
	}
}

// newRequest builds a replication GET with the follower epoch header.
func (p *Puller) newRequest(ctx context.Context, path string) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.opt.Leader+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderFollowerEpoch, strconv.FormatInt(p.srv.Epoch(), 10))
	return req, nil
}

// syncManifest fetches the leader's manifest, adopts its epoch,
// verifies the schema and reconciles the local query registry.
func (p *Puller) syncManifest(ctx context.Context) error {
	req, err := p.newRequest(ctx, "/replica/manifest")
	if err != nil {
		return err
	}
	resp, err := p.opt.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: manifest request: %s", httpError(resp))
	}
	var m Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("replica: decoding manifest: %w", err)
	}
	if got := p.srv.Schema().String(); m.Schema != got {
		return fmt.Errorf("%w: leader schema (%s) != local schema (%s)", ErrDiverged, m.Schema, got)
	}
	if m.Epoch < p.srv.Epoch() {
		return fmt.Errorf("%w: leader epoch %d below local epoch %d", ErrDiverged, m.Epoch, p.srv.Epoch())
	}
	if err := p.srv.AdoptEpoch(m.Epoch); err != nil {
		return fmt.Errorf("%w: %v", ErrDiverged, err)
	}
	if err := p.srv.SyncReplicatedQueries(m.Queries); err != nil {
		return err
	}
	return nil
}

// pullOnce requests one segment stream from the local tail, applies
// every received record, and returns the number applied. The request
// doubles as the follower's ack: its from offset tells the leader
// everything below is durable here.
func (p *Puller) pullOnce(ctx context.Context) (int, error) {
	local := p.srv.WAL().NextOffset()
	path := fmt.Sprintf("/replica/wal?from=%d&ack=%d&wait_ms=%d", local, local, p.opt.WaitMS)
	req, err := p.newRequest(ctx, path)
	if err != nil {
		return 0, err
	}
	p.mPulls.Inc()
	resp, err := p.opt.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return 0, fmt.Errorf("%w: %s", ErrGapped, httpError(resp))
	case http.StatusConflict:
		return 0, fmt.Errorf("%w: %s", ErrDiverged, httpError(resp))
	default:
		return 0, fmt.Errorf("replica: wal request: %s", httpError(resp))
	}

	if v := resp.Header.Get(HeaderEpoch); v != "" {
		e, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("replica: bad %s header %q", HeaderEpoch, v)
		}
		if e < p.srv.Epoch() {
			return 0, fmt.Errorf("%w: leader epoch %d below local epoch %d", ErrDiverged, e, p.srv.Epoch())
		}
		if err := p.srv.AdoptEpoch(e); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrDiverged, err)
		}
	}
	leaderNext := int64(-1)
	if v := resp.Header.Get(HeaderNextOffset); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			leaderNext = n
		}
	}

	schema := p.srv.Schema()
	body := bufio.NewReaderSize(resp.Body, 64*1024)
	var buf []byte
	batch := make([]event.Event, 0, p.opt.BatchSize)
	applied := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		n, err := p.srv.ApplyReplicated(batch)
		applied += n
		p.mApplied.Add(int64(n))
		batch = batch[:0]
		return err
	}
	for {
		payload, err := wal.DecodeFrame(body, buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			// A torn frame mid-stream: the connection died or the leader
			// stopped early. Apply what arrived intact and retry from the
			// new tail — CRC framing makes the cut safe.
			if ferr := flush(); ferr != nil {
				return applied, ferr
			}
			p.updateLag(leaderNext)
			return applied, fmt.Errorf("replica: segment stream interrupted: %w", err)
		}
		buf = payload[:0]
		e, err := wal.DecodeEvent(payload, schema)
		if err != nil {
			return applied, fmt.Errorf("%w: undecodable record from leader: %v", ErrDiverged, err)
		}
		batch = append(batch, e)
		if len(batch) >= p.opt.BatchSize {
			if err := flush(); err != nil {
				return applied, err
			}
		}
	}
	if err := flush(); err != nil {
		return applied, err
	}
	p.updateLag(leaderNext)
	return applied, nil
}

// updateLag records leader tail minus local tail; a negative value
// (racing appends) clamps to zero.
func (p *Puller) updateLag(leaderNext int64) {
	if leaderNext < 0 {
		return
	}
	lag := leaderNext - p.srv.WAL().NextOffset()
	if lag < 0 {
		lag = 0
	}
	p.lag.Store(lag)
}

// httpError renders a failed response's status and (JSON error) body.
func httpError(resp *http.Response) string {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		return fmt.Sprintf("%s: %s", resp.Status, body.Error)
	}
	return resp.Status
}

// CheckPeer queries a peer's health endpoint and returns its fencing
// epoch; a startup uses it to fence a revived old leader before it
// accepts writes. An unreachable peer returns ok=false — the caller
// decides whether that is fatal.
func CheckPeer(ctx context.Context, client *http.Client, peerURL string) (epoch int64, ok bool) {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(peerURL, "/")+"/healthz", nil)
	if err != nil {
		return 0, false
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	var body struct {
		Epoch int64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, false
	}
	return body.Epoch, true
}
