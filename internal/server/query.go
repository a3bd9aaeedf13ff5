package server

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/event"
)

// QuerySpec is the registration request for one SES query: the query
// text plus the execution knobs of its per-query pipeline. It is the
// JSON body of POST /queries and the unit persisted in the query
// manifest.
type QuerySpec struct {
	// ID names the query. It appears in URLs, metric labels and
	// checkpoint file names, so it is restricted to letters, digits,
	// '_', '-' and '.' (max 64 characters).
	ID string `json:"id"`
	// Query is the SES query text, e.g. the paper's running example
	// "PATTERN PERMUTE(c, p+, d) THEN (b) WHERE ... WITHIN 264h".
	// Queries with optional variables (multi-variant automata) are
	// rejected: the streaming runtime evaluates one automaton per
	// query.
	Query string `json:"query"`
	// Filter enables the event filtering optimisation (Section 4.5 of
	// the paper) on the query's runner.
	Filter bool `json:"filter,omitempty"`
	// MaxInstances caps the simultaneous automaton instances; 0 means
	// unlimited. What happens at the cap is chosen by Policy.
	MaxInstances int `json:"max_instances,omitempty"`
	// Policy names the overload policy applied at the MaxInstances
	// cap: "fail" (default), "reject-new", "drop-oldest" or
	// "shed-start-states".
	Policy string `json:"policy,omitempty"`
	// ShedLowWater is the resume mark of the shed-start-states policy:
	// start instances resume once fewer than this many instances are
	// live (default: half the cap, at least 1).
	ShedLowWater int `json:"shed_low_water,omitempty"`
	// Admission selects what happens when the query's mailbox is full:
	// "block" (default) applies backpressure to the shared ingest,
	// "drop" sheds the event for this query only (counted in the shed
	// metric) so one slow query cannot stall the others.
	Admission string `json:"admission,omitempty"`
	// Key, when non-empty, partitions the query's runner by this
	// attribute (engine.WithPartitionKey): every automaton instance is
	// confined to one key's events, the "for each patient" reading.
	// A keyed query reports no ProcessedThrough.
	Key string `json:"key,omitempty"`
	// Slack is the reorder slack in time ticks granted to out-of-order
	// events (late events dead-letter). At 0, the default, the query
	// never receives an event earlier than the stream high-water: the
	// server withholds it at dispatch.
	Slack int64 `json:"slack,omitempty"`
	// CheckpointEvery overrides the server's checkpoint cadence for
	// this query (events between snapshots).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Materialize opts an AGGREGATE query back into match-log
	// materialization: matches are enumerated into the log (streamable
	// via /matches) in addition to being folded into the aggregate
	// groups. By default an AGGREGATE query is aggregate-only — no
	// Match values are built, encoded or retained, only
	// /queries/{id}/stats. Rejected for queries without an AGGREGATE
	// clause.
	Materialize bool `json:"materialize,omitempty"`
}

// parsePolicy maps a QuerySpec.Policy name to the engine policy.
func parsePolicy(s string) (engine.OverloadPolicy, error) {
	switch s {
	case "", "fail":
		return engine.Fail, nil
	case "reject-new":
		return engine.RejectNew, nil
	case "drop-oldest":
		return engine.DropOldest, nil
	case "shed-start-states":
		return engine.ShedStartStates, nil
	}
	return engine.Fail, fmt.Errorf("server: unknown overload policy %q", s)
}

// validID reports whether id is acceptable as a query identifier:
// non-empty, at most 64 bytes, only [A-Za-z0-9_.-], not starting with
// a dot (checkpoint files must not be hidden or path-traversing).
func validID(id string) bool {
	if id == "" || len(id) > 64 || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '_' || c == '-' || c == '.':
		default:
			return false
		}
	}
	return true
}

// QueryInfo is the externally visible state of a registered query, as
// returned by GET /queries and GET /queries/{id}.
type QueryInfo struct {
	// ID and Query echo the registration spec.
	ID    string `json:"id"`
	Query string `json:"query"`
	// Fingerprint is the automaton's structural digest; two query
	// texts compiling to the same automaton share it, which is how
	// duplicate registrations are rejected.
	Fingerprint string `json:"fingerprint"`
	// States and Transitions describe the compiled SES automaton
	// (|Q| and |∆| of the paper's Definition 3).
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	// Events counts events accepted into the query's mailbox; Shed
	// counts events dropped for this query by the "drop" admission
	// policy or because its pipeline had terminated.
	Events int64 `json:"events"`
	Shed   int64 `json:"shed"`
	// Matches counts matches emitted by the query's pipeline.
	Matches int64 `json:"matches"`
	// QueueDepth is the current mailbox occupancy in event blocks
	// (one accepted ingest batch is one block).
	QueueDepth int `json:"queue_depth"`
	// LogStart and LogEnd delimit the retained match-log offsets:
	// GET /queries/{id}/matches?from=LogStart replays everything still
	// buffered, LogEnd is the offset the next match will get.
	LogStart int64 `json:"log_start"`
	LogEnd   int64 `json:"log_end"`
	// ProcessedThrough, when present, is the pipeline's stream clock:
	// the highest event time stepped through the automaton. Every
	// match whose window closed strictly before it has been handed to
	// the match log's collector, and no later match can close a window
	// below it (resilience.Supervisor.CompletedThrough). Emitted
	// counts matches handed to the collector — it leads Matches
	// (appended to the log) by at most the block in flight. The SSE
	// match follow carries the same clock to cluster routers as
	// ": clock" lines (see Server.Handler). A keyed query
	// (QuerySpec.Key) omits ProcessedThrough: its runner emits a key's
	// expired match only at that key's next event, so the clock bounds
	// no other key's matches.
	ProcessedThrough *int64 `json:"processed_through,omitempty"`
	Emitted          int64  `json:"emitted"`
	// Done reports that the pipeline has terminated (drained, removed
	// or failed); Err carries its terminal error, if any.
	Done bool   `json:"done"`
	Err  string `json:"err,omitempty"`
	// Backfill reports that the query was registered against retained
	// WAL history (POST /queries?backfill=true).
	Backfill bool `json:"backfill,omitempty"`
	// CatchingUp is true while the query is still replaying the WAL —
	// after a backfill registration or a server restart — and has not
	// yet handed off to live delivery.
	CatchingUp bool `json:"catching_up,omitempty"`
	// ReplayLag is the number of WAL records between the catch-up
	// feeder's position and the log tail; 0 once live.
	ReplayLag int64 `json:"replay_lag,omitempty"`
	// Window is the query's WITHIN duration in time ticks (the paper's
	// τ). A cluster router uses it as the merge horizon: a match with
	// window start f cannot be preceded by a later-arriving match from
	// another partition once every partition's stream time passed f+τ.
	Window int64 `json:"window"`
	// Aggregate reports that the query carries an AGGREGATE clause and
	// serves GET /queries/{id}/stats. AggVersion is the aggregate fold
	// counter (the stats document's ver) and AggGroups the number of
	// live partition groups.
	Aggregate  bool   `json:"aggregate,omitempty"`
	AggVersion uint64 `json:"agg_version,omitempty"`
	AggGroups  int    `json:"agg_groups,omitempty"`
}

// matchLog is a bounded, offset-addressed ring of pre-encoded match
// JSON lines. Offsets grow monotonically from 0 as matches are
// appended; once the ring is full the oldest lines are discarded and
// the start offset advances. Readers poll read and block on the
// returned wait channel for live follow.
//
// The lines of one appended block share one buffer (see
// Server.collect), so a retained line keeps its whole block's buffer
// alive: beyond the retention limit the log holds at most the rest of
// one partly evicted block.
type matchLog struct {
	mu    sync.Mutex
	ring  [][]byte
	limit int   // retention capacity; the ring grows toward it on demand
	base  int64 // offset of ring[start]
	start int   // index of the oldest retained line
	count int
	// dropped counts the matches left out because they failed to
	// encode. A block's drops are counted with its lines, so
	// offset + dropped is the number of matches collected.
	dropped int64
	// notify is made by a reader about to wait and closed and cleared
	// by the next append or close: an append nobody waits for
	// allocates nothing.
	notify chan struct{}
	done   bool
}

func newMatchLog(capacity int) *matchLog {
	if capacity <= 0 {
		capacity = 4096
	}
	return &matchLog{limit: capacity}
}

// appendBlock adds the encoded match lines of one stepped block in
// order, evicting the oldest lines while the ring is full, then counts
// the block's dropped matches, and wakes all follow readers once. The
// log keeps the lines, not the slice.
func (l *matchLog) appendBlock(lines [][]byte, dropped int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	for _, line := range lines {
		if l.count == len(l.ring) && len(l.ring) < l.limit {
			// Grow geometrically toward the retention limit. Eviction
			// only starts once the ring reaches the limit, so the content
			// here is still linear from index 0.
			n := 2 * len(l.ring)
			if n == 0 {
				n = 16
			}
			if n > l.limit {
				n = l.limit
			}
			grown := make([][]byte, n)
			copy(grown, l.ring)
			l.ring = grown
		}
		if l.count == len(l.ring) {
			l.ring[l.start] = nil
			l.start = (l.start + 1) % len(l.ring)
			l.base++
			l.count--
		}
		l.ring[(l.start+l.count)%len(l.ring)] = line
		l.count++
	}
	l.dropped += int64(dropped)
	if len(lines) > 0 || dropped > 0 {
		l.wake()
	}
}

// droppedCount returns how many matches were left out of the log. A
// reader that takes it before read has next + dropped at most the
// number of matches collected up to the read: every drop it counts
// belongs to a block whose lines the read sees.
func (l *matchLog) droppedCount() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// wake closes and clears notify. Called with l.mu held.
func (l *matchLog) wake() {
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
}

// close marks the log complete — no further appends — and wakes all
// follow readers so they can observe the end of the stream.
func (l *matchLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.done = true
	l.wake()
}

// read appends to dst every retained line at offset >= from and
// returns it, the offset following the last line — so the first line's
// offset is next - len(lines) — and a channel that is closed on the
// next append, nil once the log is complete. Offsets older than the
// retention window are skipped: the first line is then the oldest
// retained one, not the one at from.
func (l *matchLog) read(dst [][]byte, from int64) (lines [][]byte, next int64, wait <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	next = max(from, l.base)
	lines = dst
	for next < l.base+int64(l.count) {
		lines = append(lines, l.ring[(l.start+int(next-l.base))%len(l.ring)])
		next++
	}
	if l.done {
		return lines, next, nil
	}
	if l.notify == nil {
		l.notify = make(chan struct{})
	}
	return lines, next, l.notify
}

// bounds returns the retained offset window [start, end).
func (l *matchLog) bounds() (start, end int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base, l.base + int64(l.count)
}

// validate checks the parts of a spec that do not require compiling
// the query text.
func (spec *QuerySpec) validate(schema *event.Schema) error {
	if !validID(spec.ID) {
		return fmt.Errorf("server: invalid query id %q (want [A-Za-z0-9_.-]{1,64}, not starting with '.')", spec.ID)
	}
	if spec.Query == "" {
		return fmt.Errorf("server: query %q has empty query text", spec.ID)
	}
	if _, err := parsePolicy(spec.Policy); err != nil {
		return err
	}
	switch spec.Admission {
	case "", "block", "drop":
	default:
		return fmt.Errorf("server: unknown admission mode %q (want \"block\" or \"drop\")", spec.Admission)
	}
	if spec.Key != "" {
		if _, ok := schema.Index(spec.Key); !ok {
			return fmt.Errorf("server: partition key %q is not a schema attribute (%s)", spec.Key, schema)
		}
	}
	if spec.Slack < 0 {
		return fmt.Errorf("server: negative reorder slack %d", spec.Slack)
	}
	return nil
}
