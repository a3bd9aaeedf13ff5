package resilience

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/automaton"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/obs"
)

// Dead-letter reasons passed to Config.DeadLetter.
var (
	// ErrLate marks an event that arrived later than the reorder slack
	// allows; consuming it would violate the runner's order contract.
	ErrLate = errors.New("resilience: event beyond reorder slack")
	// ErrSchema marks an event whose attributes do not conform to the
	// automaton's schema.
	ErrSchema = errors.New("resilience: event fails schema validation")
	// ErrSentinelTime marks an event carrying one of the reserved
	// timestamps event.MinTime / event.MaxTime, which the runtime uses
	// internally as watermark sentinels and therefore cannot process.
	ErrSentinelTime = errors.New("resilience: event timestamp is a reserved sentinel")
)

// Config parameterizes Supervise. The zero value gives a working
// supervisor: no reorder slack, checkpoint every 256 events, at most 3
// restarts with 10ms..2s exponential backoff, and silent dead-letter.
type Config struct {
	// Slack is the reorder slack: events may arrive up to Slack time
	// units later than any already-seen event. Later ones go to the
	// dead-letter callback with ErrLate.
	Slack event.Duration
	// DedupWindow, when positive, drops redelivered events with
	// identical (time, payload) within the window (see
	// engine.Reorderer).
	DedupWindow event.Duration
	// CheckpointEvery is the number of consumed events between
	// checkpoints; 0 means the default of 256. Smaller values bound the
	// replay work after a crash at the cost of more frequent snapshots.
	CheckpointEvery int
	// CheckpointPath, when non-empty, additionally persists every
	// checkpoint to this file (written atomically via rename), so a
	// restarted process can resume with Resume.
	CheckpointPath string
	// Resume makes the supervisor restore initial state from
	// CheckpointPath if the file exists. The caller is responsible for
	// feeding only events not yet consumed by the checkpointed run.
	Resume bool
	// MaxRestarts caps recoveries over the stream's lifetime; 0 means
	// the default of 3, negative disables recovery entirely.
	MaxRestarts int
	// Backoff is the initial restart delay, doubling per consecutive
	// restart up to MaxBackoff (defaults 10ms and 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// DeadLetter, when non-nil, receives events the pipeline refuses to
	// process (too late, schema-invalid) together with the reason,
	// instead of dropping them silently.
	DeadLetter func(event.Event, error)
	// FaultHook, when non-nil, is invoked with every event immediately
	// before it is stepped, inside the supervised region. Panics it
	// raises are recovered and trigger restart — the injection point
	// used by ChaosSource.FaultHook.
	FaultHook func(*event.Event)
	// OnRestart, when non-nil, is notified of every recovery with the
	// restart ordinal and the causing fault.
	OnRestart func(attempt int, cause error)
	// Registry, when non-nil, receives live supervision metrics:
	// restart, dead-letter, checkpoint, duplicate and event counters
	// plus a checkpoint-age gauge (see newSupObs for the series names).
	// Several supervisors may share one registry; without MetricLabels
	// the counters are then cumulative across them.
	Registry *obs.Registry
	// MetricLabels, when non-empty, are label key/value pairs appended
	// to every series this supervisor registers (via obs.SeriesName),
	// so supervisors sharing one registry — e.g. the per-query runners
	// of the serving layer — export distinguishable series instead of
	// cumulative ones.
	MetricLabels []string
	// CheckpointOnDrain takes a final checkpoint to CheckpointPath when
	// the input channel closes, before the end-of-input flush. A
	// process that drains its supervisors on shutdown can then restart
	// with Resume and skip the entire consumed input.
	CheckpointOnDrain bool
}

// Supervisor reports the health of a supervised stream. All methods
// are safe to call at any time; the definitive values are available
// once the match channel has closed.
type Supervisor struct {
	mu          sync.Mutex
	err         error
	restarts    int64
	deadLetters int64
	checkpoints int64
	duplicates  int64
	metrics     engine.Metrics

	// emitted counts matches delivered downstream (replay-suppressed
	// re-emissions excluded); completed is the completed-through stream
	// time (math.MinInt64 until the first event is fully processed).
	emitted   atomic.Int64
	completed atomic.Int64

	o *supObs // nil unless Config.Registry was set
}

// Emitted returns the number of matches the pipeline has delivered
// downstream. Matches suppressed during crash-recovery replay (they
// were already delivered before the crash) are not re-counted.
func (s *Supervisor) Emitted() int64 { return s.emitted.Load() }

// CompletedThrough reports the runner's stream clock: the highest
// event time actually stepped through the automaton (events the
// reorderer still buffers do not count). Two guarantees follow from
// the runner's expiry discipline — an accepted instance is emitted by
// the first stepped event past its window: (1) every match whose
// window closed strictly before the clock (first + WITHIN < clock)
// has already been handed downstream, and (2) no future match can
// close a window below the clock — surviving instances have
// first + WITHIN >= clock, and any later arrival the reorderer admits
// starts at or above it. After end of input it reports math.MaxInt64.
// ok is false before the first event is stepped.
//
// Readers that pair this with Emitted to decide "no further match can
// sort below time T" must read CompletedThrough first: a match emitted
// between the two reads is then included in Emitted, and any match
// emitted after both reads closes its window at or above the observed
// clock.
func (s *Supervisor) CompletedThrough() (int64, bool) {
	v := s.completed.Load()
	return v, v != math.MinInt64
}

// supObs bundles the supervisor's registry-exported metrics. All
// fields are updated at the same sites as the Supervisor's own
// mutex-guarded counters; the checkpoint-age gauge is sampled at
// scrape time from the atomically stored wall-clock instant of the
// last completed checkpoint.
type supObs struct {
	restarts    *obs.Counter
	deadLetters *obs.Counter
	checkpoints *obs.Counter
	duplicates  *obs.Counter
	events      *obs.Counter
	lastCkpt    atomic.Int64 // UnixNano of the last checkpoint, 0 before the first
	prevDup     int64        // last synced Reorderer.DuplicatesDropped (run goroutine only)
}

func newSupObs(r *obs.Registry, labels []string) *supObs {
	name := func(base string) string { return obs.SeriesName(base, labels...) }
	o := &supObs{
		restarts:    r.Counter(name("ses_resilience_restarts_total"), "Recoveries performed after pipeline panics."),
		deadLetters: r.Counter(name("ses_resilience_dead_letters_total"), "Events refused by the pipeline (late, schema-invalid, sentinel-timestamped)."),
		checkpoints: r.Counter(name("ses_resilience_checkpoints_total"), "Runner state checkpoints taken."),
		duplicates:  r.Counter(name("ses_resilience_duplicates_dropped_total"), "Redelivered events removed by the dedup window."),
		events:      r.Counter(name("ses_resilience_events_total"), "Events accepted and stepped through the supervised runner."),
	}
	r.GaugeFunc(name("ses_resilience_checkpoint_age_seconds"),
		"Seconds since the last completed checkpoint (-1 before the first).",
		func() int64 {
			last := o.lastCkpt.Load()
			if last == 0 {
				return -1
			}
			return int64(time.Since(time.Unix(0, last)).Seconds())
		})
	return o
}

// markCheckpoint records a completed checkpoint. Nil-safe.
func (o *supObs) markCheckpoint() {
	if o == nil {
		return
	}
	o.checkpoints.Inc()
	o.lastCkpt.Store(time.Now().UnixNano())
}

// syncDuplicates folds the reorderer's cumulative duplicate count into
// the exported counter. Nil-safe; called only from the run goroutine.
func (o *supObs) syncDuplicates(total int64) {
	if o == nil {
		return
	}
	if d := total - o.prevDup; d > 0 {
		o.duplicates.Add(d)
		o.prevDup = total
	}
}

// Err returns the error that terminated the stream, or nil for a clean
// end-of-input shutdown.
func (s *Supervisor) Err() error { s.mu.Lock(); defer s.mu.Unlock(); return s.err }

// Restarts returns the number of recoveries performed.
func (s *Supervisor) Restarts() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.restarts }

// DeadLetters returns the number of events routed to the dead-letter
// callback.
func (s *Supervisor) DeadLetters() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.deadLetters }

// Checkpoints returns the number of checkpoints taken.
func (s *Supervisor) Checkpoints() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.checkpoints }

// DuplicatesDropped returns the number of redelivered events removed
// by the dedup window.
func (s *Supervisor) DuplicatesDropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.duplicates
}

// Metrics returns the runner's execution metrics as of the last
// completed step (final after the match channel closes).
func (s *Supervisor) Metrics() engine.Metrics { s.mu.Lock(); defer s.mu.Unlock(); return s.metrics }

func (s *Supervisor) fail(err error) { s.mu.Lock(); s.err = err; s.mu.Unlock() }

// panicError wraps a recovered panic so restart logic can distinguish
// crashes (recoverable by replay) from deterministic engine errors
// (not).
type panicError struct {
	val   interface{}
	stack []byte
}

func (p panicError) Error() string { return fmt.Sprintf("resilience: pipeline panic: %v", p.val) }

// Supervise runs a resilient streaming evaluation of the automaton
// over in and returns the match channel plus a Supervisor handle.
//
// Incoming events are schema-validated (failures dead-letter), passed
// through a Reorderer with cfg.Slack (late arrivals dead-letter,
// in-window redeliveries dedup), and stepped through a Runner built
// with opts. The runner state is checkpointed every CheckpointEvery
// events; a panic anywhere in the step path (including FaultHook) is
// recovered by restoring the last checkpoint, deterministically
// replaying the events consumed since — suppressing matches already
// delivered — and resuming, with capped exponential backoff between
// consecutive recoveries. Deterministic engine errors (e.g. the Fail
// overload policy tripping) terminate the stream instead, since replay
// would reproduce them.
//
// The match channel closes on end of input (after a final flush),
// on ctx cancellation, or on a terminal error; consult
// Supervisor.Err afterwards.
func Supervise(ctx context.Context, a *automaton.Automaton, opts []engine.Option,
	in <-chan event.Event, cfg Config) (<-chan engine.Match, *Supervisor) {
	s := &Supervisor{}
	s.completed.Store(math.MinInt64)
	if cfg.Registry != nil {
		s.o = newSupObs(cfg.Registry, cfg.MetricLabels)
	}
	out := make(chan engine.Match)
	go s.run(ctx, a, opts, in, nil, cfg, out)
	return out, s
}

// SuperviseBlocks is Supervise over a channel of shared event blocks:
// each received block's selected events are processed in order, exactly
// as if they had arrived one by one on a plain event channel. Blocks
// are treated as immutable — the supervisor copies each event before
// stamping scratch fields. This is the batched input the serving
// layer's routed fan-out uses: one channel operation per batch instead
// of one per event.
//
// Unlike Supervise, block mode preserves each event's Seq as stamped
// by the feeder instead of renumbering with local counters: the feeder
// numbers events by their global stream position, so matches carry the
// same sequence numbers whether the query received the full stream or
// a routed sub-stream of it. Seq must be strictly increasing across
// delivered events (stream positions and WAL offsets both are).
func SuperviseBlocks(ctx context.Context, a *automaton.Automaton, opts []engine.Option,
	in <-chan event.Block, cfg Config) (<-chan engine.Match, *Supervisor) {
	s := &Supervisor{}
	s.completed.Store(math.MinInt64)
	if cfg.Registry != nil {
		s.o = newSupObs(cfg.Registry, cfg.MetricLabels)
	}
	out := make(chan engine.Match)
	go s.run(ctx, a, opts, nil, in, cfg, out)
	return out, s
}

func (s *Supervisor) run(ctx context.Context, a *automaton.Automaton, opts []engine.Option,
	inEv <-chan event.Event, inBlk <-chan event.Block, cfg Config, out chan<- engine.Match) {
	defer close(out)

	// Block-mode inputs arrive pre-numbered by global stream position;
	// keep those numbers so matches are byte-identical across full and
	// routed delivery (see SuperviseBlocks).
	preserveSeq := inBlk != nil

	maxRestarts := cfg.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = 3
	} else if maxRestarts < 0 {
		maxRestarts = 0
	}
	backoff0 := cfg.Backoff
	if backoff0 <= 0 {
		backoff0 = 10 * time.Millisecond
	}
	maxBackoff := cfg.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	ckptEvery := cfg.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = 256
	}

	runner := engine.New(a, opts...)
	var resumed *ckptState
	var baseline []byte // the resumed snapshot, the restart baseline until the first checkpoint
	if cfg.Resume && cfg.CheckpointPath != "" {
		if data, err := os.ReadFile(cfg.CheckpointPath); err == nil {
			st, v2, derr := decodeCheckpoint(a.Schema, data)
			if derr != nil {
				s.fail(fmt.Errorf("resilience: resuming from %s: %w", cfg.CheckpointPath, derr))
				return
			}
			// Legacy checkpoints are bare runner snapshots; v2 wraps the
			// snapshot with the source watermark and reorderer state.
			snap := data
			if v2 {
				snap = st.runner
				resumed = &st
			}
			restored, err := engine.RestoreRunnerBytes(a, snap, opts...)
			if err != nil {
				s.fail(fmt.Errorf("resilience: resuming from %s: %w", cfg.CheckpointPath, err))
				return
			}
			runner = restored
			baseline = snap
		} else if !errors.Is(err, os.ErrNotExist) {
			s.fail(err)
			return
		}
	}
	defer func() {
		s.mu.Lock()
		s.metrics = runner.Metrics()
		s.mu.Unlock()
	}()

	deadLetter := func(e event.Event, reason error) {
		s.mu.Lock()
		s.deadLetters++
		s.mu.Unlock()
		if s.o != nil {
			s.o.deadLetters.Inc()
		}
		if cfg.DeadLetter != nil {
			cfg.DeadLetter(e, reason)
		}
	}

	ro := engine.NewReorderer(cfg.Slack)
	ro.DedupWindow = cfg.DedupWindow
	ro.Late = func(e event.Event) { deadLetter(e, ErrLate) }
	defer func() {
		s.mu.Lock()
		s.duplicates = ro.DuplicatesDropped
		s.mu.Unlock()
	}()

	// arrival numbers events for the reorderer's stable tie-break;
	// srcLast tracks the source offset (event.Seq as stamped by the
	// feeder, e.g. a WAL offset) of the last event received, the
	// watermark persisted with every on-disk checkpoint.
	arrival, srcLast := 0, int64(-1)
	if resumed != nil {
		ro.RestoreState(resumed.reorder)
		arrival, srcLast = int(resumed.arrival), resumed.srcLast
	}

	// maxStepped is the highest event time fed through the runner — the
	// stream clock published by CompletedThrough. It advances in
	// feedOne, after the event's matches are delivered, so the clock
	// never gets ahead of the emissions it vouches for. A resumed run
	// starts over: the clock climbs again as live events arrive.
	maxStepped := int64(math.MinInt64)

	// Recovery is possible from the very first event without an eager
	// initial snapshot: nil ckpt means "the runner's initial state",
	// which a restart rebuilds with engine.New — identical to restoring
	// a snapshot taken before any event. A resumed run's baseline is
	// the checkpoint bytes already read from disk; replay holds
	// everything consumed since the baseline.
	ckpt := baseline
	if s.o != nil {
		// The initial snapshot starts the checkpoint-age clock without
		// counting toward Checkpoints(), which reports periodic saves.
		s.o.lastCkpt.Store(time.Now().UnixNano())
	}
	var replay []event.Event
	emittedSince := 0

	send := func(m engine.Match) bool {
		select {
		case out <- m:
			s.emitted.Add(1)
			return true
		case <-ctx.Done():
			s.fail(ctx.Err())
			return false
		}
	}

	step := func(e *event.Event) (ms []engine.Match, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = panicError{val: p, stack: debug.Stack()}
			}
		}()
		if cfg.FaultHook != nil {
			cfg.FaultHook(e)
		}
		return runner.Step(e)
	}

	// ckptBuf backs ckpt from one periodic checkpoint to the next: the
	// previous snapshot is dead the moment a new one is cut, so it is
	// overwritten in place instead of regrown per checkpoint.
	var ckptBuf bytes.Buffer
	saveCheckpoint := func() bool {
		ckptBuf.Reset()
		if err := runner.WriteSnapshot(&ckptBuf); err != nil {
			s.fail(err)
			return false
		}
		data := ckptBuf.Bytes()
		if cfg.CheckpointPath != "" {
			env := encodeCheckpoint(a.Schema, ckptState{
				srcLast: srcLast,
				arrival: int64(arrival),
				reorder: ro.Snapshot(),
				runner:  data,
			})
			if err := writeFileAtomic(cfg.CheckpointPath, env); err != nil {
				s.fail(err)
				return false
			}
		}
		ckpt = data
		replay = replay[:0]
		emittedSince = 0
		s.mu.Lock()
		s.checkpoints++
		s.mu.Unlock()
		s.o.markCheckpoint()
		return true
	}

	// restore recovers from a crash: restore the last checkpoint and
	// deterministically replay the events consumed since, suppressing
	// the matches that were already delivered downstream. A crash
	// during replay consumes another restart and tries again.
	restore := func(cause error) bool {
		// Deterministic (jitter-free) capped exponential backoff: a
		// single supervisor retrying its own runner gains nothing from
		// desynchronization, and tests rely on the exact delays.
		bo := NewBackoff(RetryPolicy{Initial: backoff0, Max: maxBackoff})
		for {
			s.mu.Lock()
			s.restarts++
			attempt := int(s.restarts)
			s.mu.Unlock()
			if s.o != nil {
				s.o.restarts.Inc()
			}
			if attempt > maxRestarts {
				s.fail(fmt.Errorf("resilience: giving up after %d restarts: %w", attempt-1, cause))
				return false
			}
			if cfg.OnRestart != nil {
				cfg.OnRestart(attempt, cause)
			}
			select {
			case <-time.After(bo.Next()):
			case <-ctx.Done():
				s.fail(ctx.Err())
				return false
			}
			if ckpt == nil {
				// No checkpoint was ever taken: the baseline is the
				// runner's initial state.
				runner = engine.New(a, opts...)
			} else {
				restored, err := engine.RestoreRunnerBytes(a, ckpt, opts...)
				if err != nil {
					s.fail(err)
					return false
				}
				runner = restored
			}
			skip, emitted, crashed := emittedSince, 0, false
			for i := range replay {
				ev := replay[i]
				if !preserveSeq {
					ev.Seq = int(runner.Metrics().EventsProcessed)
				}
				ms, err := step(&ev)
				if err != nil {
					var pe panicError
					if !errors.As(err, &pe) {
						s.fail(err)
						return false
					}
					cause, crashed = err, true
					break
				}
				for _, m := range ms {
					if emitted++; emitted > skip && !send(m) {
						return false
					}
				}
			}
			if crashed {
				continue
			}
			if emitted > skip {
				emittedSince = emitted
			}
			return true
		}
	}

	feedOne := func(e event.Event) bool {
		for {
			ev := e
			if !preserveSeq {
				ev.Seq = int(runner.Metrics().EventsProcessed)
			}
			ms, err := step(&ev)
			if err != nil {
				var pe panicError
				if errors.As(err, &pe) {
					if !restore(err) {
						return false
					}
					continue // retry e on the restored runner
				}
				s.fail(err)
				return false
			}
			for _, m := range ms {
				emittedSince++
				if !send(m) {
					return false
				}
			}
			if s.o != nil {
				s.o.events.Inc()
			}
			if int64(e.Time) > maxStepped {
				maxStepped = int64(e.Time)
			}
			// Checkpoints are deliberately NOT taken here: feedOne runs
			// inside a reorderer release batch, whose remaining events
			// are in neither the runner state nor the reorderer buffer —
			// a checkpoint cut mid-batch would lose them across a
			// restart. The main loop checkpoints between batches.
			replay = append(replay, e)
			return true
		}
	}

	finish := func() {
		for {
			ms, err := func() (ms []engine.Match, err error) {
				defer func() {
					if p := recover(); p != nil {
						err = panicError{val: p, stack: debug.Stack()}
					}
				}()
				return runner.Flush(), nil
			}()
			if err != nil {
				if !restore(err) {
					return
				}
				continue
			}
			for _, m := range ms {
				if !send(m) {
					return
				}
			}
			return
		}
	}

	// process consumes one received event: watermark advance, schema and
	// sentinel checks, reorder push, stepping the released batch and the
	// between-batches checkpoint. It returns false when the stream must
	// terminate (the cause has been recorded).
	process := func(e event.Event) bool {
		// The watermark advances on every received event, including
		// ones about to dead-letter: they are deterministically
		// refused again if replayed, so a resuming feeder need not
		// re-send them.
		srcLast = int64(e.Seq)
		if err := a.Schema.Check(e.Attrs); err != nil {
			deadLetter(e, fmt.Errorf("%w: %v", ErrSchema, err))
			return true
		}
		if event.SentinelTime(e.Time) {
			// The reorderer would reject these anyway (through its
			// Late callback); classifying them here gives the
			// dead-letter consumer the precise reason.
			deadLetter(e, ErrSentinelTime)
			return true
		}
		if !preserveSeq {
			// Arrival order for the reorderer's stable tie-break. In
			// block mode the preserved Seq is itself strictly increasing
			// in arrival order, so it serves as the tie-break directly.
			e.Seq = arrival
		}
		arrival++
		for _, re := range ro.Push(e) {
			if !feedOne(re) {
				return false
			}
		}
		// Periodic checkpoints happen here, on the release-batch
		// boundary, where runner state + reorderer buffer + watermark
		// together cover every received event exactly once.
		if len(replay) >= ckptEvery && !saveCheckpoint() {
			return false
		}
		// The released batch is fully stepped and its matches sent:
		// publish the advanced stream clock (see CompletedThrough).
		if maxStepped != math.MinInt64 {
			s.completed.Store(maxStepped)
		}
		s.o.syncDuplicates(ro.DuplicatesDropped)
		return true
	}

	// eof flushes the reorderer, takes the drain checkpoint and emits
	// the end-of-input matches, when the input channel closes.
	eof := func() {
		for _, re := range ro.Drain() {
			if !feedOne(re) {
				return
			}
		}
		if len(replay) >= ckptEvery && !saveCheckpoint() {
			return
		}
		if cfg.CheckpointOnDrain && cfg.CheckpointPath != "" && !saveCheckpoint() {
			return
		}
		finish()
		// End of input: nothing below any horizon can arrive anymore.
		s.completed.Store(math.MaxInt64)
	}

	for {
		select {
		case <-ctx.Done():
			s.fail(ctx.Err())
			return
		case e, ok := <-inEv:
			if !ok {
				eof()
				return
			}
			if !process(e) {
				return
			}
		case blk, ok := <-inBlk:
			if !ok {
				eof()
				return
			}
			for i := 0; i < blk.Len(); i++ {
				if !process(*blk.At(i)) {
					return
				}
			}
		}
	}
}

// writeFileAtomic writes data to path via a temp file and rename, so a
// crash mid-write never leaves a torn checkpoint behind.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
