// Package resilience supervises runner pipelines over imperfect
// streams: panic recovery, checkpoint-based restart with capped
// exponential backoff, and dead-letter routing for late and malformed
// events.
package resilience

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
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

// Config parameterizes Supervise and SuperviseEvents. The zero value
// gives a working supervisor: no reorder slack, checkpoint every 256
// events, at most 3 restarts with 10ms..2s exponential backoff, and
// silent dead-letter.
type Config struct {
	// Slack is the reorder slack: events may arrive up to Slack time
	// units later than any already-seen event. Later ones go to the
	// dead-letter callback with ErrLate.
	Slack event.Duration
	// DedupWindow, when positive, drops redelivered events with
	// identical (time, payload) within the window (see
	// engine.Reorderer).
	DedupWindow event.Duration
	// CheckpointEvery is the number of stepped events between
	// checkpoints (0 means 256), exact even inside a received block; a
	// reorderer's release batch is not split. Smaller values bound the
	// replay work after a crash at the cost of more frequent snapshots.
	// A run without recovery or CheckpointPath cuts no checkpoint.
	CheckpointEvery int
	// CheckpointPath, when non-empty, additionally persists every
	// checkpoint to this file (written atomically via rename), plus a
	// final one when the input channel closes, before the end-of-input
	// flush, so a restarted process can resume with Resume and skip the
	// entire consumed input.
	CheckpointPath string
	// Resume makes the supervisor restore initial state from
	// CheckpointPath if the file exists. The caller is responsible for
	// feeding only events not yet consumed by the checkpointed run: those
	// from ResumeSeq on.
	Resume bool
	// MaxRestarts caps recoveries over the stream's lifetime; 0 means
	// the default of 3, negative disables recovery entirely; with no
	// CheckpointPath either, the run then keeps no checkpoint or replay
	// block and costs about what a Step loop does.
	MaxRestarts int
	// Backoff is the initial restart delay, doubling per consecutive
	// restart up to MaxBackoff (defaults 10ms and 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// DeadLetter, when non-nil, receives events the pipeline refuses to
	// process (too late, schema-invalid) together with the reason,
	// instead of dropping them silently.
	DeadLetter func(event.Event, error)
	// OnRestart, when non-nil, is notified of every recovery with the
	// restart ordinal and the causing fault.
	OnRestart func(attempt int, cause error)
	// faultHook, when non-nil, is invoked with every event of a block,
	// read-only, before the block is stepped (or replayed), inside the
	// supervised region. Panics it raises are recovered and trigger
	// restart: the tests' fault-injection point.
	faultHook func(*event.Event)
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
}

// Supervisor reports the health of a supervised stream. All methods
// are safe to call at any time; the definitive values are available
// once the match channel has closed.
type Supervisor struct {
	mu      sync.Mutex
	err     error
	metrics engine.Metrics

	restarts, deadLetters, checkpoints, duplicates atomic.Int64

	// emitted counts matches delivered downstream (replay-suppressed
	// re-emissions excluded); completed is the completed-through stream
	// time (math.MinInt64 until the first event is fully processed).
	emitted   atomic.Int64
	completed atomic.Int64
	// progress is the channel Progress hands out, closed and cleared by
	// the next store of completed; nil while no reader waits.
	progress atomic.Pointer[chan struct{}]

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
// first + WITHIN >= clock, and any later arrival the pipeline admits
// starts at or above it. After end of input it reports math.MaxInt64.
// ok is false before the first event is stepped.
//
// Readers that pair this with Emitted to decide "no further match can
// sort below time T" must read CompletedThrough first: a match emitted
// between the two reads is then included in Emitted, and any match
// emitted after both reads closes its window at or above the observed
// clock.
//
// For a keyed runner (engine.WithPartitionKey) both guarantees hold
// only per key, against the time of that key's latest event: a key's
// expired match is emitted at that key's next event or at the flush,
// however far the stream clock ran on.
func (s *Supervisor) CompletedThrough() (int64, bool) {
	v := s.completed.Load()
	return v, v != math.MinInt64
}

// Progress returns a channel that is closed the next time the stream
// clock (CompletedThrough) is published, including the end-of-input
// math.MaxInt64. A reader takes the channel before it reads the clock,
// so a publication between the two reads still wakes it. The channel
// is made on demand: a supervisor nobody waits on pays nothing.
func (s *Supervisor) Progress() <-chan struct{} {
	for {
		if c := s.progress.Load(); c != nil {
			return *c
		}
		c := make(chan struct{})
		if s.progress.CompareAndSwap(nil, &c) {
			return c
		}
	}
}

// setCompleted publishes the stream clock and wakes Progress waiters.
func (s *Supervisor) setCompleted(t int64) {
	s.completed.Store(t)
	if c := s.progress.Swap(nil); c != nil {
		close(*c)
	}
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

// Err returns the error that terminated the stream, or nil for a clean
// end-of-input shutdown.
func (s *Supervisor) Err() error { s.mu.Lock(); defer s.mu.Unlock(); return s.err }

// Restarts returns the number of recoveries performed.
func (s *Supervisor) Restarts() int64 { return s.restarts.Load() }

// DeadLetters returns the number of events routed to the dead-letter
// callback.
func (s *Supervisor) DeadLetters() int64 { return s.deadLetters.Load() }

// Checkpoints returns the number of checkpoints taken.
func (s *Supervisor) Checkpoints() int64 { return s.checkpoints.Load() }

// DuplicatesDropped returns the number of redelivered events removed
// by the dedup window.
func (s *Supervisor) DuplicatesDropped() int64 { return s.duplicates.Load() }

// Metrics returns the runner's execution metrics as of the last
// completed step (final after the match channel closes).
func (s *Supervisor) Metrics() engine.Metrics { s.mu.Lock(); defer s.mu.Unlock(); return s.metrics }

func (s *Supervisor) fail(err error) { s.mu.Lock(); s.err = err; s.mu.Unlock() }

// panicError wraps a recovered panic so restart logic can distinguish
// crashes (recoverable by replay) from deterministic engine errors
// (not).
type panicError struct{ val interface{} }

func (p panicError) Error() string { return fmt.Sprintf("resilience: pipeline panic: %v", p.val) }

// Supervise runs a resilient streaming evaluation of the automaton
// over a channel of shared, immutable event blocks and returns the
// match channel plus a Supervisor handle.
//
// One pass over a block runs the schema, sentinel and lateness checks
// (refusals dead-letter); the block is stepped with Runner.StepBlock,
// narrowed with Idx only where an event was refused, and held by
// reference for replay until the next checkpoint: no event is copied.
// A Reorderer exists only when Slack or DedupWindow is positive; at
// slack 0 an event is late when earlier than the last one stepped.
//
// The runner is checkpointed every CheckpointEvery stepped events, and
// to CheckpointPath, when set, once more at the end of input; a panic
// in the step path is recovered by restoring the last checkpoint,
// deterministically replaying the blocks stepped since — suppressing
// matches already delivered — and retrying, with capped exponential
// backoff between consecutive recoveries. A run with recovery off
// (MaxRestarts < 0) and no CheckpointPath cuts no checkpoint and keeps
// no block for replay. Deterministic engine errors (e.g. the Fail
// overload policy tripping) terminate the stream after the matches of
// the events before the failing one. The match channel closes on end
// of input (after a final flush), on ctx cancellation, or on a
// terminal error; consult Supervisor.Err afterwards.
//
// Matches leave a block at a time: each stepped sub-block (a block is
// split only where a checkpoint falls inside it) that completes any
// match is one send of a non-empty slice the receiver owns, and
// Emitted rises by its length once the receiver has taken it.
//
// Each event keeps the Seq its feeder stamped, its stream position, so
// matches are the same whether the query received the full stream or a
// routed sub-stream of it. Seq must increase strictly across delivered
// events (stream positions and WAL offsets do); a checkpoint cut inside
// a block records the Seq of the last event it covers as its watermark.
func Supervise(ctx context.Context, a *automaton.Automaton, opts []engine.Option,
	in <-chan event.Block, cfg Config) (<-chan []engine.Match, *Supervisor) {
	s := newSupervisor(cfg)
	out := make(chan []engine.Match)
	go func() {
		defer close(out)
		run(s, ctx, a, opts, in, func(b event.Block) event.Block { return b }, cfg, func(ms []engine.Match) bool {
			// The runner reuses ms at its next step: the receiver gets a copy.
			return deliver(ctx, s, out, slices.Clone(ms), len(ms))
		})
	}()
	return out, s
}

// SuperviseEvents is Supervise for a caller that sends single events
// and takes single matches, ses.Query.Supervise's. It numbers the
// events by arrival from ResumeSeq(cfg), refused ones included, the way
// the serving layer numbers its stream, and steps each as a one-event
// block. Matches are handed over one at a time, and a block counts as
// delivered — in Emitted, and so in any checkpoint cut after it — only
// once the receiver has taken each of them. The error is ResumeSeq's.
func SuperviseEvents(ctx context.Context, a *automaton.Automaton, opts []engine.Option,
	in <-chan event.Event, cfg Config) (<-chan engine.Match, *Supervisor, error) {
	seq, err := ResumeSeq(cfg)
	if err != nil {
		return nil, nil, err
	}
	s := newSupervisor(cfg)
	out := make(chan engine.Match)
	go func() {
		defer close(out)
		number := func(e event.Event) event.Block {
			e.Seq = seq
			seq++
			return event.Block{Events: []event.Event{e}}
		}
		run(s, ctx, a, opts, in, number, cfg, func(ms []engine.Match) bool {
			for _, m := range ms {
				if !deliver(ctx, s, out, m, 1) {
					return false
				}
			}
			return true
		})
	}()
	return out, s, nil
}

func newSupervisor(cfg Config) *Supervisor {
	s := &Supervisor{}
	s.completed.Store(math.MinInt64)
	if cfg.Registry != nil {
		s.o = newSupObs(cfg.Registry, cfg.MetricLabels)
	}
	return s
}

// deliver sends v, which carries n matches, on out and counts them as
// emitted; it returns false, having recorded the cause, when ctx is
// done first.
func deliver[T any](ctx context.Context, s *Supervisor, out chan<- T, v T, n int) bool {
	select {
	case out <- v:
		s.emitted.Add(int64(n))
		return true
	case <-ctx.Done():
		s.fail(ctx.Err())
		return false
	}
}

// subBlock returns the selected events [lo, hi) of b.
func subBlock(b event.Block, lo, hi int) event.Block {
	if b.Idx != nil {
		return event.Block{Events: b.Events, Idx: b.Idx[lo:hi]}
	}
	return event.Block{Events: b.Events[lo:hi]}
}

// run drives s's pipeline over the blocks block makes of what in
// delivers until the input ends, ctx is done or the stream fails,
// handing each stepped block's new matches to send; send returns false,
// having recorded the cause, when ctx is done first.
func run[T any](s *Supervisor, ctx context.Context, a *automaton.Automaton, opts []engine.Option,
	in <-chan T, block func(T) event.Block, cfg Config, send func([]engine.Match) bool) {
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
	// A run that can neither restart nor persist a checkpoint has no use
	// for one: it cuts none and keeps no block for replay.
	checkpointing := cfg.MaxRestarts >= 0 || cfg.CheckpointPath != ""

	// ckpt is the restart baseline. Recovery is possible from the very
	// first event without an eager initial snapshot: nil means "the
	// runner's initial state", which a restart rebuilds with engine.New —
	// identical to restoring a snapshot taken before any event. A resumed
	// run's baseline is the snapshot already read from disk, and resumed
	// holds the rest of its envelope.
	runner := engine.New(a, opts...)
	var ckpt []byte
	resumed := ckptState{srcLast: -1}
	if cfg.Resume && cfg.CheckpointPath != "" {
		if data, err := os.ReadFile(cfg.CheckpointPath); err == nil {
			st, v2, err := decodeCheckpoint(a.Schema, data)
			// Legacy checkpoints are bare runner snapshots; v2 wraps the
			// snapshot with the source watermark and reorderer state.
			ckpt = data
			if v2 {
				ckpt, resumed = st.runner, st
			}
			if err == nil {
				runner, err = engine.RestoreRunnerBytes(a, ckpt, opts...)
			}
			if err != nil {
				s.fail(fmt.Errorf("resilience: resuming from %s: %w", cfg.CheckpointPath, err))
				return
			}
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
		s.deadLetters.Add(1)
		if s.o != nil {
			s.o.deadLetters.Inc()
		}
		if cfg.DeadLetter != nil {
			cfg.DeadLetter(e, reason)
		}
	}

	// A reorderer exists only for a slack or a dedup window. Without one
	// an event is late when it is earlier than hw, the time of the last
	// event stepped (or the watermark time of the resumed checkpoint).
	var ro *engine.Reorderer
	if cfg.Slack > 0 || cfg.DedupWindow > 0 {
		ro = engine.NewReorderer(cfg.Slack)
		ro.DedupWindow = cfg.DedupWindow
		ro.Late = func(e event.Event) { deadLetter(e, ErrLate) }
	}
	hw := event.MinTime

	// srcLast is the source offset (event.Seq as stamped by the feeder,
	// e.g. a WAL offset) of the last event received. pending is what a
	// resumed reorderer state buffers when this run has no reorderer.
	srcLast := resumed.srcLast
	var pending []event.Event
	if ro != nil {
		ro.RestoreState(resumed.reorder)
	} else {
		if resumed.reorder.Seen {
			hw = resumed.reorder.MaxSeen
		}
		pending = resumed.reorder.Buffered
	}

	if s.o != nil {
		// The initial snapshot starts the checkpoint-age clock without
		// counting toward Checkpoints(), which reports the ones cut.
		s.o.lastCkpt.Store(time.Now().UnixNano())
	}
	// replay holds the blocks stepped since the last checkpoint (stepped
	// events); emittedSince of their matches are delivered.
	var replay []event.Block
	stepped, emittedSince := 0, 0

	// stepBlock runs faultHook over blk's events and steps blk, turning
	// a panic into a panicError. An empty block, the end of input,
	// flushes the runner.
	stepBlock := func(blk event.Block) (ms []engine.Match, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = panicError{val: p}
			}
		}()
		if blk.Len() == 0 {
			return runner.Flush(), nil
		}
		if cfg.faultHook != nil {
			for i := 0; i < blk.Len(); i++ {
				cfg.faultHook(blk.At(i))
			}
		}
		return runner.StepBlock(blk)
	}

	// forget drops the blocks stepped since the last checkpoint, which no
	// restart replays anymore.
	forget := func() {
		clear(replay) // releases the blocks
		replay = replay[:0]
		stepped, emittedSince = 0, 0
	}

	// ckptBuf backs ckpt from one periodic checkpoint to the next: the
	// previous snapshot is dead the moment a new one is cut, so it is
	// overwritten in place instead of regrown per checkpoint.
	var ckptBuf bytes.Buffer
	saveCheckpoint := func(watermark int64) bool {
		ckptBuf.Reset()
		if err := runner.WriteSnapshot(&ckptBuf); err != nil {
			s.fail(err)
			return false
		}
		data := ckptBuf.Bytes()
		if cfg.CheckpointPath != "" {
			st := ckptState{
				srcLast: watermark,
				reorder: engine.ReordererState{MaxSeen: hw, Seen: hw != event.MinTime},
				runner:  data,
			}
			if ro != nil {
				st.reorder = ro.Snapshot()
			}
			if err := writeFileAtomic(cfg.CheckpointPath, encodeCheckpoint(a.Schema, st)); err != nil {
				s.fail(err)
				return false
			}
		}
		ckpt = data
		forget()
		s.checkpoints.Add(1)
		if s.o != nil {
			s.o.checkpoints.Inc()
			s.o.lastCkpt.Store(time.Now().UnixNano())
		}
		return true
	}

	// advance steps replay[from:] and delivers the matches. After a crash
	// it waits out the backoff, restores the last checkpoint and replays
	// from the first block, which reproduces the emittedSince matches
	// already delivered and suppresses them; a crash during replay takes
	// another restart, with the delay doubling. It returns false when the
	// stream must terminate (the cause has been recorded). On a
	// deterministic error the matches of the events before the failing
	// one are delivered first.
	advance := func(from int) bool {
		// Deterministic (jitter-free) backoff: a single supervisor retrying
		// its own runner gains nothing from desynchronization.
		var bo *Backoff
		seen := emittedSince
		for i := from; i < len(replay); i++ {
			ms, err := stepBlock(replay[i])
			if _, crashed := err.(panicError); crashed {
				attempt := int(s.restarts.Add(1))
				if s.o != nil {
					s.o.restarts.Inc()
				}
				if attempt > maxRestarts {
					s.fail(fmt.Errorf("resilience: giving up after %d restarts: %w", attempt-1, err))
					return false
				}
				if cfg.OnRestart != nil {
					cfg.OnRestart(attempt, err)
				}
				if bo == nil {
					bo = NewBackoff(RetryPolicy{Initial: backoff0, Max: maxBackoff})
				}
				select {
				case <-time.After(bo.Next()):
				case <-ctx.Done():
					s.fail(ctx.Err())
					return false
				}
				next := engine.New(a, opts...)
				if ckpt != nil {
					if next, err = engine.RestoreRunnerBytes(a, ckpt, opts...); err != nil {
						s.fail(err)
						return false
					}
				}
				runner, i, seen = next, -1, 0
				continue
			}
			// A replayed block's first matches may have been delivered
			// before the crash: only what follows them is sent.
			if fresh := ms[min(len(ms), max(0, emittedSince-seen)):]; len(fresh) > 0 {
				if !send(fresh) {
					return false
				}
				emittedSince = seen + len(ms)
			}
			seen += len(ms)
			if err != nil {
				s.fail(err)
				return false
			}
		}
		return true
	}

	// feed steps an admitted block and, when checkpointing, cuts the
	// periodic checkpoints: exactly every ckptEvery stepped events,
	// splitting the block, with the Seq of the last one as the
	// watermark, without a reorderer; with one, at the end of the
	// release batch that reaches the count, with the last event received
	// as the watermark (the reorderer's checkpointed buffer holds the
	// rest).
	exact := ro == nil && checkpointing
	feed := func(blk event.Block) bool {
		for lo, n := 0, blk.Len(); lo < n; {
			hi := n
			if exact {
				hi = min(n, lo+ckptEvery-stepped)
			}
			sub := subBlock(blk, lo, hi)
			replay = append(replay, sub)
			if !advance(len(replay) - 1) {
				return false
			}
			lo = hi
			stepped += sub.Len()
			if s.o != nil {
				s.o.events.Add(int64(sub.Len()))
			}
			// The block's matches are out: publish the stream clock (see
			// CompletedThrough), which a resumed run climbs again from here.
			last := sub.At(sub.Len() - 1)
			hw = last.Time
			s.setCompleted(int64(hw))
			if !checkpointing {
				forget()
				continue
			}
			if stepped < ckptEvery {
				continue
			}
			watermark := srcLast
			if exact {
				watermark = int64(last.Seq)
			}
			if !saveCheckpoint(watermark) {
				return false
			}
		}
		return true
	}

	// admit runs the schema and sentinel checks on a received event, and
	// the lateness check against bound, dead-lettering a refused one.
	admit := func(e *event.Event, bound event.Time) bool {
		reason := ErrLate
		if err := a.Schema.Check(e.Attrs); err != nil {
			reason = fmt.Errorf("%w: %v", ErrSchema, err)
		} else if event.SentinelTime(e.Time) {
			reason = ErrSentinelTime
		} else if e.Time >= bound {
			return true
		}
		deadLetter(*e, reason)
		return false
	}

	// receive admits a received block in one pass and feeds what it
	// admits to the runner, through the reorderer if there is one. The
	// source watermark advances on every received event, dead-lettered
	// ones included: they are deterministically refused again if
	// replayed, so a resuming feeder need not re-send them.
	receive := func(blk event.Block) bool {
		n := blk.Len()
		if ro != nil {
			for i := 0; i < n; i++ {
				e := *blk.At(i)
				srcLast = int64(e.Seq)
				if !admit(&e, event.MinTime) {
					continue
				}
				if !feed(event.Block{Events: slices.Clone(ro.Push(e))}) {
					return false
				}
			}
			if d := ro.DuplicatesDropped - s.duplicates.Swap(ro.DuplicatesDropped); d > 0 && s.o != nil {
				s.o.duplicates.Add(d)
			}
			return true
		}
		var kept []int32 // positions in blk.Events, once an event is refused
		bound := hw
		for i := 0; i < n; i++ {
			e := blk.At(i)
			srcLast = int64(e.Seq)
			if admit(e, bound) {
				bound = e.Time
				if kept != nil {
					kept = append(kept, position(blk, i))
				}
			} else if kept == nil {
				kept = make([]int32, 0, n)
				for j := 0; j < i; j++ {
					kept = append(kept, position(blk, j))
				}
			}
		}
		if kept != nil {
			blk = event.Block{Events: blk.Events, Idx: kept}
		}
		return feed(blk)
	}

	// A checkpoint written with a reorderer may still buffer events; a
	// run without one steps them first, in the order of their release.
	slices.SortFunc(pending, func(x, y event.Event) int {
		return cmp.Or(cmp.Compare(x.Time, y.Time), cmp.Compare(x.Seq, y.Seq))
	})
	if !feed(event.Block{Events: pending}) {
		return
	}
	for {
		var v T
		var ok bool
		select {
		case <-ctx.Done():
			s.fail(ctx.Err())
			return
		case v, ok = <-in:
		}
		if !ok {
			break
		}
		if !receive(block(v)) {
			return
		}
	}

	// End of input: release what the reorderer holds, take the drain
	// checkpoint and flush.
	if ro != nil && !feed(event.Block{Events: slices.Clone(ro.Drain())}) {
		return
	}
	if cfg.CheckpointPath != "" && !saveCheckpoint(srcLast) {
		return
	}
	replay = append(replay, event.Block{})
	if advance(len(replay) - 1) {
		// Nothing below any horizon can arrive anymore.
		s.setCompleted(math.MaxInt64)
	}
}

// position returns where the i-th selected event of b sits in b.Events.
func position(b event.Block, i int) int32 {
	if b.Idx != nil {
		return b.Idx[i]
	}
	return int32(i)
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
