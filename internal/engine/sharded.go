package engine

import (
	"context"
	"fmt"
	"hash/maphash"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/automaton"
	"repro/internal/event"
	"repro/internal/obs"
)

// ShardedRunner evaluates a SES automaton over a keyed event stream in
// parallel: incoming events are hash-partitioned by a key attribute
// onto shard workers, each worker owns one single-goroutine Runner per
// key it serves, and the emitted matches of all shards are merged back
// into one deterministic output order. A WithTrace hook, if any, is
// invoked from all shard goroutines and must be safe for concurrent
// use.
//
// The semantics are exactly those of partitioned evaluation
// (Query.MatchPartitioned): every automaton instance is confined to the
// events of one key, implementing the paper's "for each patient"
// reading on a live stream. Because every per-key evaluator is a plain
// Runner on its own goroutine-confined timeline, all single-runner
// machinery (overload policies, emit-on-accept, tracing) composes
// unchanged; checkpointing of a sharded stream is not supported — the
// shards' positions would need a consistent cut across workers.
//
// # Ordering
//
// Matches are released in ascending order of their emission time (the
// timestamp of the input event that completed them, or end-of-stream
// for flush matches), with deterministic tie-breaking by the key's
// first-occurrence index and the per-key emission sequence. This order
// is independent of the shard count and of goroutine scheduling: the
// same input yields the byte-identical output stream for 1, 2 or 16
// shards. A watermark protocol makes the merge safe: a match is
// released only once every shard has processed all events up to the
// match's emission time.
//
// # Backpressure
//
// All channels involved are bounded. A slow consumer of the output
// channel backs up the merge, the merge backs up the shard workers,
// and full shard input channels block the dispatcher, which stops
// reading the input stream — memory stays proportional to the
// configured buffers, never to the input.
type ShardedRunner struct {
	a      *automaton.Automaton
	cfg    config
	keyIdx int
	shards int

	errMu sync.Mutex
	err   error

	metricsMu sync.Mutex
	metrics   Metrics

	started bool

	// o holds the live observability instruments; nil without
	// WithMetricsRegistry, in which case no instrumentation runs.
	o *shardedObs
}

// shardedObs bundles the live gauges a running sharded executor
// exports into an obs.Registry: per-shard queue depth and instance
// counts, dispatch/merge watermarks and their lag, merge-buffer
// occupancy, and throughput counters. Hot-path updates are single
// atomic operations; channel occupancy and watermark lag are sampled
// at scrape time via gauge funcs and cost nothing between scrapes.
type shardedObs struct {
	dispatched     *obs.Counter
	matchesOut     *obs.Counter
	mergePending   *obs.Gauge
	maxInstances   *obs.Gauge
	releaseBatch   *obs.Histogram
	shardInstances []*obs.Gauge
	inputWM        atomic.Int64
	outputWM       atomic.Int64
}

// instrument registers the executor's metrics and binds the sampling
// funcs to this run's channels. Re-running against the same registry
// rebinds the samplers to the newest executor.
func (s *ShardedRunner) instrument(reg *obs.Registry, inputs []chan shardInput) {
	// name composes a series name with the executor's WithMetricLabels
	// labels (plus any extra per-series labels); with no labels it is
	// the base name unchanged, preserving the single-executor layout.
	name := func(base string, extra ...string) string {
		return obs.SeriesName(base, append(append([]string(nil), s.cfg.metricLabels...), extra...)...)
	}
	o := &shardedObs{
		dispatched:   reg.Counter(name("ses_sharded_events_dispatched_total"), "Events routed to shard workers."),
		matchesOut:   reg.Counter(name("ses_sharded_matches_total"), "Matches released by the deterministic merge."),
		mergePending: reg.Gauge(name("ses_sharded_merge_pending"), "Matches buffered in the merge awaiting their watermark."),
		maxInstances: reg.Gauge(name("ses_max_simultaneous_instances"), "Peak simultaneous automaton instances (|Omega|) over all per-key runners."),
		releaseBatch: reg.Histogram(name("ses_sharded_release_batch_size"), "Matches released per merge batch.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
	}
	o.inputWM.Store(int64(noTime))
	o.outputWM.Store(int64(noTime))
	reg.GaugeFunc(name("ses_sharded_shards"), "Number of shard workers.",
		func() int64 { return int64(s.shards) })
	reg.GaugeFunc(name("ses_sharded_input_watermark"), "Timestamp of the newest dispatched event.",
		func() int64 { return sampleWM(&o.inputWM) })
	reg.GaugeFunc(name("ses_sharded_output_watermark"), "Timestamp up to which the merge has released matches.",
		func() int64 { return sampleWM(&o.outputWM) })
	reg.GaugeFunc(name("ses_sharded_watermark_lag"), "Input minus output watermark: the time span the merge is holding back.",
		func() int64 {
			in, out := o.inputWM.Load(), o.outputWM.Load()
			if in == int64(noTime) || out == int64(noTime) || out == int64(flushTime) {
				return 0
			}
			return in - out
		})
	o.shardInstances = make([]*obs.Gauge, s.shards)
	for i := range inputs {
		i := i
		reg.GaugeFunc(name("ses_shard_queue_depth", "shard", fmt.Sprint(i)),
			"Events queued on the shard's input channel.",
			func() int64 { return int64(len(inputs[i])) })
		o.shardInstances[i] = reg.Gauge(name("ses_shard_active_instances", "shard", fmt.Sprint(i)),
			"Live automaton instances on the shard, summed over its keys (updated per watermark).")
	}
	s.o = o
}

// sampleWM renders a watermark atomic for a gauge: 0 until a real
// value is seen (noTime and flushTime are internal sentinels).
func sampleWM(a *atomic.Int64) int64 {
	v := a.Load()
	if v == int64(noTime) || v == int64(flushTime) {
		return 0
	}
	return v
}

// shardInput is one element of a shard worker's input channel: either
// an event routed to this shard or a watermark broadcast to all
// shards.
type shardInput struct {
	ev        *event.Event // nil for watermarks
	keyIdx    int32
	watermark event.Time
}

// taggedMatch carries a match with its deterministic merge key.
type taggedMatch struct {
	m      Match
	emitAt event.Time // time of the event that completed the match
	keyIdx int32      // key order of first occurrence in the stream
	seq    int64      // per-key emission sequence
}

// flushTime tags matches emitted by the end-of-input flush: they order
// after every event-time emission. It equals event.MaxTime, which is
// why that timestamp is reserved — an input event carrying it would
// alias the flush sentinel and corrupt the watermark merge; dispatch
// rejects such events (and the MinTime = noTime sentinel) up front.
const flushTime = event.MaxTime

// shardMsg is what a shard worker reports to the merger: the matches
// emitted since the previous message and the watermark up to which
// this shard has processed its input.
type shardMsg struct {
	shard     int
	matches   []taggedMatch
	watermark event.Time
	done      bool
	metrics   Metrics // valid when done
	err       error
}

// NewSharded creates a sharded streaming evaluator for the automaton,
// keyed by the named attribute. shards is the number of worker
// goroutines; 0 means runtime.GOMAXPROCS(0). Options are applied to
// every per-key runner; WithShardBuffer and WithWatermarkEvery tune
// the executor itself.
func NewSharded(a *automaton.Automaton, keyAttr string, shards int, opts ...Option) (*ShardedRunner, error) {
	idx, ok := a.Schema.Index(keyAttr)
	if !ok {
		return nil, fmt.Errorf("engine: no attribute %q in schema (%s)", keyAttr, a.Schema)
	}
	s := &ShardedRunner{a: a, keyIdx: idx, shards: shards}
	for _, o := range opts {
		o(&s.cfg)
	}
	if s.cfg.agg != nil {
		return nil, fmt.Errorf("engine: aggregation is not supported on a sharded stream (per-key runners would race on one aggregator)")
	}
	if s.shards <= 0 {
		s.shards = runtime.GOMAXPROCS(0)
	}
	if s.cfg.shardBuffer <= 0 {
		s.cfg.shardBuffer = 128
	}
	if s.cfg.watermarkEvery <= 0 {
		s.cfg.watermarkEvery = 64
	}
	return s, nil
}

// Shards returns the number of shard workers the executor runs.
func (s *ShardedRunner) Shards() int { return s.shards }

// Err reports the error that terminated a Run, if any. It is safe to
// call at any time; the definitive outcome is available once the
// output channel has closed.
func (s *ShardedRunner) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// setErr records the first abnormal termination cause.
func (s *ShardedRunner) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// Metrics returns the merged execution counters of all per-key
// runners (Metrics.Merge semantics: peak counters are maxima over the
// independent keys, throughput counters are sums). Complete once the
// output channel has closed.
func (s *ShardedRunner) Metrics() Metrics {
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	return s.metrics
}

// Run starts the sharded evaluation over the input channel and returns
// the merged match channel. Events must arrive in non-decreasing time
// order; the executor owns a copy of each event and assigns sequence
// numbers like Runner.Stream. The output channel closes after the
// input closes and all shards flushed, or when ctx is cancelled or an
// error occurs (reported via Err). Run may be called once per
// ShardedRunner.
func (s *ShardedRunner) Run(ctx context.Context, in <-chan event.Event) (<-chan Match, error) {
	return s.start(ctx, in, nil)
}

// RunBlocks is Run over a channel of shared event blocks: each block's
// selected events are dispatched in order, without copying the block's
// backing slice. The blocks are treated as immutable — the dispatcher
// copies each event before use. Unlike Run, block mode preserves each
// event's Seq as stamped by the feeder instead of renumbering locally:
// feeders number events by global stream position, so matches carry
// the same sequence numbers whether this runner received the full
// stream or a routed sub-stream of it. Seq must be strictly increasing
// across delivered events. All other semantics and ordering guarantees
// are identical to Run.
func (s *ShardedRunner) RunBlocks(ctx context.Context, in <-chan event.Block) (<-chan Match, error) {
	return s.start(ctx, nil, in)
}

// start launches the dispatcher, shard workers and merge over whichever
// of the two input channels is non-nil.
func (s *ShardedRunner) start(ctx context.Context, inEv <-chan event.Event, inBlk <-chan event.Block) (<-chan Match, error) {
	if s.started {
		return nil, fmt.Errorf("engine: ShardedRunner.Run called twice")
	}
	s.started = true

	ctx, cancel := context.WithCancel(ctx)
	inputs := make([]chan shardInput, s.shards)
	for i := range inputs {
		inputs[i] = make(chan shardInput, s.cfg.shardBuffer)
	}
	if s.cfg.registry != nil {
		s.instrument(s.cfg.registry, inputs)
	}
	merged := make(chan shardMsg, s.shards)
	out := make(chan Match)

	go s.dispatch(ctx, inEv, inBlk, inputs)
	for i := 0; i < s.shards; i++ {
		go s.shardWorker(ctx, i, inputs[i], merged)
	}
	go s.merge(ctx, cancel, merged, out)
	return out, nil
}

// dispatch reads the input stream, routes each event to its key's
// shard and broadcasts watermarks so that lightly loaded shards keep
// the merge moving.
func (s *ShardedRunner) dispatch(ctx context.Context, inEv <-chan event.Event, inBlk <-chan event.Block, inputs []chan shardInput) {
	defer func() {
		for _, ch := range inputs {
			close(ch)
		}
	}()
	var hashSeed = maphash.MakeSeed()
	type keyInfo struct {
		idx   int32
		shard int
	}
	keys := make(map[event.Value]keyInfo)
	var (
		seq     int
		last    event.Time
		first   = true
		sinceWM int64
		// Block-mode inputs arrive pre-numbered by global stream
		// position; keep those numbers (see RunBlocks).
		preserveSeq = inBlk != nil
	)
	send := func(shard int, item shardInput) bool {
		select {
		case inputs[shard] <- item:
			return true
		case <-ctx.Done():
			s.setErr(ctx.Err())
			return false
		}
	}
	broadcast := func(wm event.Time) bool {
		for i := range inputs {
			if !send(i, shardInput{watermark: wm}) {
				return false
			}
		}
		return true
	}
	// handle routes one event; it returns false when dispatch must stop
	// (error recorded via setErr).
	handle := func(e event.Event) bool {
		if event.SentinelTime(e.Time) {
			s.setErr(fmt.Errorf("engine: event timestamp %d is reserved as an internal watermark sentinel and cannot appear on a stream", e.Time))
			return false
		}
		if !first && e.Time < last {
			s.setErr(fmt.Errorf("engine: out-of-order event at time %d after %d", e.Time, last))
			return false
		}
		// Once time advances past `last`, every event with time <=
		// last has been dispatched; shards reading the watermark
		// after their queued events have then fully processed them.
		if !first && e.Time > last && sinceWM >= s.cfg.watermarkEvery {
			if !broadcast(last) {
				return false
			}
			sinceWM = 0
		}
		first, last = false, e.Time
		sinceWM++
		ki, ok := keys[e.Attrs[s.keyIdx]]
		if !ok {
			var h maphash.Hash
			h.SetSeed(hashSeed)
			h.WriteString(e.Attrs[s.keyIdx].Encode())
			ki = keyInfo{idx: int32(len(keys)), shard: int(h.Sum64() % uint64(s.shards))}
			keys[e.Attrs[s.keyIdx]] = ki
		}
		ev := new(event.Event)
		*ev = e
		if !preserveSeq {
			ev.Seq = seq
		}
		seq++
		if !send(ki.shard, shardInput{ev: ev, keyIdx: ki.idx}) {
			return false
		}
		if s.o != nil {
			s.o.dispatched.Inc()
			s.o.inputWM.Store(int64(e.Time))
		}
		return true
	}
	for {
		select {
		case <-ctx.Done():
			s.setErr(ctx.Err())
			return
		case e, ok := <-inEv:
			if !ok {
				return
			}
			if !handle(e) {
				return
			}
		case blk, ok := <-inBlk:
			if !ok {
				return
			}
			for i := 0; i < blk.Len(); i++ {
				if !handle(*blk.At(i)) {
					return
				}
			}
		}
	}
}

// shardWorker drains one shard's input, stepping the per-key runners
// and reporting emitted matches batched per watermark.
func (s *ShardedRunner) shardWorker(ctx context.Context, shard int, in <-chan shardInput, merged chan<- shardMsg) {
	runners := make(map[int32]*Runner)
	emitSeq := make(map[int32]int64)
	var pending []taggedMatch
	report := func(msg shardMsg) bool {
		msg.shard = shard
		select {
		case merged <- msg:
			return true
		case <-ctx.Done():
			s.setErr(ctx.Err())
			return false
		}
	}
	fail := func(err error) {
		s.setErr(err)
		report(shardMsg{err: err})
	}
	// observe refreshes the shard's live instance gauges; called per
	// watermark (not per event), so its O(keys) sweep stays off the
	// per-event path.
	observe := func() {
		if s.o == nil {
			return
		}
		var active, peak int64
		for _, r := range runners {
			active += int64(r.ActiveInstances())
			if m := r.Metrics().MaxSimultaneousInstances; m > peak {
				peak = m
			}
		}
		s.o.shardInstances[shard].Set(active)
		s.o.maxInstances.SetMax(peak)
	}
	var processed event.Time = noTime
	for item := range in {
		if item.ev == nil {
			// Watermark: all of this shard's events <= item.watermark
			// are processed; hand the batch to the merger.
			if item.watermark > processed {
				processed = item.watermark
			}
			observe()
			if !report(shardMsg{matches: pending, watermark: processed}) {
				return
			}
			pending = nil
			continue
		}
		r := runners[item.keyIdx]
		if r == nil {
			r = New(s.a, optionsOf(s.cfg)...)
			runners[item.keyIdx] = r
		}
		ms, err := r.Step(item.ev)
		if err != nil {
			fail(fmt.Errorf("engine: shard %d key %d: %w", shard, item.keyIdx, err))
			return
		}
		for _, m := range ms {
			pending = append(pending, taggedMatch{
				m: m, emitAt: item.ev.Time, keyIdx: item.keyIdx, seq: emitSeq[item.keyIdx],
			})
			emitSeq[item.keyIdx]++
		}
		// The shard's own progress only certifies times strictly below
		// the current event: more events with the same timestamp may
		// still be queued (dispatcher watermarks certify full times).
		if item.ev.Time-1 > processed {
			processed = item.ev.Time - 1
		}
	}
	// Input closed: flush every per-key runner and report completion.
	var agg Metrics
	for keyIdx, r := range runners {
		for _, m := range r.Flush() {
			pending = append(pending, taggedMatch{
				m: m, emitAt: flushTime, keyIdx: keyIdx, seq: emitSeq[keyIdx],
			})
			emitSeq[keyIdx]++
		}
	}
	for _, r := range runners {
		agg.Merge(r.Metrics())
	}
	observe()
	report(shardMsg{matches: pending, watermark: flushTime, done: true, metrics: agg})
}

// merge receives shard reports, holds back matches until every shard's
// watermark has passed their emission time, and releases them in the
// deterministic (emission time, key index, per-key sequence) order.
func (s *ShardedRunner) merge(ctx context.Context, cancel context.CancelFunc, merged <-chan shardMsg, out chan<- Match) {
	defer cancel()
	defer close(out)
	watermarks := make([]event.Time, s.shards)
	for i := range watermarks {
		watermarks[i] = noTime
	}
	var pending []taggedMatch
	var agg Metrics
	doneShards := 0
	release := func() bool {
		minWM := flushTime
		for _, wm := range watermarks {
			if wm < minWM {
				minWM = wm
			}
		}
		if s.o != nil {
			s.o.outputWM.Store(int64(minWM))
			s.o.mergePending.Set(int64(len(pending)))
		}
		// Partition pending into releasable (emitAt <= minWM) and the
		// rest, then emit the releasable ones in merge order. Flush
		// matches (emitAt == flushTime) release only when minWM has
		// itself reached flushTime, i.e. all shards are done.
		var ready, rest []taggedMatch
		for _, tm := range pending {
			if tm.emitAt <= minWM {
				ready = append(ready, tm)
			} else {
				rest = append(rest, tm)
			}
		}
		if len(ready) == 0 {
			return true
		}
		pending = rest
		if s.o != nil {
			s.o.mergePending.Set(int64(len(pending)))
			s.o.matchesOut.Add(int64(len(ready)))
			s.o.releaseBatch.Observe(float64(len(ready)))
		}
		sort.Slice(ready, func(i, j int) bool {
			a, b := ready[i], ready[j]
			if a.emitAt != b.emitAt {
				return a.emitAt < b.emitAt
			}
			if a.keyIdx != b.keyIdx {
				return a.keyIdx < b.keyIdx
			}
			return a.seq < b.seq
		})
		for _, tm := range ready {
			select {
			case out <- tm.m:
			case <-ctx.Done():
				s.setErr(ctx.Err())
				return false
			}
		}
		return true
	}
	for doneShards < s.shards {
		select {
		case <-ctx.Done():
			s.setErr(ctx.Err())
			return
		case msg := <-merged:
			if msg.err != nil {
				return // setErr already done by the shard
			}
			pending = append(pending, msg.matches...)
			if msg.watermark > watermarks[msg.shard] {
				watermarks[msg.shard] = msg.watermark
			}
			if msg.done {
				doneShards++
				agg.Merge(msg.metrics)
			}
			if !release() {
				return
			}
		}
	}
	s.metricsMu.Lock()
	s.metrics = agg
	s.metricsMu.Unlock()
}

// optionsOf reconstructs the option slice equivalent to a resolved
// config, for handing a parent evaluator's configuration down to the
// per-key runners it creates.
func optionsOf(c config) []Option {
	return []Option{func(dst *config) { *dst = c }}
}

// RunSharded evaluates the automaton over a complete relation with the
// sharded executor, returning the matches in the executor's
// deterministic merge order plus the merged metrics. It is the batch
// convenience over ShardedRunner.Run, mainly for tests and benchmarks;
// batch callers wanting start-time ordering use partitioned matching
// instead.
func RunSharded(a *automaton.Automaton, rel *event.Relation, keyAttr string, shards int, opts ...Option) ([]Match, Metrics, error) {
	if !rel.Sorted() {
		return nil, Metrics{}, fmt.Errorf("engine: relation is not sorted by time")
	}
	if !rel.Schema().Equal(a.Schema) {
		return nil, Metrics{}, fmt.Errorf("engine: relation schema (%s) differs from automaton schema (%s)",
			rel.Schema(), a.Schema)
	}
	s, err := NewSharded(a, keyAttr, shards, opts...)
	if err != nil {
		return nil, Metrics{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan event.Event)
	go func() {
		defer close(in)
		for i := 0; i < rel.Len(); i++ {
			select {
			case in <- *rel.Event(i):
			case <-ctx.Done():
				return
			}
		}
	}()
	out, err := s.Run(ctx, in)
	if err != nil {
		return nil, Metrics{}, err
	}
	var matches []Match
	for m := range out {
		matches = append(matches, m)
	}
	if err := s.Err(); err != nil {
		return nil, s.Metrics(), err
	}
	return matches, s.Metrics(), nil
}
