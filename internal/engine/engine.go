// Package engine executes SES automata over event relations and
// streams, implementing Algorithms 1 (SESExec) and 2 (ConsumeEvent) of
// Cadonna, Gamper, Böhlen: "Sequenced Event Set Pattern Matching"
// (EDBT 2011), the automaton-instance model of Definition 4, the
// skip-till-next-match / MAXIMAL semantics of Definition 2, and the
// event filtering optimisation of Section 4.5.
package engine

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/automaton"
	"repro/internal/event"
	"repro/internal/obs"
)

// Strategy selects the event selection strategy.
type Strategy uint8

const (
	// SkipTillNext is the paper's strategy (Definition 2, condition 4):
	// when at least one transition fires for an instance, the instance
	// moves (branching on non-determinism) and never also stays behind;
	// events firing no transition are skipped.
	SkipTillNext Strategy = iota
	// SkipTillAny is the NFA^b-style extension in which an instance may
	// also ignore an event that fires transitions: the original
	// instance is retained alongside its children. It explores all
	// combinations and can explode combinatorially; it exists for the
	// ablation study and is not part of the paper's semantics.
	SkipTillAny
)

// String names the strategy.
func (s Strategy) String() string {
	if s == SkipTillAny {
		return "skip-till-any-match"
	}
	return "skip-till-next-match"
}

// TraceKind classifies an instance-lifecycle event reported to the
// WithTrace hook.
type TraceKind uint8

const (
	// TraceTransition is a fired transition: an instance consumed the
	// event and moved (cf. the paper's Figure 6).
	TraceTransition TraceKind = iota
	// TraceSpawn is the fresh start instance joining Ω for an input
	// event (Algorithm 1, line 4).
	TraceSpawn
	// TraceExpire is an instance aged out by the τ window check.
	TraceExpire
	// TraceShed is an instance sacrificed by an overload policy: a
	// suppressed start instance (ShedStartStates) or an evicted
	// instance (DropOldest).
	TraceShed
	// TraceMatch is a completed matching substitution being emitted.
	TraceMatch
	// TraceCondMismatch is a transition condition evaluated over
	// operands of incomparable kinds — schema drift surfaced instead of
	// silently treated as a failed predicate. Buffer carries the
	// condition's source text.
	TraceCondMismatch
)

// String names the trace kind.
func (k TraceKind) String() string {
	switch k {
	case TraceSpawn:
		return "spawn"
	case TraceExpire:
		return "expire"
	case TraceShed:
		return "shed"
	case TraceMatch:
		return "match"
	case TraceCondMismatch:
		return "cond-mismatch"
	default:
		return "transition"
	}
}

// TraceStep describes one instance-lifecycle event, for execution
// tracing (cf. the paper's Figure 6). Kind selects which fields are
// meaningful: transitions carry the full transition data; spawns carry
// the event; expiries and sheds carry the instance's state and buffer
// (Event is nil for DropOldest evictions, which happen after the
// event was consumed); matches carry Matched.
type TraceStep struct {
	Kind      TraceKind
	Event     *event.Event
	FromState int
	ToState   int
	Var       int
	Loop      bool
	// Buffer is the instance's match buffer rendered as
	// "{v1/e0, v2/e3, ...}" in binding order.
	Buffer string
	// Matched is the emitted substitution for TraceMatch steps.
	Matched *Match
}

// OverloadPolicy selects what happens when the number of simultaneous
// automaton instances would exceed the WithMaxInstances cap. The
// paper's evaluation deliberately provokes this blow-up (Experiments
// 1-2); a production runtime must degrade gracefully instead of
// falling over. All policies except Fail record their interventions in
// the Metrics counters InstancesShed, EventsRejected and DegradedSteps
// so that degradation is observable, never silent.
type OverloadPolicy uint8

const (
	// Fail is the paper-exact behavior: Step returns an error when the
	// instance cap is exceeded. Default.
	Fail OverloadPolicy = iota
	// RejectNew refuses whole input events while the instance set is at
	// the cap: expired instances are still aged out against the event's
	// timestamp (so the set can shrink), but the event itself is not
	// consumed. Rejected events count in EventsRejected.
	RejectNew
	// DropOldest admits the event and then evicts the instances whose
	// start time (earliest bound event) is oldest until the set fits the
	// cap again. Evictions count in InstancesShed.
	DropOldest
	// ShedStartStates stops opening fresh start instances while the
	// instance set is at or above the cap, and resumes once it drops
	// below the low-water mark (WithShedLowWater, default max(1, cap/2)).
	// Existing instances keep consuming events, so in-flight matches
	// complete; only new match beginnings are shed. Suppressed start
	// instances count in InstancesShed.
	ShedStartStates
)

// String names the policy.
func (p OverloadPolicy) String() string {
	switch p {
	case RejectNew:
		return "reject-new"
	case DropOldest:
		return "drop-oldest"
	case ShedStartStates:
		return "shed-start-states"
	default:
		return "fail"
	}
}

// config holds the runner options.
type config struct {
	filter       bool
	strategy     Strategy
	maxInstances int
	policy       OverloadPolicy
	shedLowWater int
	trace        func(TraceStep)
	emitOnAccept bool
	registry     *obs.Registry
	metricLabels []string
	agg          *Aggregator
	aggOnly      bool
	partitionKey string
}

// Option configures a Runner.
type Option func(*config)

// WithFilter enables the event filtering optimisation of Section 4.5:
// events that cannot satisfy the constant conditions of any variable
// are skipped without iterating over the automaton instances.
func WithFilter(on bool) Option { return func(c *config) { c.filter = on } }

// WithStrategy selects the event selection strategy (default:
// SkipTillNext, the paper's semantics).
func WithStrategy(s Strategy) Option { return func(c *config) { c.strategy = s } }

// WithMaxInstances sets a safety cap on simultaneous automaton
// instances; what happens when the cap is hit is decided by the
// overload policy (default Fail: Step errors out). 0 (default) means
// unlimited.
func WithMaxInstances(n int) Option { return func(c *config) { c.maxInstances = n } }

// WithOverloadPolicy selects the graceful-degradation behavior applied
// when the WithMaxInstances cap is reached (default Fail).
func WithOverloadPolicy(p OverloadPolicy) Option { return func(c *config) { c.policy = p } }

// WithShedLowWater sets the low-water mark at which the
// ShedStartStates policy resumes opening start instances: shedding
// stops once the instance set drops below it (default: half the
// instance cap, at least 1, so a cap-1 runner resumes once it is
// empty).
func WithShedLowWater(n int) Option { return func(c *config) { c.shedLowWater = n } }

// WithTrace installs a hook invoked for every instance-lifecycle
// event: fired transitions, start-instance spawns, window expiries,
// overload sheds and match emissions (see TraceKind). With no hook
// installed the fast path pays a single nil check per site; rendering
// of buffer strings only happens when a hook is present. Steps are per
// instance, one per path of a class's buffer DAG. A Runner calls the
// hook from the goroutine stepping it, keyed runners included.
func WithTrace(f func(TraceStep)) Option { return func(c *config) { c.trace = f } }

// WithMetricsRegistry attaches an obs.Registry into which a Runner
// exports ses_cond_type_mismatch_total and, with an Aggregator, the
// ses_agg_* series (see the README's metrics table). Counting costs one
// increment per occurrence; with a nil registry (the default) no
// instrumentation runs at all.
func WithMetricsRegistry(r *obs.Registry) Option { return func(c *config) { c.registry = r } }

// WithMetricLabels attaches label key/value pairs to every metric
// series a runner registers via WithMetricsRegistry, e.g.
// WithMetricLabels("query", "q1") turns ses_cond_type_mismatch_total
// into ses_cond_type_mismatch_total{query="q1"}. It lets several
// runners — such as the per-query runners of the serving layer — share
// one registry without colliding on series names. kv must alternate
// keys and values; with no labels (the default) series names are
// unchanged.
func WithMetricLabels(kv ...string) Option {
	return func(c *config) { c.metricLabels = append(c.metricLabels, kv...) }
}

// WithEmitOnAccept switches from the paper's MAXIMAL emission (matches
// surface when an accepting instance expires or at end of input, with
// every greedy binding collected) to first-match alerting: a match is
// emitted the moment an instance reaches the accepting state, and the
// instance terminates. Group variables in the last event set pattern
// therefore bind only the events consumed up to acceptance. Useful
// when detection latency matters more than maximality.
func WithEmitOnAccept(on bool) Option { return func(c *config) { c.emitOnAccept = on } }

// node is one binding v/e in the match-buffer DAG: prev is the head of
// the class whose transition made it (nil for a first binding), alt the
// next node of its step that landed on the same class. The instances'
// buffers share their common prefixes, so a fired transition costs one
// node per class, not per instance (see eachPath for the paths).
type node struct {
	varIdx int32
	ev     *event.Event
	prev   *node
	alt    *node
}

// nodeChunk is the number of buffer nodes a nodeArena allocates per
// heap allocation. 128 nodes ≈ 4 KiB per chunk: large enough to cut the
// allocation count on the consume hot path by two orders of magnitude,
// small enough that the τ window is tracked at a useful grain (a chunk
// is retired as a whole, see nodeArena.retire).
const nodeChunk = 128

// nodeArena bump-allocates buffer nodes in chunks, replacing the
// one-heap-allocation-per-node cost of the consume hot path. Nodes are
// never freed individually, and a chunk is one object to the collector:
// while any node in it is reachable, every dead node beside it still
// holds its prev pointer into an older chunk and its ev pointer into a
// decoded block, so left alone the chunks keep each other — and every
// event ever bound — alive back to the start of the stream. The arena
// therefore remembers its filled chunks and retire zeroes them once
// they fall out of the τ window.
type nodeArena struct {
	chunk []node
	// filled holds the chunks handed out in full and not yet retired, in
	// creation order (so last is non-decreasing along it); spare holds
	// the chunks retired, zeroed, which new chunks reuse: at most the
	// window's peak, so a steady stream allocates no chunk.
	filled []filledChunk
	spare  [][]node
}

// filledChunk is a full chunk and the event time of its last node,
// which is the latest time of any node in it: events arrive in time
// order and a node is created for the event being consumed.
type filledChunk struct {
	nodes []node
	last  event.Time
}

// new returns a fresh node from the arena. The pointer stays valid
// until the chunk is retired: chunks are never reallocated, only
// replaced.
func (a *nodeArena) new(varIdx int32, ev *event.Event, prev *node) *node {
	if len(a.chunk) == cap(a.chunk) {
		if len(a.chunk) > 0 {
			a.filled = append(a.filled, filledChunk{a.chunk, a.chunk[len(a.chunk)-1].ev.Time})
		}
		if n := len(a.spare); n > 0 {
			a.chunk, a.spare = a.spare[n-1], a.spare[:n-1]
		} else {
			a.chunk = make([]node, 0, nodeChunk)
		}
	}
	a.chunk = a.chunk[:len(a.chunk)+1]
	n := &a.chunk[len(a.chunk)-1]
	n.varIdx, n.ev, n.prev = varIdx, ev, prev
	return n
}

// retire zeroes and forgets, oldest first, every filled chunk whose
// last node is more than within behind now, cutting both its prev links
// into older chunks and its ev pins on decoded blocks. A current chunk
// whose newest node is that old (a sparse query) is zeroed and reused.
//
// Invariant (Definition 2's window): it runs only at the end of a step
// on the event timed now, after every class has been visited or expired
// and its matches built. At that point every live class has minT >=
// now - within — the unfiltered path checks each class, the filtered
// path sweeps whenever the oldest class has lapsed, RejectNew calls
// expire — and a node's prev and alt lead only to nodes bound no
// earlier than its class's minT, so no node older than now - within is
// reachable from Ω. It must not run mid-step: the step's accepted
// classes walk their paths in buildMatch after the loop.
func (a *nodeArena) retire(now event.Time, within event.Duration) {
	n := 0
	for n < len(a.filled) && event.Duration(now-a.filled[n].last) > within {
		clear(a.filled[n].nodes)
		a.spare = append(a.spare, a.filled[n].nodes[:0])
		n++
	}
	if n > 0 {
		kept := copy(a.filled, a.filled[n:])
		clear(a.filled[kept:])
		a.filled = a.filled[:kept]
	}
	if len(a.chunk) > 0 && event.Duration(now-a.chunk[len(a.chunk)-1].ev.Time) > within {
		clear(a.chunk)
		a.chunk = a.chunk[:0]
	}
}

// reset recycles the current chunk and the filled ones for a fresh
// run. Only safe when no instance references arena nodes anymore
// (Runner.Reset guarantees this: it drops all instances first). Every
// chunk is zeroed so stale event pointers do not pin the previous input.
func (a *nodeArena) reset() {
	for i := range a.filled {
		clear(a.filled[i].nodes)
		a.spare = append(a.spare, a.filled[i].nodes[:0])
	}
	clear(a.filled)
	a.filled = a.filled[:0]
	clear(a.chunk)
	a.chunk = a.chunk[:0]
}

const noTime = event.Time(math.MinInt64)

// Runner executes one SES automaton incrementally. It is not safe for
// concurrent use; create one Runner per goroutine.
type Runner struct {
	a       *automaton.Automaton
	cfg     config
	plan    *keyPlan
	arena   nodeArena
	metrics Metrics
	done    bool

	// classes is Ω in first-event order, vals their key values, live the
	// multiplicities summed. A step builds next and nextVals (kids: its
	// fired children of one first event) and emits after its cap check.
	classes, next  []class
	vals, nextVals []event.Value
	kids           []int32
	live           int64
	emits          []class
	path           []*node
	// clock is the time of the last event stepped (noTime before the
	// first). Step refuses an earlier event: every window argument in
	// this file, chunk retirement included, rests on time order.
	clock event.Time

	// buildScratch is per-variable scratch reused across buildMatch
	// calls (event counts during the first pass, fill cursors during
	// the second).
	buildScratch []int

	// foldVals is foldAccepted's per-slot accumulator scratch.
	foldVals []aggVal

	// matchBuf backs the slice returned by Step/StepBlock/Flush; it is
	// reused across calls (the Match values themselves reference the
	// never-recycled match arena, so copying them out is always safe).
	matchBuf []Match

	// matchEvs and matchBinds are bump arenas for the backing arrays
	// of emitted matches. Published segments are never reused — the
	// arenas only amortize allocation count — so matches stay valid
	// across Reset and arbitrarily long after emission. matchFrom is
	// the stream clock when the current chunks were started.
	matchEvs   []*event.Event
	matchBinds []Binding
	matchFrom  event.Time

	// mismatches exports CondTypeMismatches as the
	// ses_cond_type_mismatch_total counter when a registry is attached.
	mismatches *obs.Counter

	// shedding is the ShedStartStates hysteresis state: true while the
	// runner suppresses fresh start instances.
	shedding bool

	// keyed holds the per-key sub-runners of a WithPartitionKey runner,
	// which steps every event on its key's sub-runner instead of itself;
	// nil on an unkeyed runner.
	keyed *keyed
}

// New creates a Runner for the automaton.
func New(a *automaton.Automaton, opts ...Option) *Runner {
	r := &Runner{a: a, plan: newKeyPlan(a), clock: noTime}
	for _, o := range opts {
		o(&r.cfg)
	}
	if r.cfg.registry != nil {
		r.mismatches = r.cfg.registry.Counter(
			obs.SeriesName("ses_cond_type_mismatch_total", r.cfg.metricLabels...),
			"transition conditions evaluated over operands of incomparable kinds (schema drift)")
	}
	if r.cfg.agg == nil {
		r.cfg.aggOnly = false
	} else {
		// A fresh runner starts from clean aggregate state: a supervised
		// restart replaying a stream (or restoring a checkpoint, which
		// loads its own state afterwards) must not double-fold.
		r.cfg.agg.reset()
		if r.cfg.registry != nil {
			r.cfg.agg.attachMetrics(r.cfg.registry, r.cfg.metricLabels)
		}
	}
	if r.cfg.partitionKey != "" {
		r.keyed = newKeyed(a, r.cfg.partitionKey)
	}
	return r
}

// Automaton returns the automaton the runner executes.
func (r *Runner) Automaton() *automaton.Automaton { return r.a }

// Metrics returns the execution metrics collected so far.
func (r *Runner) Metrics() Metrics { return r.metrics }

// ActiveInstances returns |Ω|, the number of automaton instances
// currently alive (excluding the per-event fresh start instance),
// summed over the keys of a keyed runner.
func (r *Runner) ActiveInstances() int {
	n := r.live
	if r.keyed != nil {
		for _, s := range r.keyed.subs {
			n = satAdd(n, s.live)
		}
	}
	return int(n)
}

// Reset discards all instances and metrics, making the runner ready
// for a new input. Allocated capacity (instance slices, the node
// arena) is retained, so a reused runner evaluates subsequent inputs
// nearly allocation-free.
func (r *Runner) Reset() {
	clear(r.classes)
	clear(r.vals)
	r.classes, r.vals, r.live = r.classes[:0], r.vals[:0], 0
	r.arena.reset()
	if r.cfg.agg != nil {
		r.cfg.agg.reset()
	}
	r.metrics = Metrics{}
	r.done = false
	r.clock = noTime
	r.shedding = false
	if r.keyed != nil {
		r.keyed.reset()
	}
}

// Step consumes the next input event: it is StepBlock over the
// one-event block of e (a slice viewing *e, not a copy), so a failing
// event returns no match. The returned matches reference e; the pointer
// must stay valid.
func (r *Runner) Step(e *event.Event) ([]Match, error) {
	return r.StepBlock(event.Block{Events: unsafe.Slice(e, 1)})
}

// StepBlock consumes a batch of time-ordered events one at a time and
// returns the matches they complete (instances that expired in the
// accepting state). An event earlier than a previously consumed one is
// refused with an error and leaves the runner unchanged. On an error it
// stops, returning only the matches of the events before the failing
// one. The returned slice is reused by the next Step/StepBlock/Flush
// call — copy the Match values out to retain them (the values
// themselves stay valid indefinitely).
func (r *Runner) StepBlock(blk event.Block) ([]Match, error) {
	matches := r.takeMatchBuf()
	var err error
	for i := 0; i < blk.Len() && err == nil; i++ {
		matches, err = r.stepInto(blk.At(i), matches)
	}
	if r.cfg.agg != nil {
		r.cfg.agg.wake()
	}
	return r.keepMatchBuf(matches), err
}

// takeMatchBuf returns the reused match buffer emptied, its matches
// zeroed: left behind a shorter result, they would pin old match arena
// chunks through their bindings.
func (r *Runner) takeMatchBuf() []Match {
	clear(r.matchBuf)
	return r.matchBuf[:0]
}

// keepMatchBuf keeps matches for the next call to reuse and returns
// them, or nil when there are none.
func (r *Runner) keepMatchBuf(matches []Match) []Match {
	r.matchBuf = matches
	if len(matches) == 0 {
		return nil
	}
	return matches
}

// stepInto consumes one event, appending its completed matches to
// matches. On an error it appends nothing.
func (r *Runner) stepInto(e *event.Event, matches []Match) ([]Match, error) {
	if r.done {
		return matches, fmt.Errorf("engine: Step after Flush")
	}
	if e.Time < r.clock {
		return matches, fmt.Errorf("engine: out-of-order event at time %d after %d", e.Time, r.clock)
	}
	r.clock = e.Time
	if r.keyed != nil {
		return r.keyed.step(r, e, matches)
	}
	matches, err := r.consumeEvent(e, matches)
	// The step is over: every instance was visited or expired and its
	// match built, which is the only point at which chunks may retire.
	r.arena.retire(e.Time, r.a.Within)
	return matches, err
}

// consumeEvent is Algorithm 1's loop body for one event: filter, window
// expiry, overload policy, the fresh start instance and Algorithm 2 for
// every class of instances.
func (r *Runner) consumeEvent(e *event.Event, matches []Match) ([]Match, error) {
	r.metrics.EventsProcessed++
	if r.cfg.filter && !r.a.PassesFilter(e) {
		r.metrics.EventsFiltered++
		// τ-aware sweep: a filtered event cannot fire transitions, but
		// its timestamp still advances the clock, so instances whose
		// window has lapsed are swept (and accepting ones emitted) now
		// instead of lingering until the next unfiltered event. The
		// class list is ordered by start time, so one comparison
		// against the oldest class gates the sweep.
		if len(r.classes) > 0 && event.Duration(e.Time-r.classes[0].minT) > r.a.Within {
			pre := len(matches)
			matches = r.expire(e.Time, matches)
			r.metrics.Matches += int64(len(matches) - pre)
			r.traceMatches(e, matches, pre)
		}
		return matches, nil
	}

	limit := int64(r.cfg.maxInstances)
	base := len(matches)

	// RejectNew: while the instance set sits at the cap, the event is
	// not admitted; only the expiry check runs against its timestamp so
	// that the set can drain and admission resumes.
	if limit > 0 && r.cfg.policy == RejectNew && r.live >= limit {
		matches = r.expire(e.Time, matches)
		if r.live >= limit {
			r.metrics.EventsRejected++
			r.metrics.DegradedSteps++
			r.metrics.Matches += int64(len(matches) - base)
			if r.cfg.trace != nil {
				r.cfg.trace(TraceStep{Kind: TraceShed, Event: e,
					FromState: r.a.Start, ToState: r.a.Start, Var: -1})
			}
			r.traceMatches(e, matches, base)
			return matches, nil
		}
		// The expiry pass freed room; fall through and admit the event
		// (expired instances are gone, so they are not revisited below).
	}

	// ShedStartStates hysteresis: suppress fresh start instances from
	// the moment |Ω| reaches the cap until it falls below the low-water
	// mark, so no new matches begin while in-flight ones complete.
	shed := false
	if limit > 0 && r.cfg.policy == ShedStartStates {
		low := int64(r.cfg.shedLowWater)
		if low <= 0 || low > limit {
			low = max(1, limit/2)
		}
		if r.live >= limit {
			r.shedding = true
		} else if r.shedding && r.live < low {
			r.shedding = false
		}
		shed = r.shedding
	}

	// Line 4 of Algorithm 1: a fresh instance in the start state joins
	// Ω for every (unfiltered) input event — unless it is being shed.
	omega := r.live
	if shed {
		r.metrics.InstancesShed++
		r.metrics.DegradedSteps++
		if r.cfg.trace != nil {
			r.cfg.trace(TraceStep{Kind: TraceShed, Event: e,
				FromState: r.a.Start, ToState: r.a.Start, Var: -1})
		}
	} else {
		r.metrics.StartInstances++
		omega = satAdd(omega, 1)
		if r.cfg.trace != nil {
			r.cfg.trace(TraceStep{Kind: TraceSpawn, Event: e,
				FromState: r.a.Start, ToState: r.a.Start, Var: -1})
		}
	}
	r.metrics.MaxSimultaneousInstances = max(r.metrics.MaxSimultaneousInstances, omega)

	for i := range r.classes {
		r.consumeClass(&r.classes[i], e)
	}
	if !shed {
		r.consumeClass(&class{state: int32(r.a.Start), minT: noTime, maxT: noTime, prevSetsMax: noTime, mult: 1}, e)
	}
	// The old list is the next scratch; its values, which may hold
	// strings of decoded blocks, are emptied so that they pin nothing.
	r.classes, r.next = r.next, r.classes
	r.vals, r.nextVals = r.nextVals, r.vals
	clear(r.nextVals)
	r.next, r.nextVals, r.kids = r.next[:0], r.nextVals[:0], r.kids[:0]
	r.recount()

	if limit > 0 && r.live > limit {
		switch r.cfg.policy {
		case DropOldest:
			r.evictOldest(r.live - limit)
			r.metrics.DegradedSteps++
		case Fail:
			// The failing event's matches are not enumerated at all.
			clear(r.emits)
			r.emits = r.emits[:0]
			return matches, fmt.Errorf("engine: %d simultaneous automaton instances exceed the cap of %d",
				r.live, limit)
			// RejectNew and ShedStartStates may overshoot transiently:
			// a single admitted event can branch into several instances.
			// The overshoot is bounded by the automaton's out-degree and
			// drains via expiry / the shedding hysteresis.
		}
	}
	matches = r.emitPending(matches)
	r.metrics.Matches += int64(len(matches) - base)
	r.traceMatches(e, matches, base)
	return matches, nil
}

// emitPending emits every path of the step's accepted classes in order:
// folded when an aggregation plan is attached, and appended as a match
// unless aggregate-only, where it bumps Matches (callers count appends).
func (r *Runner) emitPending(matches []Match) []Match {
	for _, em := range r.emits {
		r.eachPath(em.head, func(p []*node) bool {
			if r.cfg.agg != nil {
				r.foldAccepted(p)
			}
			if r.cfg.aggOnly {
				r.metrics.Matches++
			} else {
				matches = append(matches, r.buildMatch(p, em.minT, em.maxT))
			}
			return true
		})
	}
	clear(r.emits)
	r.emits = r.emits[:0]
	return matches
}

// traceMatches reports matches[from:] to the trace hook, if any.
func (r *Runner) traceMatches(e *event.Event, matches []Match, from int) {
	if r.cfg.trace == nil {
		return
	}
	for i := from; i < len(matches); i++ {
		r.cfg.trace(TraceStep{Kind: TraceMatch, Event: e, Var: -1, Matched: &matches[i]})
	}
}

// expire removes every class whose window has lapsed as of now,
// appending the matches of those that expire in the accepting state. It
// is the standalone analogue of the expiry check embedded in Step, used
// by the filtered-event τ sweep and by the RejectNew overload policy to
// age the instance set without consuming the event.
func (r *Runner) expire(now event.Time, matches []Match) []Match {
	kept := r.classes[:0]
	for _, c := range r.classes {
		if c.head != nil && event.Duration(now-c.minT) > r.a.Within {
			r.metrics.ExpiredInstances = satAdd(r.metrics.ExpiredInstances, c.mult)
			r.traceClass(TraceExpire, nil, &c)
			if int(c.state) == r.a.Accept {
				r.emits = append(r.emits, c)
			}
			continue
		}
		kept = append(kept, c)
	}
	clear(r.classes[len(kept):])
	r.classes = kept
	r.recount()
	return r.emitPending(matches)
}

// Flush ends the input and returns the matches of all remaining
// instances that reached the accepting state. Algorithm 1 only emits
// on expiry; a complete implementation must also emit the accepting
// instances alive at end of input. A keyed runner flushes its keys in
// first-occurrence order. The returned slice is reused like Step's.
func (r *Runner) Flush() []Match {
	if r.done {
		return nil
	}
	matches := r.flushInto(r.takeMatchBuf())
	if r.cfg.agg != nil {
		r.cfg.agg.wake()
	}
	return r.keepMatchBuf(matches)
}

// flushInto ends the input, appending the matches of the accepting
// instances to matches.
func (r *Runner) flushInto(matches []Match) []Match {
	r.done = true
	if r.keyed != nil {
		return r.keyed.flush(r, matches)
	}
	base := len(matches)
	for i := range r.classes {
		if int(r.classes[i].state) == r.a.Accept {
			r.emits = append(r.emits, r.classes[i])
		}
	}
	matches = r.emitPending(matches)
	r.metrics.Matches += int64(len(matches) - base)
	clear(r.classes)
	r.classes, r.live = r.classes[:0], 0
	r.traceMatches(nil, matches, base)
	return matches
}

// Run executes the automaton over a complete, time-sorted relation and
// returns all matching substitutions plus execution metrics.
func Run(a *automaton.Automaton, rel *event.Relation, opts ...Option) ([]Match, Metrics, error) {
	return RunOn(New(a, opts...), rel)
}

// RunOn evaluates the relation on an existing runner, resetting it
// first. Reusing one runner across many inputs (e.g. the iterations of
// a benchmark) retains its instance slices and node arena and thus
// avoids re-paying their allocations per input.
func RunOn(r *Runner, rel *event.Relation) ([]Match, Metrics, error) {
	if !rel.Sorted() {
		return nil, Metrics{}, fmt.Errorf("engine: relation is not sorted by time")
	}
	if !rel.Schema().Equal(r.a.Schema) {
		return nil, Metrics{}, fmt.Errorf("engine: relation schema (%s) differs from automaton schema (%s)",
			rel.Schema(), r.a.Schema)
	}
	r.Reset()
	var matches []Match
	for i := 0; i < rel.Len(); i++ {
		ms, err := r.Step(rel.Event(i))
		if err != nil {
			return nil, r.Metrics(), err
		}
		matches = append(matches, ms...)
	}
	matches = append(matches, r.Flush()...)
	return matches, r.Metrics(), nil
}
