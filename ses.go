// Package ses is a library for sequenced event set (SES) pattern
// matching, a reproduction of Cadonna, Gamper, Böhlen: "Sequenced
// Event Set Pattern Matching" (EDBT 2011).
//
// A SES pattern matches a time-ordered sequence of events against a
// sequence of *sets* of event variables: events bound to the same set
// may occur in any permutation (the PERMUTE operator of the SQL row
// pattern matching change proposal), events bound to different sets
// must follow the set order strictly, and all matched events must fall
// within a time window τ. Variables are singletons (one event) or
// Kleene-plus group variables (one or more events), constrained by
// conditions on event attributes.
//
// # Quickstart
//
//	schema := ses.MustSchema(
//	    ses.Field{Name: "ID", Type: ses.TypeInt},
//	    ses.Field{Name: "L", Type: ses.TypeString},
//	)
//	rel := ses.NewRelation(schema)
//	rel.MustAppend(t0, ses.Int(1), ses.String("C"))
//	// ... more events, then:
//	q, err := ses.Compile(`
//	    PATTERN PERMUTE(c, p+, d) THEN (b)
//	    WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B'
//	      AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID
//	    WITHIN 264h`, schema)
//	matches, metrics, err := q.Match(rel)
//
// Patterns can equally be assembled programmatically with NewPattern,
// and event streams can be evaluated incrementally with a Runner or,
// over a channel, with Query.Supervise.
package ses

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/automaton"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/store"
)

// Re-exported event model types. See the respective internal packages
// for full documentation; the aliases make the public surface
// self-contained.
type (
	// Time is an instant in the discrete time domain (canonically
	// seconds).
	Time = event.Time
	// Duration is a time span in the same unit as Time.
	Duration = event.Duration
	// Value is a dynamically typed attribute value.
	Value = event.Value
	// Field declares one schema attribute.
	Field = event.Field
	// Type is the static type of a schema field.
	Type = event.Type
	// Schema describes the non-temporal attributes of a relation.
	Schema = event.Schema
	// Event is a tuple (A1..Al, T).
	Event = event.Event
	// Relation is a set of events ordered by occurrence time.
	Relation = event.Relation
)

// Field types.
const (
	TypeString = event.TypeString
	TypeInt    = event.TypeInt
	TypeFloat  = event.TypeFloat
)

// Duration units in the canonical seconds domain.
const (
	Second = event.Second
	Minute = event.Minute
	Hour   = event.Hour
	Day    = event.Day
	Week   = event.Week
)

// Value constructors.
var (
	// String constructs a string attribute value.
	String = event.String
	// Int constructs an integer attribute value.
	Int = event.Int
	// Float constructs a floating point attribute value.
	Float = event.Float
)

// NewSchema builds a schema from fields; names must be unique and free
// of the reserved characters '.', ',' and ':'.
func NewSchema(fields ...Field) (*Schema, error) { return event.NewSchema(fields...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(fields ...Field) *Schema { return event.MustSchema(fields...) }

// NewRelation creates an empty relation over the schema.
func NewRelation(schema *Schema) *Relation { return event.NewRelation(schema) }

// Merge combines time-sorted relations over a common schema into one
// sorted relation (stable k-way merge).
func Merge(rels ...*Relation) (*Relation, error) { return event.Merge(rels...) }

// Reorderer absorbs bounded out-of-order arrival in event streams,
// releasing events in timestamp order within a lateness slack.
// Query.Supervise runs one when SuperviseConfig.Slack is positive and
// dead-letters the events beyond it.
type Reorderer = engine.Reorderer

// NewReorderer creates a Reorderer with the given lateness bound.
func NewReorderer(slack Duration) *Reorderer { return engine.NewReorderer(slack) }

// Pattern model re-exports.
type (
	// Pattern is a SES pattern P = (⟨V1..Vm⟩, Θ, τ).
	Pattern = pattern.Pattern
	// Variable is an event variable of an event set pattern.
	Variable = pattern.Variable
	// Condition is one condition θ ∈ Θ.
	Condition = pattern.Condition
	// Op is a comparison operator.
	Op = pattern.Op
	// PatternBuilder assembles a Pattern fluently.
	PatternBuilder = pattern.Builder
	// Analysis classifies a pattern per the paper's complexity cases.
	Analysis = pattern.Analysis
)

// Comparison operators for pattern conditions.
const (
	Eq = pattern.Eq
	Ne = pattern.Ne
	Lt = pattern.Lt
	Le = pattern.Le
	Gt = pattern.Gt
	Ge = pattern.Ge
)

// Var constructs a singleton event variable; Plus a Kleene-plus group
// variable (v+); Opt an optional singleton (v?); Star an optional
// group (v*). Optional variables are an extension beyond the paper.
var (
	Var  = pattern.Var
	Plus = pattern.Plus
	Opt  = pattern.Opt
	Star = pattern.Star
)

// NewPattern returns a fluent pattern builder:
//
//	p, err := ses.NewPattern().
//	    Set(ses.Var("c"), ses.Plus("p"), ses.Var("d")).
//	    Set(ses.Var("b")).
//	    WhereConst("c", "L", ses.Eq, ses.String("C")).
//	    ...
//	    Within(264 * ses.Hour).
//	    Build()
func NewPattern() *PatternBuilder { return pattern.New() }

// Analyze classifies the pattern into the complexity cases of the
// paper's Section 4.4 (Theorems 1-3) and reports the bound on the
// number of simultaneous automaton instances.
func Analyze(p *Pattern) Analysis { return pattern.Analyze(p) }

// ParseQuery parses the textual pattern language:
//
//	PATTERN PERMUTE(c, p+, d) THEN (b) WHERE ... WITHIN 264h
//
// Errors carry line and column positions.
func ParseQuery(src string) (*Pattern, error) { return query.Parse(src) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(src string) *Pattern { return query.MustParse(src) }

// Engine re-exports.
type (
	// Match is one matching substitution γ.
	Match = engine.Match
	// Binding is the events bound to one variable within a match.
	Binding = engine.Binding
	// Metrics are execution counters (instances, iterations, ...).
	Metrics = engine.Metrics
	// Runner evaluates an automaton incrementally (Step/Flush); a
	// channel of events runs through Query.Supervise.
	Runner = engine.Runner
	// Option configures evaluation.
	Option = engine.Option
	// Strategy selects the event selection strategy.
	Strategy = engine.Strategy
)

// Evaluation options.
var (
	// WithFilter toggles the event filtering optimisation
	// (Section 4.5 of the paper).
	WithFilter = engine.WithFilter
	// WithStrategy selects SkipTillNext (the paper's semantics,
	// default) or SkipTillAny.
	WithStrategy = engine.WithStrategy
	// WithMaxInstances caps simultaneous automaton instances.
	WithMaxInstances = engine.WithMaxInstances
	// WithEmitOnAccept switches to first-match alerting: emit the
	// moment the accepting state is reached instead of waiting for the
	// greedy MAXIMAL emission at expiry.
	WithEmitOnAccept = engine.WithEmitOnAccept
	// WithOverloadPolicy selects the graceful-degradation behavior
	// applied when the WithMaxInstances cap is reached.
	WithOverloadPolicy = engine.WithOverloadPolicy
	// WithShedLowWater sets the resume threshold of ShedStartStates.
	WithShedLowWater = engine.WithShedLowWater
	// WithPartitionKey keys a Runner by an attribute, as
	// Query.KeyedRunner does; pass it to RestoreRunner or Supervise to
	// restore or supervise a keyed runner.
	WithPartitionKey = engine.WithPartitionKey
)

// Event selection strategies.
const (
	SkipTillNext = engine.SkipTillNext
	SkipTillAny  = engine.SkipTillAny
)

// Aggregation re-exports: online match aggregation (AGGREGATE/HAVING).
type (
	// Aggregator accumulates the aggregate results of one query: every
	// accepted match folds into a per-partition group of counts and
	// sums instead of being enumerated. Create one with
	// Query.NewAggregator and attach it via WithAggregation.
	Aggregator = engine.Aggregator
	// AggPlan is an AGGREGATE clause compiled against an automaton.
	AggPlan = engine.AggPlan
)

var (
	// WithAggregation attaches an Aggregator: every completed match is
	// folded into its partition group at the moment it is emitted.
	WithAggregation = engine.WithAggregation
	// WithAggregateOnly suppresses match materialization: accepted
	// matches are folded and counted but never built, encoded or
	// returned — the enumeration-free path for aggregate-only queries.
	WithAggregateOnly = engine.WithAggregateOnly
)

// OverloadPolicy decides what happens when the instance cap is hit.
type OverloadPolicy = engine.OverloadPolicy

// Overload policies for WithOverloadPolicy.
const (
	// Fail errors out at the cap (paper-exact behavior; default).
	Fail = engine.Fail
	// RejectNew refuses input events while the instance set is full.
	RejectNew = engine.RejectNew
	// DropOldest evicts the instances with the oldest start times.
	DropOldest = engine.DropOldest
	// ShedStartStates stops opening new start instances until the
	// instance set drains below the low-water mark.
	ShedStartStates = engine.ShedStartStates
)

// SnapshotVersion is the version of the checkpoint format written by
// Runner.WriteSnapshot and accepted by RestoreRunner.
const SnapshotVersion = engine.SnapshotVersion

// Resilience re-exports: supervised streams. See package
// internal/resilience for full documentation.
type (
	// SuperviseConfig parameterizes Query.Supervise. A stream with a
	// CheckpointPath is also checkpointed when its input ends, at the
	// arrival position of its last event.
	SuperviseConfig = resilience.Config
	// StreamSupervisor reports the health of a supervised stream.
	StreamSupervisor = resilience.Supervisor
)

var (
	// ErrLate is the dead-letter reason for events beyond the slack.
	ErrLate = resilience.ErrLate
	// ErrSchema is the dead-letter reason for schema-invalid events.
	ErrSchema = resilience.ErrSchema
	// ErrSentinelTime is the dead-letter reason for events carrying a
	// reserved sentinel timestamp (MinTime/MaxTime of the time domain).
	ErrSentinelTime = resilience.ErrSentinelTime
)

// Observability re-exports: the metrics registry, the debug HTTP
// server and instance-lifecycle tracing. See package internal/obs and
// the engine's WithTrace documentation.
type (
	// MetricsRegistry holds named counters, gauges and histograms and
	// renders them in the Prometheus text exposition format.
	MetricsRegistry = obs.Registry
	// DebugServer is a running observability HTTP server (/metrics,
	// /debug/vars, /debug/pprof).
	DebugServer = obs.DebugServer
	// TraceStep describes one instance-lifecycle event delivered to a
	// WithTrace hook.
	TraceStep = engine.TraceStep
	// TraceKind classifies a TraceStep (transition, spawn, expire,
	// shed, match).
	TraceKind = engine.TraceKind
)

// Trace step kinds.
const (
	TraceTransition = engine.TraceTransition
	TraceSpawn      = engine.TraceSpawn
	TraceExpire     = engine.TraceExpire
	TraceShed       = engine.TraceShed
	TraceMatch      = engine.TraceMatch
)

var (
	// NewMetricsRegistry creates an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// ServeDebug starts the observability HTTP server on an address,
	// exposing the registry on /metrics plus expvar and pprof.
	ServeDebug = obs.ServeDebug
	// MetricsHandler returns an http.Handler serving a registry in the
	// Prometheus text format, for embedding into an existing server.
	MetricsHandler = obs.Handler
	// WithMetricsRegistry attaches a registry into which a Runner
	// exports its counters (Supervise takes SuperviseConfig.Registry
	// for the supervisor's own).
	WithMetricsRegistry = engine.WithMetricsRegistry
	// WithMetricLabels attaches label key/value pairs to every metric
	// series an evaluator registers, so several evaluators can share
	// one registry without colliding on series names.
	WithMetricLabels = engine.WithMetricLabels
	// WithTrace installs a hook invoked for every instance-lifecycle
	// event (spawn, transition, expire, shed, match).
	WithTrace = engine.WithTrace
)

// Serving-layer re-exports: the multi-query server behind cmd/sesd.
// See package internal/server for full documentation.
type (
	// Server fans one ingested event stream out to a registry of
	// concurrently running SES queries, each evaluated by its own
	// supervised pipeline behind a bounded mailbox, with
	// matches streamed over HTTP as NDJSON or SSE.
	Server = server.Server
	// ServerConfig parameterizes NewServer.
	ServerConfig = server.Config
	// QuerySpec is the registration request for one served query.
	QuerySpec = server.QuerySpec
	// QueryInfo is the externally visible state of a served query.
	QueryInfo = server.QueryInfo
)

var (
	// NewServer creates a multi-query serving layer over one event
	// schema; see Server.Handler for its HTTP API.
	NewServer = server.New
	// ErrServerDraining rejects registrations and ingest after
	// Server.Drain has begun.
	ErrServerDraining = server.ErrDraining
	// ErrDuplicateQuery rejects a registration whose id is taken or
	// whose automaton fingerprint equals a registered query's.
	ErrDuplicateQuery = server.ErrDuplicate
	// ErrQueryNotFound reports an unknown query id.
	ErrQueryNotFound = server.ErrNotFound
)

// TraceJSON returns an evaluation option that streams every
// instance-lifecycle event of a run as one JSON object per line to w
// (the `sesmatch -trace out.jsonl` format), plus a function reporting
// the first write error once evaluation is done. The hook is safe for
// concurrent use by runners on different goroutines. Queries with
// optional variables are rejected: their variant automata would render
// ambiguous state labels.
func (q *Query) TraceJSON(w io.Writer) (Option, func() error, error) {
	if len(q.autos) != 1 {
		return nil, nil, fmt.Errorf("ses: TraceJSON does not support optional variables (%d variants)", len(q.autos))
	}
	tw := engine.NewTraceJSON(w, q.autos[0])
	return engine.WithTrace(tw.Hook()), tw.Err, nil
}

// MatchJSON encodes a match as JSON, using the schema for attribute
// names.
func MatchJSON(m Match, schema *Schema) ([]byte, error) { return engine.MatchJSON(m, schema) }

// AppendMatchJSON appends the MatchJSON encoding of m to b. On an error
// it returns b as it was; into a buffer with room it allocates nothing.
func AppendMatchJSON(b []byte, m Match, schema *Schema) ([]byte, error) {
	return engine.AppendMatchJSON(b, m, schema)
}

// FilterMaximal drops matches that are proper subsets of another match
// with the same start time (condition 5 of the paper's Definition 2).
// Only needed when the input contains events with identical
// timestamps.
func FilterMaximal(matches []Match) []Match { return engine.FilterMaximal(matches) }

// Query is a compiled SES pattern ready to run against relations or
// streams whose schema matches the one it was compiled for.
//
// Patterns with optional variables (v?, v* — an extension beyond the
// paper) compile into several variant automata, one per subset of
// included optionals; Match evaluates their union and applies the
// MAXIMAL preference for binding optional variables.
type Query struct {
	p     *Pattern
	autos []*automaton.Automaton
}

// Compile parses (if src is a string) or accepts a *Pattern and
// compiles it into an executable query for the given schema.
func Compile[P interface{ *Pattern | string }](src P, schema *Schema) (*Query, error) {
	var p *Pattern
	switch v := any(src).(type) {
	case string:
		parsed, err := query.Parse(v)
		if err != nil {
			return nil, err
		}
		p = parsed
	case *Pattern:
		p = v
	}
	variants, err := pattern.ExpandOptionals(p)
	if err != nil {
		return nil, err
	}
	q := &Query{p: p.Clone()}
	for _, v := range variants {
		a, err := automaton.Compile(v, schema)
		if err != nil {
			return nil, err
		}
		q.autos = append(q.autos, a)
	}
	return q, nil
}

// MustCompile is Compile that panics on error.
func MustCompile[P interface{ *Pattern | string }](src P, schema *Schema) *Query {
	q, err := Compile(src, schema)
	if err != nil {
		panic(err)
	}
	return q
}

// Pattern returns the compiled pattern (with its optional variables
// intact, if any).
func (q *Query) Pattern() *Pattern { return q.p }

// Variants returns the number of variant automata the query compiled
// into: 1 for plain patterns, up to 2^k for k optional variables.
func (q *Query) Variants() int { return len(q.autos) }

// States returns the number of automaton states (|Q| of Definition 3),
// summed over variants.
func (q *Query) States() int {
	n := 0
	for _, a := range q.autos {
		n += a.NumStates()
	}
	return n
}

// Transitions returns the number of automaton transitions (|∆|),
// summed over variants.
func (q *Query) Transitions() int {
	n := 0
	for _, a := range q.autos {
		n += a.NumTransitions()
	}
	return n
}

// WriteDOT renders the compiled SES automata in Graphviz DOT format,
// one digraph per variant.
func (q *Query) WriteDOT(w io.Writer, name string) error {
	for i, a := range q.autos {
		n := name
		if len(q.autos) > 1 {
			n = fmt.Sprintf("%s_variant%d", name, i)
		}
		if err := a.WriteDOT(w, n); err != nil {
			return err
		}
	}
	return nil
}

// Explain renders a human-readable query plan: the pattern, its
// complexity classification per the paper's Theorems 1-3, the compiled
// automaton shape (per variant for optional-variable queries), and the
// constant conditions the Section 4.5 event filter can use.
func (q *Query) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pattern:\n%s\n\n", q.p)
	fmt.Fprintf(&b, "complexity (Section 4.4):\n%s\n\n", pattern.Analyze(q.p))
	if len(q.autos) > 1 {
		fmt.Fprintf(&b, "optional variables expand into %d variant automata:\n", len(q.autos))
	}
	for i, a := range q.autos {
		prefix := ""
		if len(q.autos) > 1 {
			prefix = fmt.Sprintf("variant %d: ", i)
		}
		fmt.Fprintf(&b, "%sautomaton: %d states, %d transitions, accept %s\n",
			prefix, a.NumStates(), a.NumTransitions(), a.StateLabel(a.Accept))
	}
	b.WriteString("\nevent filter (Section 4.5) constant conditions per variable:\n")
	for _, set := range q.p.Sets {
		for _, v := range set {
			conds := q.p.ConstConds(v.Name)
			if len(conds) == 0 {
				fmt.Fprintf(&b, "  %s: (none — every event passes for this variable)\n", v)
				continue
			}
			parts := make([]string, len(conds))
			for i, c := range conds {
				parts[i] = c.String()
			}
			fmt.Fprintf(&b, "  %s: %s\n", v, strings.Join(parts, " AND "))
		}
	}
	return b.String()
}

// Match evaluates the query over a complete, time-sorted relation and
// returns all matching substitutions plus execution metrics. For
// queries with optional variables the variants' results are combined
// and the MAXIMAL preference is applied.
func (q *Query) Match(rel *Relation, opts ...Option) ([]Match, Metrics, error) {
	if len(q.autos) == 1 {
		return engine.Run(q.autos[0], rel, opts...)
	}
	return engine.RunUnion(q.autos, rel, opts...)
}

// Runner creates an incremental evaluator for a single-variant query.
// Feed events in time order with Step and finish with Flush; to
// evaluate a channel of events use Supervise. For queries with optional
// variables use UnionRunner instead; Runner panics on them.
func (q *Query) Runner(opts ...Option) *Runner {
	if len(q.autos) != 1 {
		panic("ses: Runner on a query with optional variables; use UnionRunner")
	}
	return engine.New(q.autos[0], opts...)
}

// RestoreRunner reconstructs a Runner from a checkpoint written by
// Runner.WriteSnapshot, so a crashed or migrated stream resumes from
// its last checkpoint instead of reprocessing from scratch. The query
// must compile to the same automaton the snapshot was taken from
// (validated via a structural fingerprint) and must be single-variant.
func (q *Query) RestoreRunner(rd io.Reader, opts ...Option) (*Runner, error) {
	if len(q.autos) != 1 {
		return nil, fmt.Errorf("ses: RestoreRunner does not support optional variables (%d variants)", len(q.autos))
	}
	return engine.RestoreRunner(q.autos[0], rd, opts...)
}

// Supervise is the library's one channel API, for single-variant
// queries: events are schema-validated, reordered within cfg.Slack,
// deduplicated within cfg.DedupWindow, and evaluated by a runner built
// with opts (WithPartitionKey keys it) that is checkpointed
// periodically and restarted from its last checkpoint — with capped
// exponential backoff and deterministic replay — when the pipeline
// panics. Late and malformed events go to cfg.DeadLetter instead of
// ending the stream. See SuperviseConfig for the knobs and
// StreamSupervisor for the health counters.
//
// Events are numbered by arrival from 0 (on resume, from just after
// the checkpoint's position), refused ones included, as sesd numbers
// its stream, and each goes to the supervisor as a one-event block.
// Matches are handed over one at a time: a checkpoint never covers a
// match the caller has not taken.
func (q *Query) Supervise(ctx context.Context, in <-chan Event, cfg SuperviseConfig, opts ...Option) (<-chan Match, *StreamSupervisor, error) {
	if len(q.autos) != 1 {
		return nil, nil, fmt.Errorf("ses: Supervise does not support optional variables (%d variants)", len(q.autos))
	}
	return resilience.SuperviseEvents(ctx, q.autos[0], opts, in, cfg)
}

// UnionRunner is an incremental evaluator over a query's variant
// automata (queries with optional variables).
type UnionRunner = engine.Union

// UnionRunner creates an incremental evaluator covering all variants
// of the query, driven by Step and Flush (there is no channel API for
// optional variables). The cross-variant MAXIMAL preference cannot be
// applied incrementally; Match applies it, and a caller stepping the
// union may apply FilterMaximal per collected window.
func (q *Query) UnionRunner(opts ...Option) (*UnionRunner, error) {
	return engine.NewUnion(q.autos, opts...)
}

// HasAggregate reports whether the query carries an AGGREGATE clause.
func (q *Query) HasAggregate() bool { return q.p.Agg != nil }

// NewAggregator compiles the query's AGGREGATE clause against its
// automaton and returns an empty Aggregator to attach via
// WithAggregation. Errors when the query has no AGGREGATE clause or
// uses optional variables (aggregation would count matches the
// cross-variant MAXIMAL filter discards).
func (q *Query) NewAggregator() (*Aggregator, error) {
	if q.p.Agg == nil {
		return nil, fmt.Errorf("ses: query has no AGGREGATE clause")
	}
	if len(q.autos) != 1 {
		return nil, fmt.Errorf("ses: aggregation does not support optional variables (%d variants)", len(q.autos))
	}
	plan, err := engine.CompileAggregate(q.autos[0], q.p.Agg)
	if err != nil {
		return nil, err
	}
	return engine.NewAggregator(plan), nil
}

// Aggregate evaluates an AGGREGATE query over a complete, time-sorted
// relation on the enumeration-free path (no Match values are built)
// and returns the aggregate results as the stats JSON document
// (Aggregator.Stats) plus execution metrics.
func (q *Query) Aggregate(rel *Relation, opts ...Option) ([]byte, Metrics, error) {
	ag, err := q.NewAggregator()
	if err != nil {
		return nil, Metrics{}, err
	}
	opts = append(append([]Option{}, opts...), WithAggregation(ag), WithAggregateOnly(true))
	r := engine.New(q.autos[0], opts...)
	_, m, err := engine.RunOn(r, rel)
	if err != nil {
		return nil, m, err
	}
	data, _, _ := ag.Stats(0)
	return data, m, nil
}

// MatchPartitioned splits the relation by the named attribute and
// evaluates the query independently per partition, implementing the
// "for each <entity>" reading of queries like the paper's Q1 ("for
// each patient, find ..."). This differs from Match on the interleaved
// relation under skip-till-next-match: there, an instance whose next
// transitions carry no join condition yet (e.g. a group variable bound
// before its join partner) is forced to consume matching events of
// OTHER entities, killing the per-entity match. Partitioned evaluation
// confines every instance to one entity.
//
// A single-variant query runs as one pass of a KeyedRunner over the
// relation; a query with optional variables runs Match on each
// partition. Matches keep the original relation's event sequence
// numbers and are returned ordered by start time, equal starts of
// different keys in the order the keys first occur in the relation;
// metrics are aggregated over the partitions with Metrics merge
// semantics (throughput counters sum, the instance peak is the
// per-partition maximum).
func (q *Query) MatchPartitioned(rel *Relation, attr string, opts ...Option) ([]Match, Metrics, error) {
	var matches []Match
	var m Metrics
	if len(q.autos) == 1 {
		r, err := q.KeyedRunner(attr, opts...)
		if err != nil {
			return nil, Metrics{}, err
		}
		if matches, m, err = engine.RunOn(r, rel); err != nil {
			return nil, m, err
		}
	} else {
		// A union of variant automata has no keyed form: evaluate each
		// partition on its own.
		parts, err := rel.Partition(attr)
		if err != nil {
			return nil, Metrics{}, err
		}
		for _, part := range parts {
			ms, pm, err := q.Match(part, opts...)
			if err != nil {
				return nil, m, err
			}
			matches = append(matches, ms...)
			m.Merge(pm)
		}
	}
	sortByStartThenKey(matches, rel, attr)
	return matches, m, nil
}

// sortByStartThenKey stably sorts matches by start time, breaking ties
// by the first-occurrence position of each match's attr value in rel.
// Each key's matches keep their evaluation order among themselves.
func sortByStartThenKey(matches []Match, rel *Relation, attr string) {
	idx, _ := rel.Schema().Index(attr)
	rank := make(map[Value]int)
	for i := 0; i < rel.Len(); i++ {
		k := rel.Event(i).Attrs[idx]
		if _, seen := rank[k]; !seen {
			rank[k] = len(rank)
		}
	}
	// Every binding of a match holds at least one event, all of one key.
	keyRank := func(m Match) int { return rank[m.Bindings[0].Events[0].Attrs[idx]] }
	slices.SortStableFunc(matches, func(a, b Match) int {
		if a.First != b.First {
			return cmp.Compare(a.First, b.First)
		}
		return keyRank(a) - keyRank(b)
	})
}

// KeyedRunner creates an incremental evaluator for a single-variant
// query whose state is partitioned by the key attribute: every
// automaton instance is confined to the events of one key. Matches
// come out in step order — same-timestamp matches of different keys in
// arrival order — and Flush ends the keys in first-occurrence order;
// MatchPartitioned runs one over a relation and sorts the matches by
// start time. The
// runner checkpoints, restores (with WithPartitionKey) and supervises
// like any other. Errors on an unknown attribute and on queries with
// optional variables.
func (q *Query) KeyedRunner(keyAttr string, opts ...Option) (*Runner, error) {
	if len(q.autos) != 1 {
		return nil, fmt.Errorf("ses: KeyedRunner does not support optional variables (%d variants)", len(q.autos))
	}
	if _, ok := q.autos[0].Schema.Index(keyAttr); !ok {
		return nil, fmt.Errorf("ses: no attribute %q in schema (%s)", keyAttr, q.autos[0].Schema)
	}
	return engine.New(q.autos[0], append(opts[:len(opts):len(opts)], engine.WithPartitionKey(keyAttr))...), nil
}

// CSV persistence.

// ReadOptions configure LoadCSV.
type ReadOptions = store.ReadOptions

// LoadCSV reads a typed-CSV event relation (see package
// internal/store for the format: a header of name:type columns with
// exactly one time column).
func LoadCSV(r io.Reader, opts ReadOptions) (*Relation, error) { return store.Read(r, opts) }

// WriteCSV writes the relation as typed CSV.
func WriteCSV(w io.Writer, rel *Relation) error { return store.Write(w, rel) }

// LoadCSVFile reads a typed-CSV event relation from a file.
func LoadCSVFile(path string, opts ReadOptions) (*Relation, error) {
	return store.LoadFile(path, opts)
}

// SaveCSVFile writes the relation to a file.
func SaveCSVFile(path string, rel *Relation) error { return store.SaveFile(path, rel) }
