package engine

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/automaton"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// This file implements match aggregation: instead of materializing
// the (potentially exponential) match set of a pattern, the runner
// folds counts and sums of the accepted matches into per-partition
// groups. Automaton instances carry no aggregate state: an instance
// that completes in the accepting state is folded from its match
// buffer β (Runner.foldAccepted), in time linear in its bindings, paid
// once per accepted match — no buildMatch, no JSON rendering, no
// match-log append. Sharing partial aggregates between instances at
// state granularity, as in Poppe et al.'s online event-trend
// aggregation, is not done.

// aggVal is one accumulator slot: the contribution count plus an
// integer and a float accumulator (which one is live depends on the
// slot's attribute type).
type aggVal struct {
	n int64
	i int64
	f float64
}

// aggSlot is one compiled event-fed aggregate (sum/min/max).
type aggSlot struct {
	fn      pattern.AggFunc
	attr    int  // schema attribute index
	varIdx  int  // restrict to this automaton variable; -1 = all, -2 = none
	isFloat bool // float64 accumulator (else int64)
}

// aggNone marks a variable restriction that resolves to no variable of
// this automaton (an optional variable excluded from the variant):
// the slot exists but never receives contributions.
const aggNone = -2

// planColumn is one output column of the AGGREGATE clause: count, or a
// reference to an event-fed slot.
type planColumn struct {
	label string
	slot  int // index into slots; -1 = count
}

// planHaving is one compiled HAVING conjunct.
type planHaving struct {
	slot int // index into slots; -1 = count
	op   pattern.Op
	c    event.Value
}

// AggPlan is an AGGREGATE clause compiled against one automaton: the
// accumulator slots of each match and group, the output columns, the
// compiled HAVING filter and the resolved partition attribute. Plans
// are immutable after CompileAggregate and safe to share.
type AggPlan struct {
	spec      *pattern.AggSpec
	slots     []aggSlot
	cols      []planColumn
	having    []planHaving
	partAttr  int // schema index of the partition attribute; -1 = one group
	partType  event.Type
	havingSrc string
}

// Columns returns the output column labels in clause order, e.g.
// ["count", "sum(p.Dose)"] — the order of every group's values array
// in the stats document.
func (p *AggPlan) Columns() []string {
	out := make([]string, len(p.cols))
	for i, c := range p.cols {
		out[i] = c.label
	}
	return out
}

// Partition returns the partition attribute name, or "" when all
// matches fold into one global group.
func (p *AggPlan) Partition() string { return p.spec.Partition }

// CompileAggregate compiles an AGGREGATE clause against the automaton
// it will run on: aggregate arguments are resolved to schema attribute
// indices (they must be numeric) and variable restrictions to the
// automaton's variable indices. A restriction naming a variable absent
// from this automaton — an optional variable excluded from the variant
// — compiles to a slot that never receives contributions.
func CompileAggregate(a *automaton.Automaton, spec *pattern.AggSpec) (*AggPlan, error) {
	if spec == nil || len(spec.Items) == 0 {
		return nil, fmt.Errorf("engine: empty aggregation spec")
	}
	schema := a.Schema
	p := &AggPlan{spec: spec.Clone(), partAttr: -1}
	slotOf := make(map[string]int)
	resolve := func(it pattern.AggItem) (int, error) {
		if !it.EventFed() {
			return -1, nil
		}
		key := it.String()
		if s, ok := slotOf[key]; ok {
			return s, nil
		}
		ai, ok := schema.Index(it.Attr)
		if !ok {
			return 0, fmt.Errorf("engine: aggregate %q references attribute %q not in schema (%s)", it, it.Attr, schema)
		}
		k := event.ZeroOf(schema.Field(ai).Type).Kind()
		if k != event.KindInt && k != event.KindFloat {
			return 0, fmt.Errorf("engine: aggregate %q requires a numeric attribute, %q is %s",
				it, it.Attr, schema.Field(ai).Type)
		}
		vi := -1
		if it.Var != "" {
			vi = a.VarIndex(it.Var)
			if vi < 0 {
				vi = aggNone
			}
		}
		s := len(p.slots)
		if s >= pattern.MaxEventAggregates {
			return 0, fmt.Errorf("engine: more than %d distinct event-fed aggregates", pattern.MaxEventAggregates)
		}
		p.slots = append(p.slots, aggSlot{fn: it.Func, attr: ai, varIdx: vi, isFloat: k == event.KindFloat})
		slotOf[key] = s
		return s, nil
	}
	for _, it := range p.spec.Items {
		s, err := resolve(it)
		if err != nil {
			return nil, err
		}
		p.cols = append(p.cols, planColumn{label: it.String(), slot: s})
	}
	for i, h := range p.spec.Having {
		if k := h.Const.Kind(); k != event.KindInt && k != event.KindFloat {
			return nil, fmt.Errorf("engine: HAVING condition %q compares against a non-numeric constant", h)
		}
		s, err := resolve(h.Item)
		if err != nil {
			return nil, err
		}
		p.having = append(p.having, planHaving{slot: s, op: h.Op, c: h.Const})
		if i > 0 {
			p.havingSrc += " AND "
		}
		p.havingSrc += h.String()
	}
	if p.spec.Partition != "" {
		ai, ok := schema.Index(p.spec.Partition)
		if !ok {
			return nil, fmt.Errorf("engine: partition attribute %q not in schema (%s)", p.spec.Partition, schema)
		}
		p.partAttr = ai
		p.partType = schema.Field(ai).Type
	}
	return p, nil
}

// foldAccepted folds an accepted instance, its match buffer β given as
// a path newest binding first, into the aggregator. The buffer holds
// every binding the fold needs and is intact at emission — the
// invariant buildMatch rests on — so the
// aggregate is computed here, once per accepted match, in time linear
// in its bindings; an instance that never accepts costs the fold
// nothing. The bindings are contributed oldest first, the order they
// were made in, into a per-match accumulator that is then folded into
// the partition group, so a float sum does not depend on when or where
// the match is folded. The partition key is the oldest bound event's
// attribute.
func (r *Runner) foldAccepted(chain []*node) {
	plan := r.cfg.agg.plan
	var key event.Value
	if plan.partAttr >= 0 && len(chain) > 0 {
		key = chain[len(chain)-1].ev.Attrs[plan.partAttr]
	}
	vals := append(r.foldVals[:0], make([]aggVal, len(plan.slots))...)
	for j := len(chain) - 1; j >= 0; j-- {
		n := chain[j]
		for s := range plan.slots {
			slot := &plan.slots[s]
			if slot.varIdx == aggNone || (slot.varIdx >= 0 && slot.varIdx != int(n.varIdx)) {
				continue
			}
			contribute(&vals[s], slot, n.ev.Attrs[slot.attr])
		}
	}
	r.cfg.agg.fold(key, vals)
	r.foldVals = vals
}

// contribute folds one event attribute into an accumulator slot. A
// value whose kind does not match the schema-declared slot type is
// skipped (the engine's general schema-drift tolerance; condition
// evaluation surfaces such events via ses_cond_type_mismatch_total).
func contribute(gv *aggVal, slot *aggSlot, v event.Value) {
	if slot.isFloat {
		if v.Kind() != event.KindFloat {
			return
		}
		foldFloat(gv, slot.fn, v.Float64(), 1)
	} else {
		if v.Kind() != event.KindInt {
			return
		}
		foldInt(gv, slot.fn, v.Int64(), 1)
	}
}

// foldFloat merges a float contribution (or a partial aggregate of n
// contributions) into an accumulator. Sums propagate NaN through
// addition; for min/max any NaN contribution makes the result NaN, so
// the outcome is independent of fold order.
func foldFloat(gv *aggVal, fn pattern.AggFunc, f float64, n int64) {
	switch {
	case gv.n == 0:
		gv.f = f
	case fn == pattern.AggSum || fn == pattern.AggAvg:
		gv.f += f
	case f != f || gv.f != gv.f:
		gv.f = math.NaN()
	case fn == pattern.AggMin:
		if f < gv.f {
			gv.f = f
		}
	default: // AggMax
		if f > gv.f {
			gv.f = f
		}
	}
	gv.n += n
}

// foldInt is foldFloat for int64 accumulators (sum overflow wraps).
func foldInt(gv *aggVal, fn pattern.AggFunc, i int64, n int64) {
	switch {
	case gv.n == 0:
		gv.i = i
	case fn == pattern.AggSum || fn == pattern.AggAvg:
		gv.i += i
	case fn == pattern.AggMin:
		if i < gv.i {
			gv.i = i
		}
	default: // AggMax
		if i > gv.i {
			gv.i = i
		}
	}
	gv.n += n
}

// aggGroup is one partition group of an Aggregator.
type aggGroup struct {
	keyEnc string
	key    event.Value // zero Value (null) for the global group
	count  int64       // completed matches
	vals   []aggVal
	ver    uint64 // aggregator version at the group's last fold
}

// Aggregator accumulates the aggregate results of one query. It is
// shared between the runner folding into it (single-goroutine) and
// any number of concurrent readers (Stats); a mutex serializes access.
// The version counter increments once per folded match, so equal
// inputs produce byte-identical stats documents — including across a
// crash, restore and replay.
type Aggregator struct {
	plan *AggPlan

	mu     sync.Mutex
	groups map[string]*aggGroup
	order  []*aggGroup // first-seen order, for deterministic output
	ver    uint64
	notify chan struct{}
	done   bool
	folded bool // folds since the last wake

	folds *obs.Counter // ses_agg_folds_total, when a registry is attached
}

// NewAggregator creates an empty Aggregator for the plan.
func NewAggregator(plan *AggPlan) *Aggregator {
	return &Aggregator{plan: plan, groups: make(map[string]*aggGroup)}
}

// Plan returns the compiled plan the aggregator folds under.
func (ag *Aggregator) Plan() *AggPlan { return ag.plan }

// reset discards all groups and the version counter, for a fresh run
// (Runner.Reset, or a supervised restart replaying from scratch).
func (ag *Aggregator) reset() {
	ag.mu.Lock()
	ag.groups = make(map[string]*aggGroup)
	ag.order = ag.order[:0]
	ag.ver = 0
	ag.wakeLocked()
	ag.mu.Unlock()
}

// wakeLocked wakes Stats followers. Callers hold ag.mu.
func (ag *Aggregator) wakeLocked() {
	if ag.notify != nil {
		close(ag.notify)
		ag.notify = nil
	}
}

// attachMetrics binds the aggregator's observability series, keyed
// like the runner's other series. Idempotent across restarts.
func (ag *Aggregator) attachMetrics(reg *obs.Registry, labels []string) {
	ag.mu.Lock()
	ag.folds = reg.Counter(obs.SeriesName("ses_agg_folds_total", labels...),
		"matches folded into aggregate groups instead of being enumerated")
	ag.mu.Unlock()
	reg.GaugeFunc(obs.SeriesName("ses_agg_groups", labels...),
		"live aggregate partition groups", func() int64 { return int64(ag.NumGroups()) })
}

// fold merges one match's per-slot accumulator (vals, one per
// compiled slot) into the group of partition key, the zero Value
// without a partition. It does not wake Stats followers: the runner
// wakes them once per stepped block.
func (ag *Aggregator) fold(key event.Value, vals []aggVal) {
	ag.mu.Lock()
	keyEnc := ""
	if ag.plan.partAttr >= 0 {
		keyEnc = key.Encode()
	}
	g := ag.groups[keyEnc]
	if g == nil {
		g = &aggGroup{keyEnc: keyEnc, key: key, vals: make([]aggVal, len(ag.plan.slots))}
		ag.groups[keyEnc] = g
		ag.order = append(ag.order, g)
	}
	g.count++
	for s, v := range vals {
		if v.n == 0 {
			continue
		}
		slot := &ag.plan.slots[s]
		if slot.isFloat {
			foldFloat(&g.vals[s], slot.fn, v.f, v.n)
		} else {
			foldInt(&g.vals[s], slot.fn, v.i, v.n)
		}
	}
	ag.ver++
	g.ver = ag.ver
	ag.folded = true
	if ag.folds != nil {
		ag.folds.Inc()
	}
	ag.mu.Unlock()
}

// wake wakes Stats followers if anything was folded since the last
// wake; a runner folding into the aggregator calls it once per stepped
// block.
func (ag *Aggregator) wake() {
	ag.mu.Lock()
	if ag.folded {
		ag.folded = false
		ag.wakeLocked()
	}
	ag.mu.Unlock()
}

// Folds returns the total number of matches folded since the last
// reset (the aggregator's logical version).
func (ag *Aggregator) Folds() uint64 {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	return ag.ver
}

// NumGroups returns the number of live partition groups.
func (ag *Aggregator) NumGroups() int {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	return len(ag.groups)
}

// Close marks the aggregator finished — its query was removed or its
// stream ended — and wakes all Stats followers, whose wait channel
// becomes nil.
func (ag *Aggregator) Close() {
	ag.mu.Lock()
	ag.done = true
	ag.wakeLocked()
	ag.mu.Unlock()
}

// slotValue is the value a group reads as in column or HAVING slot s
// (-1 = count): avg divides its (sum, n) pair, and an empty min, max
// or avg is null.
func (ag *Aggregator) slotValue(g *aggGroup, s int) event.Value {
	if s < 0 {
		return event.Int(g.count)
	}
	slot, v := &ag.plan.slots[s], g.vals[s]
	switch {
	case v.n == 0 && slot.fn != pattern.AggSum:
		return event.Value{}
	case slot.fn == pattern.AggAvg && slot.isFloat:
		return event.Float(v.f / float64(v.n))
	case slot.fn == pattern.AggAvg:
		return event.Float(float64(v.i) / float64(v.n))
	case slot.isFloat:
		return event.Float(v.f)
	default:
		return event.Int(v.i)
	}
}

// havingPass evaluates the compiled HAVING filter on a group. A
// comparison against an unordered value (NaN) or an empty min/max/avg
// fails its conjunct.
func (ag *Aggregator) havingPass(g *aggGroup) bool {
	for i := range ag.plan.having {
		h := &ag.plan.having[i]
		v := ag.slotValue(g, h.slot)
		if v.IsNull() {
			return false
		}
		cmp, err := event.Compare(v, h.c)
		if err != nil || !h.op.Eval(cmp) {
			return false
		}
	}
	return true
}

// Stats renders the aggregate state as a JSON document. since = 0
// returns the full snapshot; a non-zero since returns a delta — only
// the groups folded into after version since, plus the keys of changed
// groups the HAVING filter now excludes — or nil data when nothing
// changed. The returned ver is the document's version (pass it as the
// next since); wait is closed at the next change and is nil once the
// aggregator is closed, ending a follow loop.
//
// Groups appear in first-seen order and the HAVING filter is applied
// at read time, so identical fold histories render byte-identical
// documents — the property the crash-recovery tests pin down.
func (ag *Aggregator) Stats(since uint64) (data []byte, ver uint64, wait <-chan struct{}) {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	if !ag.done {
		if ag.notify == nil {
			ag.notify = make(chan struct{})
		}
		wait = ag.notify
	}
	if since != 0 && ag.ver == since {
		return nil, since, wait
	}
	return ag.render(since, true), ag.ver, wait
}

// render renders the stats document Stats describes; groupVer false
// leaves out the per-group fold versions, which a merged document
// (MergeFoldStats) has no use for. Callers hold ag.mu.
func (ag *Aggregator) render(since uint64, groupVer bool) []byte {
	delta := since != 0 && since < ag.ver
	b := make([]byte, 0, 256)
	b = append(b, `{"ver":`...)
	b = strconv.AppendUint(b, ag.ver, 10)
	b = append(b, `,"aggregates":[`...)
	for i := range ag.plan.cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, ag.plan.cols[i].label)
	}
	b = append(b, ']')
	if ag.plan.partAttr >= 0 {
		b = append(b, `,"partition":`...)
		b = appendJSONString(b, ag.plan.spec.Partition)
	}
	if ag.plan.havingSrc != "" {
		b = append(b, `,"having":`...)
		b = appendJSONString(b, ag.plan.havingSrc)
	}
	if delta {
		b = append(b, `,"delta":true`...)
	}
	b = append(b, `,"groups":[`...)
	var dropped []*aggGroup
	n := 0
	for _, g := range ag.order {
		if delta && g.ver <= since {
			continue
		}
		if !ag.havingPass(g) {
			if delta {
				dropped = append(dropped, g)
			}
			continue
		}
		if n > 0 {
			b = append(b, ',')
		}
		n++
		b = ag.appendGroup(b, g, groupVer)
	}
	b = append(b, ']')
	if len(dropped) > 0 {
		b = append(b, `,"dropped":[`...)
		for i, g := range dropped {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendStatValue(b, g.key)
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	return b
}

// appendGroup renders one group object, with its fold version when
// withVer is set.
func (ag *Aggregator) appendGroup(b []byte, g *aggGroup, withVer bool) []byte {
	b = append(b, `{"key":`...)
	b = appendStatValue(b, g.key)
	if withVer {
		b = append(b, `,"ver":`...)
		b = strconv.AppendUint(b, g.ver, 10)
	}
	b = append(b, `,"values":[`...)
	for i := range ag.plan.cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendStatValue(b, ag.slotValue(g, ag.plan.cols[i].slot))
	}
	b = append(b, `]}`...)
	return b
}

// appendStatValue renders an event value for the stats document. The
// zero (null) value — the global group's key — renders as JSON null;
// non-finite floats render as strings, which plain JSON cannot carry
// as numbers.
func appendStatValue(b []byte, v event.Value) []byte {
	switch v.Kind() {
	case event.KindString:
		return appendJSONString(b, v.Str())
	case event.KindInt:
		return strconv.AppendInt(b, v.Int64(), 10)
	case event.KindFloat:
		return appendStatFloat(b, v.Float64())
	default:
		return append(b, `null`...)
	}
}

// appendStatFloat renders a float like encoding/json where possible
// and as the strings "NaN", "+Inf" or "-Inf" where JSON has no number
// for it.
func appendStatFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return appendJSONString(b, strconv.FormatFloat(f, 'g', -1, 64))
	}
	b, _ = appendJSONFloat(b, f)
	return b
}

// WithAggregation attaches an Aggregator: every completed match is
// additionally folded into its partition group at the moment it is
// emitted (window expiry, end-of-input flush, or acceptance under
// WithEmitOnAccept). The aggregator must come from a plan compiled
// against the runner's automaton, must not be shared between
// concurrently running executors, and is reset by New and
// Runner.Reset — a supervised restart replays into clean state.
func WithAggregation(ag *Aggregator) Option { return func(c *config) { c.agg = ag } }

// WithAggregateOnly suppresses match materialization: accepted
// instances are folded into the aggregator and counted in the Matches
// metric, but no Match values are built or returned, skipping the
// per-match buildMatch/encode/append cost entirely — the
// enumeration-free path for aggregate-only queries. Requires
// WithAggregation (it is ignored without one); the TraceMatch hook
// does not fire for folded-only matches.
func WithAggregateOnly(on bool) Option { return func(c *config) { c.aggOnly = on } }
