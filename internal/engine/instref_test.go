package engine

// The instance-at-a-time engine that the class runner replaced, kept as
// a second reference next to the Definition-2 oracle in the repository
// root's tests: Algorithm 1's loop visits every live instance for every
// unfiltered event, and Algorithm 2 runs once per instance. It borrows
// a Runner for its options, metrics, node arena and match building, and
// shares nothing else with the class runner.

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/automaton"
	"repro/internal/event"
)

// instance is an automaton instance (qc, β) of Definition 4, extended
// with cached aggregates used by the expiry check and the inter-set
// time constraints of the concatenation (Section 4.2.2). Its buffer is
// a chain through prev; alt is never set.
type instance struct {
	state       int32
	curSet      int32      // highest event set pattern with a binding
	buf         *node      // match buffer β; nil in the start state
	minT        event.Time // earliest bound event time (minT(β))
	maxT        event.Time // latest bound event time
	prevSetsMax event.Time // max event time over sets < curSet
}

// instRef runs one automaton an instance at a time, keyed like a
// WithPartitionKey Runner when the options ask for it.
type instRef struct {
	*Runner
	insts, scratch []instance
	stepMatches    []Match
	chain          []*node
	subs           map[event.Value]*instRef
}

func newInstRef(a *automaton.Automaton, opts ...Option) *instRef {
	return &instRef{Runner: New(a, opts...), subs: map[event.Value]*instRef{}}
}

func (r *instRef) Step(e *event.Event) ([]Match, error) {
	return r.StepBlock(event.Block{Events: unsafe.Slice(e, 1)})
}

func (r *instRef) StepBlock(blk event.Block) ([]Match, error) {
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

func (r *instRef) stepInto(e *event.Event, matches []Match) ([]Match, error) {
	if r.done {
		return matches, fmt.Errorf("engine: Step after Flush")
	}
	if e.Time < r.clock {
		return matches, fmt.Errorf("engine: out-of-order event at time %d after %d", e.Time, r.clock)
	}
	r.clock = e.Time
	if k := r.keyed; k != nil {
		if k.err != nil {
			return matches, k.err
		}
		key := e.Attrs[k.attr]
		s := r.subs[key]
		if s == nil {
			cfg := r.cfg
			cfg.partitionKey = ""
			s = &instRef{Runner: &Runner{a: r.a, cfg: cfg, plan: r.plan, clock: noTime, mismatches: r.mismatches}}
			r.subs[key] = s
			k.keys = append(k.keys, key)
		}
		before := s.metrics
		matches, err := s.stepInto(e, matches)
		r.metrics.account(before, s.metrics)
		return matches, err
	}
	matches, err := r.consumeEvent(e, matches)
	r.arena.retire(e.Time, r.a.Within)
	return matches, err
}

func (r *instRef) Flush() []Match {
	if r.done {
		return nil
	}
	r.done = true
	var matches []Match
	if r.keyed != nil {
		for _, key := range r.keyed.keys {
			s := r.subs[key]
			before := s.metrics
			matches = append(matches, s.Flush()...)
			r.metrics.account(before, s.metrics)
		}
	} else {
		for i := range r.insts {
			if int(r.insts[i].state) == r.a.Accept {
				matches = r.emitAccepted(&r.insts[i], matches)
			}
		}
		r.metrics.Matches += int64(len(matches))
		r.insts = r.insts[:0]
	}
	if r.cfg.agg != nil {
		r.cfg.agg.wake()
	}
	return matches
}

func (r *instRef) ActiveInstances() int {
	n := len(r.insts)
	for _, s := range r.subs {
		n += len(s.insts)
	}
	return n
}

// consumeEvent is Algorithm 1's loop body for one event: filter, window
// expiry, overload policy, the fresh start instance and Algorithm 2 for
// every instance.
func (r *instRef) consumeEvent(e *event.Event, matches []Match) ([]Match, error) {
	r.metrics.EventsProcessed++
	if r.cfg.filter && !r.a.PassesFilter(e) {
		r.metrics.EventsFiltered++
		if len(r.insts) > 0 && event.Duration(e.Time-r.insts[0].minT) > r.a.Within {
			pre := len(matches)
			matches = r.expire(e.Time, matches)
			r.metrics.Matches += int64(len(matches) - pre)
		}
		return matches, nil
	}

	limit := r.cfg.maxInstances
	base := len(matches)
	if limit > 0 && r.cfg.policy == RejectNew && len(r.insts) >= limit {
		matches = r.expire(e.Time, matches)
		if len(r.insts) >= limit {
			r.metrics.EventsRejected++
			r.metrics.DegradedSteps++
			r.metrics.Matches += int64(len(matches) - base)
			return matches, nil
		}
	}
	shed := false
	if limit > 0 && r.cfg.policy == ShedStartStates {
		low := r.cfg.shedLowWater
		if low <= 0 || low > limit {
			low = max(1, limit/2)
		}
		if len(r.insts) >= limit {
			r.shedding = true
		} else if r.shedding && len(r.insts) < low {
			r.shedding = false
		}
		shed = r.shedding
	}
	if shed {
		r.metrics.InstancesShed++
		r.metrics.DegradedSteps++
	} else {
		r.metrics.StartInstances++
	}
	omega := int64(len(r.insts))
	if !shed {
		omega++
	}
	r.metrics.MaxSimultaneousInstances = max(r.metrics.MaxSimultaneousInstances, omega)

	out := r.scratch[:0]
	consumeAll := func(inst *instance) {
		r.metrics.InstanceIterations++
		if inst.buf != nil && event.Duration(e.Time-inst.minT) > r.a.Within {
			r.metrics.ExpiredInstances++
			if int(inst.state) == r.a.Accept {
				matches = r.emitAccepted(inst, matches)
			}
			return
		}
		out = r.consume(inst, e, out)
	}
	for i := range r.insts {
		consumeAll(&r.insts[i])
	}
	if !shed {
		consumeAll(&instance{state: int32(r.a.Start), minT: noTime, maxT: noTime, prevSetsMax: noTime})
	}
	matches = append(matches, r.stepMatches...)
	r.stepMatches = r.stepMatches[:0]

	r.insts, r.scratch = out, r.insts
	if limit > 0 && len(r.insts) > limit {
		switch r.cfg.policy {
		case DropOldest:
			r.evictOldest(len(r.insts) - limit)
			r.metrics.DegradedSteps++
		case Fail:
			return matches[:base], fmt.Errorf("engine: %d simultaneous automaton instances exceed the cap of %d",
				len(r.insts), limit)
		}
	}
	r.metrics.Matches += int64(len(matches) - base)
	return matches, nil
}

// emitAccepted folds and, unless aggregate-only, builds the match of an
// instance that completed in the accepting state.
func (r *instRef) emitAccepted(inst *instance, matches []Match) []Match {
	path := r.chain[:0]
	for n := inst.buf; n != nil; n = n.prev {
		path = append(path, n)
	}
	if r.cfg.agg != nil {
		r.foldAccepted(path)
	}
	if r.cfg.aggOnly {
		r.metrics.Matches++
	} else {
		matches = append(matches, r.buildMatch(path, inst.minT, inst.maxT))
	}
	clear(path)
	r.chain = path
	return matches
}

// expire removes every instance whose window has lapsed as of now.
func (r *instRef) expire(now event.Time, matches []Match) []Match {
	kept := r.insts[:0]
	for i := range r.insts {
		inst := &r.insts[i]
		if inst.buf != nil && event.Duration(now-inst.minT) > r.a.Within {
			r.metrics.ExpiredInstances++
			if int(inst.state) == r.a.Accept {
				matches = r.emitAccepted(inst, matches)
			}
			continue
		}
		kept = append(kept, r.insts[i])
	}
	r.insts = kept
	return matches
}

// evictOldest sheds the n instances whose start time is oldest, ties
// broken by instance order.
func (r *instRef) evictOldest(n int) {
	idx := make([]int, len(r.insts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r.insts[idx[a]].minT < r.insts[idx[b]].minT })
	doomed := make([]bool, len(r.insts))
	for _, i := range idx[:n] {
		doomed[i] = true
	}
	kept := r.insts[:0]
	for i := range r.insts {
		if !doomed[i] {
			kept = append(kept, r.insts[i])
		}
	}
	r.insts = kept
	r.metrics.InstancesShed += int64(n)
}

// consume implements Algorithm 2 for one instance: it tries every
// outgoing transition of the instance's current state against e and
// appends the resulting instances to out, which it returns.
func (r *instRef) consume(inst *instance, e *event.Event, out []instance) []instance {
	fired := 0
	for ti := range r.a.Out[inst.state] {
		t := &r.a.Out[inst.state][ti]
		r.metrics.TransitionsAttempted++
		if !r.eval(t, inst, e) {
			continue
		}
		fired++
		r.metrics.TransitionsFired++
		r.metrics.InstancesCreated++
		child := instance{
			state: int32(t.Target),
			buf:   r.arena.new(int32(t.Var), e, inst.buf),
			minT:  inst.minT,
			maxT:  max(inst.maxT, e.Time),
		}
		if child.minT == noTime {
			child.minT = e.Time
		}
		vset := int32(r.a.Vars[t.Var].Set)
		if inst.buf == nil {
			child.curSet, child.prevSetsMax = vset, noTime
		} else if vset > inst.curSet {
			child.curSet, child.prevSetsMax = vset, inst.maxT
		} else {
			child.curSet, child.prevSetsMax = inst.curSet, inst.prevSetsMax
		}
		if r.cfg.emitOnAccept && t.Target == r.a.Accept {
			r.stepMatches = r.emitAccepted(&child, r.stepMatches)
			continue
		}
		out = append(out, child)
	}
	if int(inst.state) != r.a.Start && (fired == 0 || r.cfg.strategy == SkipTillAny) {
		out = append(out, *inst)
	}
	return out
}

// eval checks a transition's conditions plus the structural inter-set
// time constraint for binding event e on instance inst.
func (r *instRef) eval(t *automaton.Transition, inst *instance, e *event.Event) bool {
	if vset := int32(r.a.Vars[t.Var].Set); vset > 0 && inst.buf != nil {
		prevMax := inst.prevSetsMax
		if vset > inst.curSet {
			prevMax = inst.maxT
		}
		if prevMax != noTime && e.Time <= prevMax {
			return false
		}
	}
	for ci := range t.Conds {
		c := &t.Conds[ci]
		oc := event.PredPass
		switch {
		case c.OtherVar < 0:
			oc = c.OutcomeConst(e)
		case c.SelfOnly:
			oc = c.Outcome2(e.Attrs[c.BindAttr], e.Attrs[c.OtherAttr])
		default:
			// The new event must satisfy the condition against every
			// existing binding of the other variable.
			for n := inst.buf; n != nil && oc == event.PredPass; n = n.prev {
				if int(n.varIdx) == c.OtherVar {
					oc = c.Outcome2(e.Attrs[c.BindAttr], n.ev.Attrs[c.OtherAttr])
				}
			}
		}
		if oc != event.PredPass {
			if oc == event.PredMismatch {
				r.metrics.CondTypeMismatches++
			}
			return false
		}
	}
	return true
}

// TestClassRunnerIsInstanceRunner holds the class runner to the
// instance loop it replaced: on random patterns over adversarial
// streams (ties, NaN/±Inf, kind drift), the group pattern over the
// overlapping chemo stream and the keyed A-B pattern, stepped event by
// event and in blocks, under SkipTillAny, WithEmitOnAccept and every
// overload policy, both emit the same multiset of match lines and read
// the same Metrics, field by field. SkipTillAny runs under Fail,
// RejectNew and DropOldest only: uncapped or shedding only new starts,
// its instance set explodes and the instance loop would not finish.
//
// DropOldest is the exception. The instance loop evicts the first
// instances of its list, whose order interleaves classes (a class's
// children on two transitions alternate in it); the class runner evicts
// whole classes and then the boundary class's last paths. The two agree
// exactly up to and including the first step that evicts, with the
// same evicted count there. After it they keep different instances, in
// different states, so later counts may differ; both still hold the cap
// after every step and emit only matches of the uncapped run.
func TestClassRunnerIsInstanceRunner(t *testing.T) {
	type input struct {
		name string
		a    *automaton.Automaton
		evs  []event.Event
		key  string
		cap  int
	}
	schema, chemo := overlapStream(t, 12)
	keyedA, keyedRel := compileSharded(t)
	inputs := []input{
		{name: "group", a: compile(t, groupPattern(), schema), evs: chemo, cap: 200},
		{name: "keyed", a: keyedA, evs: keyedRel.Events(), key: "ID", cap: 1},
	}
	for trial := 0; len(inputs) < 42; trial++ {
		rng := rand.New(rand.NewSource(int64(9100 + trial)))
		p := randIdentityPattern(rng)
		if p == nil {
			continue
		}
		a, err := automaton.Compile(p, simpleSchema())
		if err != nil {
			continue
		}
		inputs = append(inputs, input{name: fmt.Sprintf("random-%d", trial), a: a,
			evs: randIdentityEvents(rng, 100+rng.Intn(150)), cap: 2 + rng.Intn(8)})
	}

	type stepper interface {
		StepBlock(event.Block) ([]Match, error)
		Flush() []Match
		Metrics() Metrics
	}
	run := func(r stepper, a *automaton.Automaton, evs []event.Event, block int) ([]string, Metrics, string) {
		var lines []string
		for lo := 0; lo < len(evs); lo += block {
			ms, err := r.StepBlock(event.Block{Events: evs[lo:min(lo+block, len(evs))]})
			lines = append(lines, jsonLines(ms, a.Schema)...)
			if err != nil {
				slices.Sort(lines)
				return lines, r.Metrics(), err.Error()
			}
		}
		lines = append(lines, jsonLines(r.Flush(), a.Schema)...)
		slices.Sort(lines)
		return lines, r.Metrics(), ""
	}
	for _, in := range inputs {
		for _, mode := range []struct {
			name string
			opt  Option
		}{{"next", WithStrategy(SkipTillNext)}, {"any", WithStrategy(SkipTillAny)}, {"on-accept", WithEmitOnAccept(true)}} {
			for pol := Fail; pol <= ShedStartStates+1; pol++ {
				if mode.name == "any" && pol >= ShedStartStates {
					continue
				}
				opts := []Option{WithFilter(in.key == ""), mode.opt}
				if in.key != "" {
					opts = append(opts, WithPartitionKey(in.key))
				}
				name := fmt.Sprintf("%s/%s/cap=%d/%s", in.name, mode.name, in.cap, pol)
				if pol == DropOldest {
					dropOldestAgrees(t, name, in.a, in.evs, in.cap, opts, mode.name != "any")
					continue
				}
				if pol <= ShedStartStates {
					opts = append(opts, WithMaxInstances(in.cap), WithOverloadPolicy(pol))
				} else {
					name = fmt.Sprintf("%s/%s/uncapped", in.name, mode.name)
				}
				for _, block := range []int{1, 7} {
					name := fmt.Sprintf("%s/block=%d", name, block)
					want, wantM, wantErr := run(newInstRef(in.a, opts...), in.a, in.evs, block)
					got, gotM, gotErr := run(New(in.a, opts...), in.a, in.evs, block)
					switch {
					case gotErr != wantErr:
						t.Fatalf("%s: error %q, instance loop %q", name, gotErr, wantErr)
					case !slices.Equal(got, want):
						t.Fatalf("%s: match multisets differ\nclasses:   %q\ninstances: %q", name, got, want)
					case gotM != wantM:
						t.Fatalf("%s: Metrics differ\nclasses:   %+v\ninstances: %+v", name, gotM, wantM)
					}
				}
			}
		}
	}
}

// dropOldestAgrees steps evs under DropOldest on both runners: they
// agree exactly through the first evicting step and both hold the cap
// after every step. With subset, which SkipTillAny's exploding uncapped
// run cannot afford, each emits a sub-multiset of the matches of an
// uncapped class runner.
func dropOldestAgrees(t *testing.T, name string, a *automaton.Automaton, evs []event.Event, limit int, opts []Option, subset bool) {
	t.Helper()
	capped := append(slices.Clip(opts), WithMaxInstances(limit), WithOverloadPolicy(DropOldest))
	ref, cls, free := newInstRef(a, capped...), New(a, capped...), New(a, opts...)
	uncapped := map[string]int{}
	var refOut, clsOut []string
	agreeing := true
	for i := range evs {
		if subset {
			ms, err := free.Step(&evs[i])
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				uncapped[m.String()]++
			}
		}
		want, wantErr := ref.Step(&evs[i])
		got, gotErr := cls.Step(&evs[i])
		if wantErr != nil || gotErr != nil {
			t.Fatalf("%s: step %d: errors %v and %v", name, i, gotErr, wantErr)
		}
		refOut, clsOut = append(refOut, matchStrings(want)...), append(clsOut, matchStrings(got)...)
		if agreeing {
			if g, w := cls.Metrics(), ref.Metrics(); g != w || !sameMatchSet(got, want) {
				t.Fatalf("%s: step %d, before the instance sets may part: Metrics %+v, instance loop %+v", name, i, g, w)
			}
			agreeing = ref.Metrics().InstancesShed == 0
		}
		// A keyed runner caps each key.
		if n, m, keys := ref.ActiveInstances(), cls.ActiveInstances(), max(1, len(ref.subs)); n > limit*keys || m > limit*keys {
			t.Fatalf("%s: step %d: %d and %d live instances over the cap %d", name, i, m, n, limit)
		}
	}
	refOut, clsOut = append(refOut, matchStrings(ref.Flush())...), append(clsOut, matchStrings(cls.Flush())...)
	if !subset {
		return
	}
	for _, m := range free.Flush() {
		uncapped[m.String()]++
	}
	for side, out := range map[string][]string{"instance loop": refOut, "classes": clsOut} {
		left := maps.Clone(uncapped)
		for _, m := range out {
			if left[m]--; left[m] < 0 {
				t.Fatalf("%s: the %s emits %s more often than the uncapped run", name, side, m)
			}
		}
	}
}
