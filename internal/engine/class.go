package engine

import (
	"math"
	"slices"

	"repro/internal/automaton"
	"repro/internal/event"
)

// class is a set of interchangeable automaton instances (qc, β) of
// Definition 4: they agree on the state, the first bound event (so
// minT), maxT, prevSetsMax and the values of every bound singleton
// (var, attr) a condition can still read, so they fire, expire and
// accept together. Their buffers are the paths of head; mult counts
// them, saturating at math.MaxInt64.
type class struct {
	state, curSet           int32
	vals                    int32 // offset of the key values in Runner.vals
	head, tail              *node // tail ends head's alt chain in the step that made it
	first                   int   // Seq of the oldest binding
	minT, maxT, prevSetsMax event.Time
	mult                    int64
}

// satAdd is a+b for instance counts, saturating at math.MaxInt64.
func satAdd(a, b int64) int64 {
	if b > 0 && a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// slot is one (var, attr) a condition reads from another binding.
type slot struct{ v, attr int }

// keyPlan says, per automaton state, which values a class key holds.
// unique marks the states from which a condition can still read a
// bound group variable: their classes never merge, so every path of one
// shares all bindings of that variable.
type keyPlan struct {
	slots  [][]slot // the bound singleton (var, attr) pairs a condition can still read
	unique []bool
}

func newKeyPlan(a *automaton.Automaton) *keyPlan {
	// all lists every (var, attr) a condition reads from another
	// binding; reads[q*k+i] marks all[i] as read from state q on.
	var all []slot
	for q := range a.Out {
		for _, t := range a.Out[q] {
			for _, c := range t.Conds {
				if s := (slot{c.OtherVar, c.OtherAttr}); c.OtherVar >= 0 && !c.SelfOnly && !slices.Contains(all, s) {
					all = append(all, s)
				}
			}
		}
	}
	n, k := len(a.States), len(all)
	reads, seen := make([]bool, n*k), make([]bool, n)
	var visit func(q int)
	visit = func(q int) {
		if seen[q] {
			return
		}
		seen[q] = true
		for _, t := range a.Out[q] {
			for _, c := range t.Conds {
				if c.OtherVar >= 0 && !c.SelfOnly {
					reads[q*k+slices.Index(all, slot{c.OtherVar, c.OtherAttr})] = true
				}
			}
			if t.Target != q { // states only grow: no other cycle
				visit(t.Target)
				for i := range k {
					reads[q*k+i] = reads[q*k+i] || reads[t.Target*k+i]
				}
			}
		}
	}
	p := &keyPlan{slots: make([][]slot, n), unique: make([]bool, n)}
	flat := make([]slot, 0, n*k)
	for q := range a.States {
		visit(q)
		from := len(flat)
		for i, s := range all {
			switch {
			case !reads[q*k+i] || !a.States[q].Vars.Has(s.v):
			case a.Vars[s.v].Group:
				p.unique[q] = true
			default:
				flat = append(flat, s)
			}
		}
		p.slots[q] = flat[from:len(flat):len(flat)]
	}
	return p
}

// consumeClass is Algorithm 1's window check and Algorithm 2 for every
// instance of c at once: each outgoing transition is tried once.
func (r *Runner) consumeClass(c *class, e *event.Event) {
	r.metrics.InstanceIterations = satAdd(r.metrics.InstanceIterations, c.mult)
	if c.head != nil && event.Duration(e.Time-c.minT) > r.a.Within {
		// Expired: the span from the earliest binding to e exceeds τ.
		r.metrics.ExpiredInstances = satAdd(r.metrics.ExpiredInstances, c.mult)
		r.traceClass(TraceExpire, e, c)
		if int(c.state) == r.a.Accept {
			r.emits = append(r.emits, *c)
		}
		return
	}
	fired := false
	for ti := range r.a.Out[c.state] {
		t := &r.a.Out[c.state][ti]
		r.metrics.TransitionsAttempted = satAdd(r.metrics.TransitionsAttempted, c.mult)
		if !r.eval(t, c, e) {
			continue
		}
		fired = true
		r.metrics.TransitionsFired = satAdd(r.metrics.TransitionsFired, c.mult)
		r.metrics.InstancesCreated = satAdd(r.metrics.InstancesCreated, c.mult)
		r.fire(c, t, e)
	}
	// Without a fired transition the event is skipped: the start class
	// dies, all others wait (skip-till-next-match). SkipTillAny also
	// keeps a class that fired.
	if int(c.state) != r.a.Start && (!fired || r.cfg.strategy == SkipTillAny) {
		k := *c
		k.vals = int32(len(r.nextVals))
		r.nextVals = append(r.nextVals, r.vals[c.vals:int(c.vals)+len(r.plan.slots[c.state])]...)
		r.next = append(r.next, k)
	}
}

// fire adds one node for transition t on class c. Under WithEmitOnAccept
// an accepting child is emitted; otherwise it joins this step's child of
// the same first event and key through alt, if there is one.
func (r *Runner) fire(c *class, t *automaton.Transition, e *event.Event) {
	n := r.arena.new(int32(t.Var), e, c.head)
	k := class{state: int32(t.Target), head: n, tail: n, first: c.first,
		minT: c.minT, maxT: e.Time, mult: c.mult}
	vset := int32(r.a.Vars[t.Var].Set)
	switch {
	case c.head == nil:
		k.first, k.minT, k.curSet, k.prevSetsMax = e.Seq, e.Time, vset, noTime
	case vset > c.curSet:
		k.curSet, k.prevSetsMax = vset, c.maxT
	default:
		k.curSet, k.prevSetsMax = c.curSet, c.prevSetsMax
	}
	if r.cfg.trace != nil {
		r.eachPath(n, func(p []*node) bool {
			r.cfg.trace(TraceStep{Kind: TraceTransition, Event: e, FromState: int(c.state),
				ToState: t.Target, Var: t.Var, Loop: t.Loop, Buffer: r.bufferString(p)})
			return true
		})
	}
	if r.cfg.emitOnAccept && t.Target == r.a.Accept {
		r.emits = append(r.emits, k)
		return
	}
	k.vals = int32(len(r.nextVals))
	slots := r.plan.slots[t.Target]
	for _, s := range slots {
		if s.v == t.Var {
			r.nextVals = append(r.nextVals, e.Attrs[s.attr])
		} else { // a slot of the source state too: its reads include the target's
			r.nextVals = append(r.nextVals, r.vals[int(c.vals)+slices.Index(r.plan.slots[c.state], s)])
		}
	}
	if !r.plan.unique[t.Target] {
		if o := r.kids; len(o) > 0 && (r.next[o[0]].first != k.first || r.next[o[0]].minT != k.minT) {
			r.kids = r.kids[:0]
		}
		for _, i := range r.kids {
			if o := &r.next[i]; o.state == k.state && o.prevSetsMax == k.prevSetsMax &&
				slices.Equal(r.nextVals[o.vals:int(o.vals)+len(slots)], r.nextVals[k.vals:]) {
				o.tail.alt, o.tail = n, n
				o.mult = satAdd(o.mult, k.mult)
				r.nextVals = r.nextVals[:k.vals]
				return
			}
		}
		r.kids = append(r.kids, int32(len(r.next)))
	}
	r.next = append(r.next, k)
}

// eval checks a transition's conditions plus the structural inter-set
// time constraint for binding event e on the instances of c.
func (r *Runner) eval(t *automaton.Transition, c *class, e *event.Event) bool {
	// Concatenation constraint (Section 4.2.2): every event bound to a
	// variable of event set pattern Vj must occur strictly after all
	// events bound to variables of V1..V(j-1).
	if vset := int32(r.a.Vars[t.Var].Set); vset > 0 && c.head != nil {
		prevMax := c.prevSetsMax
		if vset > c.curSet {
			prevMax = c.maxT
		}
		if prevMax != noTime && e.Time <= prevMax {
			return false
		}
	}
	for ci := range t.Conds {
		cc := &t.Conds[ci]
		var oc event.PredOutcome
		switch {
		case cc.OtherVar < 0:
			oc = cc.OutcomeConst(e)
		case cc.SelfOnly:
			// v.A φ v.A': per the decomposition semantics each
			// decomposed substitution holds one binding per variable,
			// so the condition relates attributes of the same event.
			oc = cc.Outcome2(e.Attrs[cc.BindAttr], e.Attrs[cc.OtherAttr])
		default:
			if s := slices.Index(r.plan.slots[c.state], slot{cc.OtherVar, cc.OtherAttr}); s >= 0 {
				oc = cc.Outcome2(e.Attrs[cc.BindAttr], r.vals[int(c.vals)+s])
				break
			}
			// The new event must satisfy the condition against every
			// binding of a group variable. The class has not merged
			// since the variable was first bound (keyPlan.unique), so
			// the first alternative at each node reaches all of them.
			oc = event.PredPass
			for n := c.head; n != nil && oc == event.PredPass; n = n.prev {
				if int(n.varIdx) == cc.OtherVar {
					oc = cc.Outcome2(e.Attrs[cc.BindAttr], n.ev.Attrs[cc.OtherAttr])
				}
			}
		}
		if oc != event.PredPass {
			r.noteOutcome(oc, t, cc, c, e)
			return false
		}
	}
	return true
}

// noteOutcome records a failed compiled predicate: incomparable kinds
// (schema drift) bump CondTypeMismatches and surface in instance
// tracing rather than pass for an ordinary data-dependent miss.
func (r *Runner) noteOutcome(oc event.PredOutcome, t *automaton.Transition, cc *automaton.CondCheck, c *class, e *event.Event) {
	if oc != event.PredMismatch {
		return
	}
	r.metrics.CondTypeMismatches = satAdd(r.metrics.CondTypeMismatches, c.mult)
	if r.mismatches != nil {
		r.mismatches.Add(c.mult)
	}
	for i := int64(0); r.cfg.trace != nil && i < c.mult; i++ {
		r.cfg.trace(TraceStep{Kind: TraceCondMismatch, Event: e, FromState: int(c.state),
			ToState: t.Target, Var: t.Var, Buffer: cc.Source.String()})
	}
}

// eachPath calls f, until it returns false, with every path of head,
// newest binding first: for each node on head's alt chain in turn, that
// node followed by each path of its prev. f must not keep the slice.
func (r *Runner) eachPath(head *node, f func(path []*node) bool) {
	p := r.path[:0]
	for n := head; n != nil; n = n.prev {
		p = append(p, n)
	}
	for f(p) {
		i := len(p) - 1
		for i >= 0 && p[i].alt == nil {
			i--
		}
		if i < 0 {
			break
		}
		n := p[i].alt
		for p = p[:i]; n != nil; n = n.prev {
			p = append(p, n)
		}
	}
	clear(p) // the scratch must not keep retired chunks reachable
	r.path = p[:0]
}

// traceClass reports an expiry or a shed of each instance of c.
func (r *Runner) traceClass(kind TraceKind, e *event.Event, c *class) {
	if r.cfg.trace != nil {
		r.eachPath(c.head, func(p []*node) bool { return r.tracePath(kind, e, c, p) })
	}
}

func (r *Runner) tracePath(kind TraceKind, e *event.Event, c *class, p []*node) bool {
	r.cfg.trace(TraceStep{Kind: kind, Event: e, FromState: int(c.state), ToState: int(c.state),
		Var: -1, Buffer: r.bufferString(p)})
	return true
}

// recount sets live to the classes' multiplicities summed.
func (r *Runner) recount() {
	r.live = 0
	for i := range r.classes {
		r.live = satAdd(r.live, r.classes[i].mult)
	}
}

// evictOldest sheds the n instances whose start time is oldest, for the
// DropOldest policy. The classes are in start order: whole classes go
// from the front, and the boundary class keeps its first paths, each as
// a class of its own.
func (r *Runner) evictOldest(n int64) {
	r.metrics.InstancesShed = satAdd(r.metrics.InstancesShed, n)
	i := 0
	for ; n > 0 && r.classes[i].mult <= n; i++ {
		n -= r.classes[i].mult
		r.traceClass(TraceShed, nil, &r.classes[i])
	}
	var split []class
	if n > 0 {
		c := r.classes[i]
		i++
		r.eachPath(c.head, func(p []*node) bool {
			if int64(len(split)) == c.mult-n {
				return r.tracePath(TraceShed, nil, &c, p)
			}
			var h *node
			for j := len(p) - 1; j >= 0; j-- {
				h = &node{varIdx: p[j].varIdx, ev: p[j].ev, prev: h}
			}
			k := c
			k.head, k.tail, k.mult = h, h, 1
			split = append(split, k)
			return int64(len(split)) < c.mult-n || r.cfg.trace != nil
		})
	}
	kept := append(split, r.classes[i:]...)
	clear(r.classes)
	r.classes = append(r.classes[:0], kept...)
	r.recount()
}
