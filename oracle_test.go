package ses_test

// The Definition-2 oracle: a brute-force evaluator of the paper's
// match semantics, written from the definition and nothing else. It
// imports only the standard library, internal/event and
// internal/pattern (TestOracleIsIndependent holds it to that), so the
// engine can be judged by code that shares none of its automaton,
// instances, predicates or buffers.
//
// A substitution β gives each variable a set of events: exactly one for
// v, at least one for v+, at most one for v?, any number for v*. Each
// event goes to at most one variable. β is a match when
//
//  1. every condition holds on every tuple of bound operands, compared
//     with event.Compare; an error (kind drift) or a NaN fails it;
//     v.A φ v.A' relates attributes of one event; a condition on an
//     unbound optional variable holds;
//  2. every event of Vi is strictly earlier in time than every event
//     of Vj, for i < j;
//  3. the last bound time minus the first is at most τ;
//  4. no event is left unbound that β had to take: an event e after
//     β's first binding in stream order, with e.T − first ≤ τ, must be
//     bound if some variable v can take it given β's bindings before e
//     (see mustTake);
//  5. no other β′ satisfying 1–4 with the same first time has
//     β ⊊ β′, as sets of (variable, event) pairs.
//
// The enumeration walks the stream from every start event and tries
// every variable for every event within τ of it, which is condition 3.
// It prunes a branch only when the branch already violates 1, 2 or 4:
// adding bindings never repairs a failed condition or order, and
// condition 4 for an event depends only on the bindings before it,
// which are fixed once the walk has passed it. It is exponential in
// the window, which is why its streams hold at most a dozen events.

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/pattern"
)

// definition2 returns every match Definition 2 admits for p over evs,
// which must be in non-decreasing time order, rendered like
// engine.Match.String ("{x/e0, y+/e2, y+/e3}"), in no particular order.
func definition2(p *pattern.Pattern, schema *event.Schema, evs []event.Event) []string {
	o := newOracle(p, schema, evs)
	var found []candidate
	for s := range evs {
		o.walk(s, s, &found)
	}
	var out []string
	for _, c := range found {
		if maximal(c, found) {
			out = append(out, o.render(c.b))
		}
	}
	return out
}

// substitution is β: for each variable, in pattern order, the stream
// positions of the events bound to it, ascending.
type substitution [][]int

// candidate is a β that satisfies conditions 1–4, with the time of its
// first binding.
type candidate struct {
	first event.Time
	b     substitution
}

// oracle holds a pattern flattened for evaluation over one stream.
type oracle struct {
	p    *pattern.Pattern
	evs  []event.Event
	vars []pattern.Variable // in set order
	set  []int              // event set pattern index of each variable
	idx  map[string]int     // variable name → position in vars
	attr map[string]int     // attribute name → position in Event.Attrs
	cur  substitution       // the walk's partial β
}

func newOracle(p *pattern.Pattern, schema *event.Schema, evs []event.Event) *oracle {
	o := &oracle{p: p, evs: evs, idx: map[string]int{}, attr: map[string]int{}}
	for si, vs := range p.Sets {
		for _, v := range vs {
			o.idx[v.Name] = len(o.vars)
			o.vars = append(o.vars, v)
			o.set = append(o.set, si)
		}
	}
	for i := 0; i < schema.NumFields(); i++ {
		o.attr[schema.Field(i).Name] = i
	}
	o.cur = make(substitution, len(o.vars))
	return o
}

// walk decides the event at position i for the partial β whose first
// binding is the event at position s, and recurses; at the end of the
// window it records β if every required variable is bound.
func (o *oracle) walk(s, i int, found *[]candidate) {
	if i == len(o.evs) || event.Duration(o.evs[i].Time-o.evs[s].Time) > o.p.Window {
		if o.complete() {
			*found = append(*found, candidate{o.evs[s].Time, o.clone()})
		}
		return
	}
	for v := range o.vars {
		if !o.vars[v].Group && len(o.cur[v]) > 0 {
			continue // v and v? bind at most one event
		}
		o.cur[v] = append(o.cur[v], i)
		if o.holds12() {
			o.walk(s, i+1, found)
		}
		o.cur[v] = o.cur[v][:len(o.cur[v])-1]
	}
	// β's first binding is s; a later event may stay unbound only if
	// no variable could take it (condition 4).
	if i > s && !o.mustTake(i) {
		o.walk(s, i+1, found)
	}
}

// complete reports whether every required variable is bound.
func (o *oracle) complete() bool {
	for v, vr := range o.vars {
		if !vr.Optional && len(o.cur[v]) == 0 {
			return false
		}
	}
	return true
}

// holds12 checks conditions 1 and 2 on the partial β.
func (o *oracle) holds12() bool {
	for _, c := range o.p.Conds {
		if !o.holds(c) {
			return false
		}
	}
	for v := range o.vars {
		for w := range o.vars {
			for _, i := range o.cur[v] {
				for _, j := range o.cur[w] {
					if o.set[v] < o.set[w] && o.evs[i].Time >= o.evs[j].Time {
						return false
					}
				}
			}
		}
	}
	return true
}

// holds evaluates condition c on every tuple of bound operands; it
// holds vacuously while an operand variable is unbound.
func (o *oracle) holds(c pattern.Condition) bool {
	left := o.cur[o.idx[c.Left.Var]]
	la := o.attr[c.Left.Attr]
	test := func(a, b event.Value) bool {
		cmp, err := event.Compare(a, b)
		return err == nil && c.Op.Eval(cmp)
	}
	for _, i := range left {
		l := o.evs[i].Attrs[la]
		switch {
		case c.HasConst:
			if !test(l, c.Const) {
				return false
			}
		case c.Right.Var == c.Left.Var:
			if !test(l, o.evs[i].Attrs[o.attr[c.Right.Attr]]) {
				return false
			}
		default:
			ra := o.attr[c.Right.Attr]
			for _, j := range o.cur[o.idx[c.Right.Var]] {
				if !test(l, o.evs[j].Attrs[ra]) {
					return false
				}
			}
		}
	}
	return true
}

// mustTake reports whether the event at position i is bindable given
// the partial β, which holds exactly β's bindings before it: some
// variable v can take it when
//   - v is not an already-bound singleton (v or v?);
//   - no variable of a later set is bound;
//   - every required variable of the earlier sets is bound, and the
//     event is later than all of their events;
//   - every condition whose operands would then all be bound holds.
func (o *oracle) mustTake(i int) bool {
	t := o.evs[i].Time
	for v := range o.vars {
		if !o.vars[v].Group && len(o.cur[v]) > 0 {
			continue
		}
		ok := true
		for w := range o.vars {
			switch {
			case o.set[w] > o.set[v]:
				ok = ok && len(o.cur[w]) == 0
			case o.set[w] < o.set[v]:
				ok = ok && (o.vars[w].Optional || len(o.cur[w]) > 0)
				for _, j := range o.cur[w] {
					ok = ok && o.evs[j].Time < t
				}
			}
		}
		if !ok {
			continue
		}
		o.cur[v] = append(o.cur[v], i)
		for _, c := range o.p.Conds {
			ok = ok && o.holds(c)
		}
		o.cur[v] = o.cur[v][:len(o.cur[v])-1]
		if ok {
			return true
		}
	}
	return false
}

func (o *oracle) clone() substitution {
	b := make(substitution, len(o.cur))
	for v := range o.cur {
		b[v] = append([]int(nil), o.cur[v]...)
	}
	return b
}

// maximal is condition 5 for c: no other candidate with the same
// first time binds a proper superset of its (variable, event) pairs.
func maximal(c candidate, found []candidate) bool {
	for _, other := range found {
		if other.first == c.first && properSubset(c.b, other.b) {
			return false
		}
	}
	return true
}

// properSubset reports whether a ⊊ b as sets of (variable, event) pairs.
func properSubset(a, b substitution) bool {
	na, nb := 0, 0
	for v := range a {
		na += len(a[v])
		nb += len(b[v])
		for _, i := range a[v] {
			if !containsInt(b[v], i) {
				return false
			}
		}
	}
	return na < nb
}

func containsInt(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// render prints β like engine.Match.String: "v/eSEQ" pairs, "v+" for
// group variables, in stream order.
func (o *oracle) render(b substitution) string {
	type pair struct {
		label string
		pos   int
	}
	var pairs []pair
	for v, is := range b {
		label := o.vars[v].Name
		if o.vars[v].Group {
			label += "+"
		}
		for _, i := range is {
			pairs = append(pairs, pair{label + "/e" + strconv.Itoa(o.evs[i].Seq), i})
		}
	}
	sort.Slice(pairs, func(x, y int) bool { return pairs[x].pos < pairs[y].pos })
	parts := make([]string, len(pairs))
	for k, pr := range pairs {
		parts[k] = pr.label
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
