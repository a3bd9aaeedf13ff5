package automaton

import (
	"repro/internal/event"
	"repro/internal/pattern"
)

// RouteKey is one (attribute, constant) equality some variable of the
// automaton requires of any event it binds: only events whose
// attribute Attr equals Val can ever bind that variable.
type RouteKey struct {
	Attr int
	Val  event.Value
}

// RouteSet is the routing summary of an automaton: the set of
// (attribute, value) equalities under which events can be relevant to
// it. An event matching none of the keys cannot fire any transition —
// every transition binds some variable, and binding a variable
// requires all of its constant conditions to hold, including the
// equality the key was extracted from.
//
// All is true when some variable carries no equality condition; such
// an automaton can react to arbitrary events and must be treated as
// type-agnostic (catch-all) by a router.
type RouteSet struct {
	Keys []RouteKey
	All  bool
}

// RouteKeys extracts the automaton's routing summary. For each
// variable the first equality constant condition is taken as its key
// (a sound over-approximation when a variable has several: an event
// failing any of them cannot bind the variable, so routing on one
// admits a superset). Kleene group variables contribute keys like
// singletons — the equality applies to every event the group binds.
// Duplicate (attr, value) pairs are merged.
// The result is computed once and shared: callers must treat the
// returned RouteSet as read-only.
func (a *Automaton) RouteKeys() RouteSet {
	a.routeOnce.Do(func() { a.routeKeys = a.routeKeySet() })
	return a.routeKeys
}

// routeKeySet derives the routing summary; see RouteKeys.
func (a *Automaton) routeKeySet() RouteSet {
	seen := make(map[RouteKey]bool, len(a.Vars))
	var rs RouteSet
	for i := range a.Vars {
		v := &a.Vars[i]
		var key *ConstCheck
		for j := range v.ConstChecks {
			if v.ConstChecks[j].Op == pattern.Eq {
				key = &v.ConstChecks[j]
				break
			}
		}
		if key == nil {
			// The variable can bind events of any type; no key-based
			// skipping is sound for this automaton.
			return RouteSet{All: true}
		}
		k := RouteKey{Attr: key.Attr, Val: key.Const}
		if !seen[k] {
			seen[k] = true
			rs.Keys = append(rs.Keys, k)
		}
	}
	return rs
}
