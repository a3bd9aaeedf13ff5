package engine

import (
	"fmt"

	"repro/internal/automaton"
	"repro/internal/event"
)

// Union evaluates several SES automata over one input, used for
// patterns with optional variables (v?, v*), which expand into one
// plain SES pattern per subset of included optionals
// (pattern.ExpandOptionals). Every variant binds a distinct set of
// variables, so variant results never collide; the MAXIMAL preference
// for binding optional variables is enforced by FilterMaximal over the
// combined result (RunUnion does this). A union is driven by Step and
// Flush; it has no channel API. A caller stepping it applies
// FilterMaximal itself if it needs the preference, which cannot be
// applied on an unbounded stream.
type Union struct {
	runners []*Runner
}

// NewUnion creates a union evaluator over the automata. Aggregation is
// rejected: folding at acceptance would count matches the union's
// MAXIMAL filter later discards, and each variant runner's New would
// reset the shared aggregator.
func NewUnion(autos []*automaton.Automaton, opts ...Option) (*Union, error) {
	if len(autos) == 0 {
		return nil, fmt.Errorf("engine: union of zero automata")
	}
	var probe config
	for _, o := range opts {
		o(&probe)
	}
	if probe.agg != nil {
		return nil, fmt.Errorf("engine: aggregation is not supported on a union (matches are filtered for maximality after acceptance)")
	}
	u := &Union{runners: make([]*Runner, len(autos))}
	for i, a := range autos {
		u.runners[i] = New(a, opts...)
	}
	return u, nil
}

// Step feeds the event to every variant runner and returns the
// combined completed matches.
func (u *Union) Step(e *event.Event) ([]Match, error) {
	var out []Match
	for _, r := range u.runners {
		ms, err := r.Step(e)
		if err != nil {
			return out, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// Flush ends the input on every variant runner.
func (u *Union) Flush() []Match {
	var out []Match
	for _, r := range u.runners {
		out = append(out, r.Flush()...)
	}
	return out
}

// ActiveInstances returns the total instances across variants.
func (u *Union) ActiveInstances() int {
	n := 0
	for _, r := range u.runners {
		n += r.ActiveInstances()
	}
	return n
}

// Metrics aggregates the variants' metrics.
func (u *Union) Metrics() Metrics {
	var agg Metrics
	for _, r := range u.runners {
		agg.Add(r.Metrics())
	}
	return agg
}

// Reset resets every variant runner.
func (u *Union) Reset() {
	for _, r := range u.runners {
		r.Reset()
	}
}

// RunUnion executes all automata over a complete relation, combines
// the variants' matches and applies the MAXIMAL preference for
// optional variables: a match from one variant that is a proper subset
// of a match from ANOTHER variant is dropped — regardless of start
// time, because an optional variable may legitimately bind before the
// first required event and thereby move the start earlier. Within one
// variant the ordinary condition-5 rule applies (proper subsets
// sharing a start time, which only arise under tied timestamps).
func RunUnion(autos []*automaton.Automaton, rel *event.Relation, opts ...Option) ([]Match, Metrics, error) {
	if !rel.Sorted() {
		return nil, Metrics{}, fmt.Errorf("engine: relation is not sorted by time")
	}
	for _, a := range autos {
		if !rel.Schema().Equal(a.Schema) {
			return nil, Metrics{}, fmt.Errorf("engine: relation schema (%s) differs from automaton schema (%s)",
				rel.Schema(), a.Schema)
		}
	}
	u, err := NewUnion(autos, opts...)
	if err != nil {
		return nil, Metrics{}, err
	}
	perVariant := make([][]Match, len(u.runners))
	for i := 0; i < rel.Len(); i++ {
		e := rel.Event(i)
		for vi, r := range u.runners {
			ms, err := r.Step(e)
			if err != nil {
				return nil, u.Metrics(), err
			}
			perVariant[vi] = append(perVariant[vi], ms...)
		}
	}
	for vi, r := range u.runners {
		perVariant[vi] = append(perVariant[vi], r.Flush()...)
	}
	return FilterMaximal(filterVariantSubsets(perVariant)), u.Metrics(), nil
}

// filterVariantSubsets drops matches that are proper subsets of a
// match found by a different variant and flattens the remainder in
// variant order.
func filterVariantSubsets(perVariant [][]Match) []Match {
	type tagged struct {
		variant int
		keys    bindingSet
	}
	var entries []tagged
	var flat []Match
	for vi, ms := range perVariant {
		for _, m := range ms {
			entries = append(entries, tagged{variant: vi, keys: bindingsOf(m)})
			flat = append(flat, m)
		}
	}
	out := flat[:0:0]
	for i, e := range entries {
		dropped := false
		for j, o := range entries {
			if i != j && e.variant != o.variant && properSubset(e.keys, o.keys) {
				dropped = true
				break
			}
		}
		if !dropped {
			out = append(out, flat[i])
		}
	}
	return out
}
