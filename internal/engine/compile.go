package engine

import (
	"fmt"

	"repro/internal/automaton"
	"repro/internal/event"
	"repro/internal/pattern"
	"repro/internal/query"
)

// CompileQuery compiles query text the way the serving runtime runs
// it: parse, require a single variant (no optional variables), compile
// the automaton against the schema and, when the query has an
// AGGREGATE clause, its aggregation plan (nil otherwise). A server
// registering a query and a cluster router merging its partitions'
// aggregate state compile through this one path.
func CompileQuery(text string, schema *event.Schema) (*automaton.Automaton, *AggPlan, error) {
	p, err := query.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	variants, err := pattern.ExpandOptionals(p)
	if err != nil {
		return nil, nil, err
	}
	if len(variants) != 1 {
		return nil, nil, fmt.Errorf("engine: query expands into %d variant automata; the serving runtime requires single-variant queries (no optional variables)", len(variants))
	}
	a, err := automaton.Compile(variants[0], schema)
	if err != nil {
		return nil, nil, err
	}
	if a.Pattern.Agg == nil {
		return a, nil, nil
	}
	plan, err := CompileAggregate(a, a.Pattern.Agg)
	if err != nil {
		return nil, nil, err
	}
	return a, plan, nil
}
