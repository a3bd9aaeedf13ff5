package pattern

import (
	"fmt"
	"strings"

	"repro/internal/event"
)

// This file extends SES patterns with an online aggregation clause —
// the GRETA-style event-trend aggregation direction of Poppe et al.
// ("Event Trend Aggregation Under Rich Event Matching Semantics"):
// instead of enumerating the (potentially exponential) match set of a
// Kleene-heavy pattern, the engine folds the counts and sums of each
// accepted match into per-partition groups and emits only the
// aggregate. The clause is declarative:
//
//	AGGREGATE count, sum(p.Dose), max(W)
//	PER PARTITION ID
//	HAVING count >= 2 AND sum(p.Dose) < 100
//
// count is the number of completed matches. sum/min/max fold an
// attribute over the bound events of every match — over all bound
// events, or only the events bound to one variable when written as
// v.A. PER PARTITION groups matches by an attribute of the match's
// first bound event; HAVING filters groups by their aggregate values
// at read time.

// AggFunc is an aggregation function of the AGGREGATE clause.
type AggFunc uint8

// The aggregation functions.
const (
	// AggCount counts completed matches.
	AggCount AggFunc = iota
	// AggSum sums an attribute over the bound events of every match.
	// Integer attributes accumulate in int64 (overflow wraps), float
	// attributes in float64 (NaN propagates).
	AggSum
	// AggMin tracks the minimum of an attribute over the bound events
	// of every match. A NaN contribution makes the result NaN.
	AggMin
	// AggMax tracks the maximum of an attribute over the bound events
	// of every match. A NaN contribution makes the result NaN.
	AggMax
	// AggAvg averages an attribute over the bound events of every
	// match. It folds as a (sum, count) pair — the accumulator of
	// AggSum plus the contribution counter every slot already carries —
	// and divides at read time, so the result is always a float and an
	// empty group reads as null. NaN propagates like AggSum.
	AggAvg
)

// String renders the function in the query language's (lower-case)
// spelling.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return fmt.Sprintf("AggFunc(%d)", uint8(f))
	}
}

// AggItem is one aggregate of an AGGREGATE clause: a function plus its
// argument. count takes no argument; sum/min/max take an attribute,
// optionally restricted to the events bound to one variable (v.A).
type AggItem struct {
	Func AggFunc
	Var  string // restrict to events bound to this variable; "" = all
	Attr string // argument attribute; "" for count
}

// EventFed reports whether the item folds per bound event (sum, min,
// max) rather than per match (count).
func (it AggItem) EventFed() bool { return it.Func != AggCount }

// String renders the item in the query language's syntax: count,
// sum(Dose) or sum(p.Dose). The rendering is canonical and doubles as
// the item's identity for slot sharing between AGGREGATE and HAVING.
func (it AggItem) String() string {
	if it.Func == AggCount {
		return "count"
	}
	if it.Var != "" {
		return fmt.Sprintf("%s(%s.%s)", it.Func, it.Var, it.Attr)
	}
	return fmt.Sprintf("%s(%s)", it.Func, it.Attr)
}

// HavingCond is one conjunct of a HAVING clause: an aggregate compared
// against a numeric constant, applied per group when results are read.
type HavingCond struct {
	Item  AggItem
	Op    Op
	Const event.Value
}

// String renders the condition in the query language's syntax.
func (h HavingCond) String() string {
	return fmt.Sprintf("%s %s %s", h.Item, h.Op, h.Const)
}

// MaxEventAggregates bounds the distinct event-fed aggregates (sum,
// min, max — across AGGREGATE and HAVING) of one pattern, so that a
// match's and a group's accumulators have a small fixed size.
const MaxEventAggregates = 8

// AggSpec is the aggregation clause of a pattern: the output items,
// the optional grouping attribute, and the optional HAVING filter.
type AggSpec struct {
	Items     []AggItem
	Partition string // group matches by this attribute; "" = one group
	Having    []HavingCond
}

// EventItems returns the distinct event-fed items of the spec — the
// union of the AGGREGATE items and the HAVING-referenced items, in
// first-appearance order, deduplicated by their canonical rendering.
// These are the accumulator slots the engine maintains per instance.
func (s *AggSpec) EventItems() []AggItem {
	var out []AggItem
	seen := make(map[string]bool)
	add := func(it AggItem) {
		if !it.EventFed() || seen[it.String()] {
			return
		}
		seen[it.String()] = true
		out = append(out, it)
	}
	for _, it := range s.Items {
		add(it)
	}
	for _, h := range s.Having {
		add(h.Item)
	}
	return out
}

// Clone returns a deep copy of the spec.
func (s *AggSpec) Clone() *AggSpec {
	if s == nil {
		return nil
	}
	return &AggSpec{
		Items:     append([]AggItem(nil), s.Items...),
		Partition: s.Partition,
		Having:    append([]HavingCond(nil), s.Having...),
	}
}

// String renders the clause in the textual query language, starting
// with the AGGREGATE keyword (no leading newline).
func (s *AggSpec) String() string {
	var b strings.Builder
	b.WriteString("AGGREGATE ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	if s.Partition != "" {
		b.WriteString(" PER PARTITION ")
		b.WriteString(s.Partition)
	}
	if len(s.Having) > 0 {
		b.WriteString(" HAVING ")
		for i, h := range s.Having {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(h.String())
		}
	}
	return b.String()
}

// validateAgg extends Validate for the aggregation clause: at least
// one item, well-formed arguments, variable restrictions naming
// declared variables, numeric HAVING constants, and a bounded number
// of distinct event-fed accumulator slots.
func (p *Pattern) validateAgg(declared map[string]bool) error {
	s := p.Agg
	if s == nil {
		return nil
	}
	if len(s.Items) == 0 {
		return fmt.Errorf("pattern: AGGREGATE clause needs at least one aggregate")
	}
	checkItem := func(it AggItem) error {
		switch it.Func {
		case AggCount:
			if it.Var != "" || it.Attr != "" {
				return fmt.Errorf("pattern: count takes no argument")
			}
		case AggSum, AggMin, AggMax, AggAvg:
			if it.Attr == "" {
				return fmt.Errorf("pattern: %s requires an attribute argument", it.Func)
			}
			if it.Var != "" && !declared[it.Var] {
				return fmt.Errorf("pattern: aggregate %q references undeclared variable %q", it, it.Var)
			}
		default:
			return fmt.Errorf("pattern: unknown aggregation function %d", it.Func)
		}
		return nil
	}
	for _, it := range s.Items {
		if err := checkItem(it); err != nil {
			return err
		}
	}
	for _, h := range s.Having {
		if err := checkItem(h.Item); err != nil {
			return err
		}
		if k := h.Const.Kind(); k != event.KindInt && k != event.KindFloat {
			return fmt.Errorf("pattern: HAVING condition %q compares against a non-numeric constant", h)
		}
	}
	if n := len(s.EventItems()); n > MaxEventAggregates {
		return fmt.Errorf("pattern: %d distinct event-fed aggregates exceed the supported maximum of %d",
			n, MaxEventAggregates)
	}
	return nil
}

// validateAggSchema extends ValidateSchema for the aggregation clause:
// sum/min/max arguments must be numeric schema attributes and the
// partition attribute must exist in the schema.
func (p *Pattern) validateAggSchema(s *event.Schema) error {
	spec := p.Agg
	if spec == nil {
		return nil
	}
	numericAttr := func(it AggItem) error {
		i, ok := s.Index(it.Attr)
		if !ok {
			return fmt.Errorf("pattern: aggregate %q references attribute %q not in schema (%s)", it, it.Attr, s)
		}
		k := event.ZeroOf(s.Field(i).Type).Kind()
		if k != event.KindInt && k != event.KindFloat {
			return fmt.Errorf("pattern: aggregate %q requires a numeric attribute, %q is %s", it, it.Attr, s.Field(i).Type)
		}
		return nil
	}
	for _, it := range spec.Items {
		if it.EventFed() {
			if err := numericAttr(it); err != nil {
				return err
			}
		}
	}
	for _, h := range spec.Having {
		if h.Item.EventFed() {
			if err := numericAttr(h.Item); err != nil {
				return err
			}
		}
	}
	if spec.Partition != "" {
		if _, ok := s.Index(spec.Partition); !ok {
			return fmt.Errorf("pattern: partition attribute %q not in schema (%s)", spec.Partition, s)
		}
	}
	return nil
}
