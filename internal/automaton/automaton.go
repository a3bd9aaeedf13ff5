// Package automaton implements the SES automaton of Section 4 of
// Cadonna, Gamper, Böhlen: "Sequenced Event Set Pattern Matching"
// (EDBT 2011): a nondeterministic finite state automaton whose states
// are subsets of the pattern's event variables, built per event set
// pattern over the powerset of its variables (Section 4.2.1) and
// concatenated in pattern order (Section 4.2.2).
//
// The package compiles a validated pattern against an event schema
// into an executable automaton with attribute indexes resolved and
// per-transition condition checks pre-oriented; execution lives in
// package engine.
package automaton

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"repro/internal/event"
	"repro/internal/pattern"
)

// VarSet is a set of event variables encoded as a bitmask over the
// automaton's global variable indexes. Definition 3 defines automaton
// states as subsets of V; VarSet is that subset.
type VarSet uint64

// Has reports whether variable i is in the set.
func (s VarSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// With returns the set extended by variable i.
func (s VarSet) With(i int) VarSet { return s | 1<<uint(i) }

// Count returns the cardinality of the set.
func (s VarSet) Count() int { return bits.OnesCount64(uint64(s)) }

// VarInfo describes one event variable of the compiled automaton.
type VarInfo struct {
	Name  string
	Group bool
	Set   int // index of the event set pattern containing the variable
	Index int // global variable index (bit position in VarSet)

	// ConstChecks are the variable's compiled constant conditions
	// (v.A φ C), used both on transitions and by the event filter of
	// Section 4.5.
	ConstChecks []ConstCheck

	// filter is the fused compiled chain over ConstChecks, built by
	// Compile: one closure call reports whether an event satisfies
	// every constant condition of this variable. nil only for
	// variables without constant conditions (vacuously satisfied).
	filter func(*event.Event) bool
}

// String renders the variable with its Kleene-plus marker.
func (v VarInfo) String() string {
	if v.Group {
		return v.Name + "+"
	}
	return v.Name
}

// ConstCheck is a compiled constant condition on the event being bound:
// e.Attrs[Attr] Op Const.
type ConstCheck struct {
	Attr  int
	Op    pattern.Op
	Const event.Value

	// pred is the kind-specialized compiled predicate, set by Compile.
	pred func(event.Value) event.PredOutcome
}

// CmpOp translates a pattern operator to its event-level counterpart
// (the enums are ordered identically; the switch keeps them honest).
func CmpOp(op pattern.Op) event.CmpOp {
	switch op {
	case pattern.Eq:
		return event.CmpEq
	case pattern.Ne:
		return event.CmpNe
	case pattern.Lt:
		return event.CmpLt
	case pattern.Le:
		return event.CmpLe
	case pattern.Gt:
		return event.CmpGt
	default: // pattern.Ge
		return event.CmpGe
	}
}

// CondCheck is a compiled condition evaluated when an event e is bound
// to a transition's variable, oriented so that the bound event is
// always the left operand:
//
//	e.Attrs[BindAttr]  Op  <other>
//
// where <other> is Const when OtherVar < 0, the event e itself when
// SelfOnly (conditions v.A φ v.A' relate attributes of one binding per
// the decomposition semantics of Section 3.2), or otherwise every
// event already bound to variable OtherVar.
type CondCheck struct {
	Op        pattern.Op
	BindAttr  int
	OtherVar  int // -1 for constant conditions
	OtherAttr int
	Const     event.Value
	SelfOnly  bool
	// Source is the original pattern condition, for diagnostics.
	Source pattern.Condition

	// pred / pred2 are the kind-specialized compiled predicates, set
	// by Compile: pred for constant conditions (OtherVar < 0), pred2
	// for conditions against another binding (including SelfOnly).
	pred  func(event.Value) event.PredOutcome
	pred2 func(l, r event.Value) event.PredOutcome
}

// OutcomeConst evaluates a constant condition (OtherVar < 0) on the
// event being bound.
func (c *CondCheck) OutcomeConst(e *event.Event) event.PredOutcome {
	return c.pred(e.Attrs[c.BindAttr])
}

// Outcome2 evaluates a two-operand condition on the bound event's
// attribute l against the other binding's attribute r.
func (c *CondCheck) Outcome2(l, r event.Value) event.PredOutcome {
	return c.pred2(l, r)
}

// Transition is δ = (q, v, Θδ): from its source state, binding the
// event variable Var moves to state Target when all Conds hold.
// Loop marks group-variable self-loops (q ∪ {v} = q).
type Transition struct {
	Var    int
	Target int
	Loop   bool
	Conds  []CondCheck
}

// State is an automaton state q ⊆ V.
type State struct {
	ID        int
	Vars      VarSet
	Set       int // index of the event set pattern being filled from this state
	Accepting bool
}

// Automaton is the compiled SES automaton
// N = (Q, ∆, qs, qf, τ) of Definition 3.
type Automaton struct {
	Pattern *pattern.Pattern
	Schema  *event.Schema
	Vars    []VarInfo
	States  []State
	// Out holds the outgoing transitions of each state, indexed by
	// state ID, in deterministic (variable index) order.
	Out    [][]Transition
	Start  int
	Accept int
	Within event.Duration
	// SetPrefix[i] is the union of the variables of event set patterns
	// 0..i-1; SetPrefix[m] is the full variable set.
	SetPrefix []VarSet

	// fp memoizes Fingerprint; the automaton is immutable after Compile.
	fpOnce sync.Once
	fp     string

	// routeKeys memoizes RouteKeys, for the same reason.
	routeOnce sync.Once
	routeKeys RouteSet
}

// NumVars returns the number of event variables.
func (a *Automaton) NumVars() int { return len(a.Vars) }

// NumStates returns |Q|.
func (a *Automaton) NumStates() int { return len(a.States) }

// NumTransitions returns |∆|.
func (a *Automaton) NumTransitions() int {
	n := 0
	for _, ts := range a.Out {
		n += len(ts)
	}
	return n
}

// VarIndex returns the global index of the named variable, or -1.
func (a *Automaton) VarIndex(name string) int {
	for _, v := range a.Vars {
		if v.Name == name {
			return v.Index
		}
	}
	return -1
}

// StateLabel renders a state's variable set like the paper's figures,
// e.g. "cdp+" for {c, d, p+} and "∅" for the start state.
func (a *Automaton) StateLabel(id int) string {
	vs := a.States[id].Vars
	if vs == 0 {
		return "∅"
	}
	var b strings.Builder
	for _, v := range a.Vars {
		if vs.Has(v.Index) {
			b.WriteString(v.String())
		}
	}
	return b.String()
}

// Compile translates a SES pattern into a SES automaton over the given
// schema, performing the two construction steps of Section 4.2:
// powerset translation of each event set pattern and concatenation.
func Compile(p *pattern.Pattern, schema *event.Schema) (*Automaton, error) {
	if schema == nil {
		return nil, fmt.Errorf("automaton: nil schema")
	}
	if err := p.ValidateSchema(schema); err != nil {
		return nil, err
	}
	if p.HasOptionalVariables() {
		return nil, fmt.Errorf("automaton: pattern contains optional variables; expand them first with pattern.ExpandOptionals (the ses facade does this automatically)")
	}

	a := &Automaton{
		Pattern: p.Clone(),
		Schema:  schema,
		Within:  p.Window,
	}

	// Global variable indexing in set order.
	varIdx := make(map[string]int)
	for si, set := range p.Sets {
		for _, v := range set {
			idx := len(a.Vars)
			varIdx[v.Name] = idx
			a.Vars = append(a.Vars, VarInfo{Name: v.Name, Group: v.Group, Set: si, Index: idx})
		}
	}

	attrIdx := func(name string) int {
		i, _ := schema.Index(name) // existence checked by ValidateSchema
		return i
	}

	// Compile each variable's constant conditions (for transitions and
	// the Section 4.5 event filter).
	for i := range a.Vars {
		for _, c := range p.ConstConds(a.Vars[i].Name) {
			a.Vars[i].ConstChecks = append(a.Vars[i].ConstChecks, ConstCheck{
				Attr:  attrIdx(c.Left.Attr),
				Op:    c.Op,
				Const: c.Const,
			})
		}
	}

	// Prefix masks: SetPrefix[i] = V1 ∪ ... ∪ V(i-1).
	a.SetPrefix = make([]VarSet, len(p.Sets)+1)
	for si, set := range p.Sets {
		mask := a.SetPrefix[si]
		for _, v := range set {
			mask = mask.With(varIdx[v.Name])
		}
		a.SetPrefix[si+1] = mask
	}

	// State construction: for event set pattern Vi every subset of Vi
	// prefixed by all earlier sets is a state; the full-Vi state is the
	// merged boundary with set i+1 (concatenation, Section 4.2.2).
	stateID := make(map[VarSet]int)
	addState := func(vs VarSet, set int) int {
		if id, ok := stateID[vs]; ok {
			return id
		}
		id := len(a.States)
		stateID[vs] = id
		a.States = append(a.States, State{ID: id, Vars: vs, Set: set})
		a.Out = append(a.Out, nil)
		return id
	}

	a.Start = addState(0, 0)
	for si, set := range p.Sets {
		locals := make([]int, len(set))
		for j, v := range set {
			locals[j] = varIdx[v.Name]
		}
		// Enumerate subsets of Vi in increasing cardinality for stable,
		// readable state numbering.
		subsets := make([]VarSet, 0, 1<<len(locals))
		for bitsMask := 0; bitsMask < 1<<len(locals); bitsMask++ {
			var vs VarSet
			for j, idx := range locals {
				if bitsMask&(1<<j) != 0 {
					vs = vs.With(idx)
				}
			}
			subsets = append(subsets, vs)
		}
		sort.Slice(subsets, func(x, y int) bool {
			if subsets[x].Count() != subsets[y].Count() {
				return subsets[x].Count() < subsets[y].Count()
			}
			return subsets[x] < subsets[y]
		})
		for _, sub := range subsets {
			addState(a.SetPrefix[si]|sub, si)
		}
	}
	a.Accept = stateID[a.SetPrefix[len(p.Sets)]]
	a.States[a.Accept].Accepting = true
	a.States[a.Accept].Set = len(p.Sets)

	// Transition construction.
	for si, set := range p.Sets {
		for _, st := range a.States {
			// States belonging to set si: prefix[si] ⊆ st.Vars ⊆ prefix[si+1].
			if st.Vars&a.SetPrefix[si] != a.SetPrefix[si] || st.Vars&^a.SetPrefix[si+1] != 0 {
				continue
			}
			for _, v := range set {
				idx := varIdx[v.Name]
				bound := st.Vars.Has(idx)
				if bound && !v.Group {
					continue // singleton variables bind exactly once
				}
				target := st.Vars.With(idx)
				available := st.Vars.With(idx)
				t := Transition{
					Var:    idx,
					Target: stateID[target],
					Loop:   bound,
					Conds:  compileConds(p, schema, varIdx, a.SetPrefix[si], available, v.Name, idx),
				}
				a.Out[st.ID] = append(a.Out[st.ID], t)
			}
		}
	}
	for id := range a.Out {
		sort.SliceStable(a.Out[id], func(x, y int) bool {
			if a.Out[id][x].Var != a.Out[id][y].Var {
				return a.Out[id][x].Var < a.Out[id][y].Var
			}
			return !a.Out[id][x].Loop && a.Out[id][y].Loop
		})
	}
	a.compileChecks()
	return a, nil
}

// compileChecks specializes every condition into a kind-dispatched
// closure chosen from the schema's declared attribute types (so the
// per-event hot path runs no kind switch and allocates no errors) and
// fuses each variable's constant-check chain into a single filter
// closure for Section 4.5 filtering.
func (a *Automaton) compileChecks() {
	kind := func(attr int) event.Kind { return a.Schema.Field(attr).Type.Kind() }
	for i := range a.Vars {
		v := &a.Vars[i]
		for j := range v.ConstChecks {
			c := &v.ConstChecks[j]
			c.pred = event.CompilePred(kind(c.Attr), CmpOp(c.Op), c.Const)
		}
		v.filter = fuseConstChecks(v.ConstChecks)
	}
	for id := range a.Out {
		for ti := range a.Out[id] {
			for ci := range a.Out[id][ti].Conds {
				c := &a.Out[id][ti].Conds[ci]
				if c.OtherVar < 0 {
					c.pred = event.CompilePred(kind(c.BindAttr), CmpOp(c.Op), c.Const)
				} else {
					c.pred2 = event.CompilePred2(kind(c.BindAttr), kind(c.OtherAttr), CmpOp(c.Op))
				}
			}
		}
	}
}

// fuseConstChecks folds a variable's compiled constant checks into one
// closure, with unrolled arities for the common short chains.
func fuseConstChecks(checks []ConstCheck) func(*event.Event) bool {
	switch len(checks) {
	case 0:
		return nil
	case 1:
		p0, a0 := checks[0].pred, checks[0].Attr
		return func(e *event.Event) bool { return p0(e.Attrs[a0]) == event.PredPass }
	case 2:
		p0, a0 := checks[0].pred, checks[0].Attr
		p1, a1 := checks[1].pred, checks[1].Attr
		return func(e *event.Event) bool {
			return p0(e.Attrs[a0]) == event.PredPass && p1(e.Attrs[a1]) == event.PredPass
		}
	}
	cs := checks
	return func(e *event.Event) bool {
		for i := range cs {
			if cs[i].pred(e.Attrs[cs[i].Attr]) != event.PredPass {
				return false
			}
		}
		return true
	}
}

// compileConds builds Θδ for the transition binding variable bindName:
// all conditions from Θ that mention the variable and whose other
// operand is a constant, the variable itself, or a variable from a
// preceding event set pattern or the current state (Section 4.2.1).
// prefix is the union of the preceding sets; available additionally
// contains the current state's variables and the bound variable.
func compileConds(p *pattern.Pattern, schema *event.Schema, varIdx map[string]int,
	prefix, available VarSet, bindName string, bindIdx int) []CondCheck {

	attrIdx := func(name string) int {
		i, _ := schema.Index(name)
		return i
	}
	var consts, varsChecks []CondCheck
	for _, c := range p.Conds {
		if !c.Mentions(bindName) {
			continue
		}
		if c.HasConst {
			// Constant conditions always have the variable on the left.
			consts = append(consts, CondCheck{
				Op:       c.Op,
				BindAttr: attrIdx(c.Left.Attr),
				OtherVar: -1,
				Const:    c.Const,
				Source:   c,
			})
			continue
		}
		var bindAttr string
		var other pattern.Ref
		op := c.Op
		switch {
		case c.Left.Var == bindName:
			bindAttr, other = c.Left.Attr, c.Right
		default: // c.Right.Var == bindName
			bindAttr, other, op = c.Right.Attr, c.Left, c.Op.Flip()
		}
		otherIdx := varIdx[other.Var]
		self := other.Var == bindName
		if !self && !(available.Has(otherIdx) || prefix.Has(otherIdx)) {
			continue // other variable not yet available at this state
		}
		varsChecks = append(varsChecks, CondCheck{
			Op:        op,
			BindAttr:  attrIdx(bindAttr),
			OtherVar:  otherIdx,
			OtherAttr: attrIdx(other.Attr),
			SelfOnly:  self,
			Source:    c,
		})
	}
	// Constant checks first: they reject cheaply without touching the
	// match buffer.
	return append(consts, varsChecks...)
}

// PassesFilter implements the event filtering optimisation of
// Section 4.5 in its sound form: an event may be relevant only when
// there exists a variable all of whose constant conditions it
// satisfies (vacuously true for variables without constant
// conditions). Events failing the filter cannot fire any transition
// and can be skipped without iterating over automaton instances.
func (a *Automaton) PassesFilter(e *event.Event) bool {
	for i := range a.Vars {
		if f := a.Vars[i].filter; f == nil || f(e) {
			return true
		}
	}
	return false
}
