package automaton

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/pattern"
)

func chemoSchema() *event.Schema {
	return event.MustSchema(
		event.Field{Name: "ID", Type: event.TypeInt},
		event.Field{Name: "L", Type: event.TypeString},
		event.Field{Name: "V", Type: event.TypeFloat},
		event.Field{Name: "U", Type: event.TypeString},
	)
}

// q1 is the running-example pattern (Example 2, Figure 5).
func q1(t *testing.T) *pattern.Pattern {
	t.Helper()
	return pattern.New().
		Set(pattern.Var("c"), pattern.Plus("p"), pattern.Var("d")).
		Set(pattern.Var("b")).
		WhereConst("c", "L", pattern.Eq, event.String("C")).
		WhereConst("d", "L", pattern.Eq, event.String("D")).
		WhereConst("p", "L", pattern.Eq, event.String("P")).
		WhereConst("b", "L", pattern.Eq, event.String("B")).
		WhereVars("c", "ID", pattern.Eq, "p", "ID").
		WhereVars("c", "ID", pattern.Eq, "d", "ID").
		WhereVars("d", "ID", pattern.Eq, "b", "ID").
		Within(264 * event.Hour).MustBuild()
}

func compileQ1(t *testing.T) *Automaton {
	t.Helper()
	a, err := Compile(q1(t), chemoSchema())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestFigure5Shape pins the structure of the automaton in Figure 5:
// 9 states (the powerset of V1 = {c,p+,d} plus the accepting state
// contributed by V2 = {b}) and 17 transitions (16 within V1 including
// three p+ self-loops plus the final b transition).
func TestFigure5Shape(t *testing.T) {
	a := compileQ1(t)
	if a.NumStates() != 9 {
		t.Errorf("states = %d, want 9", a.NumStates())
	}
	if a.NumTransitions() != 17 {
		t.Errorf("transitions = %d, want 17\n%s", a.NumTransitions(), a)
	}
	loops := 0
	for _, ts := range a.Out {
		for _, tr := range ts {
			if tr.Loop {
				loops++
				if !a.Vars[tr.Var].Group {
					t.Errorf("self-loop on singleton variable %s", a.Vars[tr.Var])
				}
			}
		}
	}
	// p+ loops at {p+}, {c,p+}, {d,p+} and {c,d,p+} (the merged
	// boundary state), cf. Figure 5.
	if loops != 4 {
		t.Errorf("loops = %d, want 4\n%s", loops, a)
	}
	if a.StateLabel(a.Start) != "∅" {
		t.Errorf("start label = %q", a.StateLabel(a.Start))
	}
	if a.StateLabel(a.Accept) != "cp+db" {
		t.Errorf("accept label = %q", a.StateLabel(a.Accept))
	}
	if !a.States[a.Accept].Accepting || a.States[a.Start].Accepting {
		t.Errorf("accepting flags wrong")
	}
	if a.Within != 264*event.Hour {
		t.Errorf("Within = %v", a.Within)
	}
}

// TestFigure3SingleSet pins the two-state automaton of Figure 3 for
// the isolated event set pattern ⟨{b}⟩.
func TestFigure3SingleSet(t *testing.T) {
	p := pattern.New().Set(pattern.Var("b")).
		WhereConst("b", "L", pattern.Eq, event.String("B")).
		Within(264 * event.Hour).MustBuild()
	a, err := Compile(p, chemoSchema())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumStates() != 2 || a.NumTransitions() != 1 {
		t.Fatalf("shape = %d states, %d transitions", a.NumStates(), a.NumTransitions())
	}
	tr := a.Out[a.Start][0]
	if tr.Target != a.Accept || tr.Loop {
		t.Errorf("transition = %+v", tr)
	}
	if len(tr.Conds) != 1 || tr.Conds[0].Source.String() != `b.L = "B"` {
		t.Errorf("conds = %v", tr.Conds)
	}
}

// TestFigure4ConditionAttachment verifies the Θδ construction rule of
// Section 4.2.1 on selected transitions of the running example.
func TestFigure4ConditionAttachment(t *testing.T) {
	a := compileQ1(t)
	condStrings := func(from, via string) []string {
		st := stateByLabel(t, a, from)
		idx := a.VarIndex(strings.TrimSuffix(via, "+"))
		for _, tr := range a.Out[st.ID] {
			if tr.Var == idx {
				var out []string
				for _, c := range tr.Conds {
					out = append(out, c.Source.String())
				}
				return out
			}
		}
		t.Fatalf("no transition %s --%s-->", from, via)
		return nil
	}
	cases := []struct {
		from, via string
		want      []string
	}{
		// Θ1: from ∅ binding c only the constant condition applies.
		{"∅", "c", []string{`c.L = "C"`}},
		// Θ4: from {c} binding d the join with c becomes available.
		{"c", "d", []string{`d.L = "D"`, "c.ID = d.ID"}},
		// From {p+} binding d: c is NOT available, so only d.L='D'
		// (the construction rule; Figure 4's Θ9 prints a typo here).
		{"p+", "d", []string{`d.L = "D"`}},
		// Θ11: from {c,d} binding p+.
		{"cd", "p+", []string{`p.L = "P"`, "c.ID = p.ID"}},
		// Θ14: from {d,p+} binding c gets both joins.
		{"p+d", "c", []string{`c.L = "C"`, "c.ID = p.ID", "c.ID = d.ID"}},
		// Θ7: loop at {p+}.
		{"p+", "p+", []string{`p.L = "P"`}},
		// Θ16: loop at the merged boundary state {c,d,p+}.
		{"cp+d", "p+", []string{`p.L = "P"`, "c.ID = p.ID"}},
		// Θ17: the final b transition carries d.ID = b.ID; the inter-set
		// time constraints are structural, not condition checks.
		{"cp+d", "b", []string{`b.L = "B"`, "d.ID = b.ID"}},
	}
	for _, c := range cases {
		got := condStrings(c.from, c.via)
		if !sameStringSet(got, c.want) {
			t.Errorf("%s --%s--> conds = %v, want %v", c.from, c.via, got, c.want)
		}
	}
}

func stateByLabel(t *testing.T, a *Automaton, label string) *State {
	t.Helper()
	for i := range a.States {
		if a.StateLabel(i) == label {
			return &a.States[i]
		}
	}
	t.Fatalf("no state labelled %q; have %v", label, allLabels(a))
	return nil
}

func allLabels(a *Automaton) []string {
	var out []string
	for i := range a.States {
		out = append(out, a.StateLabel(i))
	}
	return out
}

func sameStringSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[string]int)
	for _, s := range a {
		m[s]++
	}
	for _, s := range b {
		m[s]--
	}
	for _, n := range m {
		if n != 0 {
			return false
		}
	}
	return true
}

// TestStateCountFormula checks |Q| = 2^|V1| + Σ_{i>=2}(2^|Vi| - 1) on
// random set-size vectors (property test for the concatenation of
// Section 4.2.2).
func TestStateCountFormula(t *testing.T) {
	f := func(sizesRaw []uint8) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		if len(sizesRaw) > 4 {
			sizesRaw = sizesRaw[:4]
		}
		sizes := make([]int, len(sizesRaw))
		total := 0
		for i, s := range sizesRaw {
			sizes[i] = int(s%4) + 1
			total += sizes[i]
		}
		if total > 14 {
			return true
		}
		b := pattern.New()
		want := 0
		name := 'a'
		for i, size := range sizes {
			var vars []pattern.Variable
			for j := 0; j < size; j++ {
				vars = append(vars, pattern.Var(string(name)))
				name++
			}
			b.Set(vars...)
			if i == 0 {
				want += 1 << size
			} else {
				want += 1<<size - 1
			}
		}
		p := b.Within(100).MustBuild()
		a, err := Compile(p, chemoSchema())
		if err != nil {
			t.Fatal(err)
		}
		return a.NumStates() == want && a.States[a.Accept].Vars.Count() == total
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestTransitionInvariants checks structural invariants on random
// patterns: every transition adds exactly its variable (or loops on a
// group variable), targets exist, and the accepting state is reachable.
func TestTransitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		b := pattern.New()
		name := 'a'
		nsets := 1 + rng.Intn(3)
		for i := 0; i < nsets; i++ {
			var vars []pattern.Variable
			nvars := 1 + rng.Intn(3)
			for j := 0; j < nvars; j++ {
				if rng.Intn(3) == 0 {
					vars = append(vars, pattern.Plus(string(name)))
				} else {
					vars = append(vars, pattern.Var(string(name)))
				}
				name++
			}
			b.Set(vars...)
		}
		p := b.Within(100).MustBuild()
		a, err := Compile(p, chemoSchema())
		if err != nil {
			t.Fatal(err)
		}
		reached := map[int]bool{a.Start: true}
		frontier := []int{a.Start}
		for len(frontier) > 0 {
			id := frontier[0]
			frontier = frontier[1:]
			for _, tr := range a.Out[id] {
				from, to := a.States[id].Vars, a.States[tr.Target].Vars
				if tr.Loop {
					if from != to || !a.Vars[tr.Var].Group || !from.Has(tr.Var) {
						t.Fatalf("bad loop %+v on %s", tr, a.StateLabel(id))
					}
				} else {
					if to != from.With(tr.Var) || from.Has(tr.Var) {
						t.Fatalf("bad transition %+v from %s to %s", tr, a.StateLabel(id), a.StateLabel(tr.Target))
					}
				}
				if !reached[tr.Target] {
					reached[tr.Target] = true
					frontier = append(frontier, tr.Target)
				}
			}
		}
		if !reached[a.Accept] {
			t.Fatalf("accepting state unreachable:\n%s", a)
		}
		if len(reached) != a.NumStates() {
			t.Fatalf("only %d of %d states reachable", len(reached), a.NumStates())
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(q1(t), nil); err == nil {
		t.Errorf("nil schema accepted")
	}
	bad := &pattern.Pattern{Window: 1}
	if _, err := Compile(bad, chemoSchema()); err == nil {
		t.Errorf("invalid pattern accepted")
	}
	p := pattern.New().Set(pattern.Var("a")).
		WhereConst("a", "NOPE", pattern.Eq, event.String("x")).
		Within(1).MustBuild()
	if _, err := Compile(p, chemoSchema()); err == nil {
		t.Errorf("unknown attribute accepted")
	}
}

func TestCompileClonesPattern(t *testing.T) {
	p := q1(t)
	a, err := Compile(p, chemoSchema())
	if err != nil {
		t.Fatal(err)
	}
	p.Sets[0][0] = pattern.Var("mutated")
	if a.Pattern.Sets[0][0].Name != "c" {
		t.Errorf("Compile must clone the pattern")
	}
}

func TestPassesFilter(t *testing.T) {
	a := compileQ1(t)
	mk := func(l string) *event.Event {
		return &event.Event{Attrs: []event.Value{
			event.Int(1), event.String(l), event.Float(0), event.String("mg"),
		}}
	}
	for _, l := range []string{"C", "D", "P", "B"} {
		if !a.PassesFilter(mk(l)) {
			t.Errorf("event of type %s should pass the filter", l)
		}
	}
	for _, l := range []string{"X", "", "c"} {
		if a.PassesFilter(mk(l)) {
			t.Errorf("event of type %q should be filtered", l)
		}
	}
}

// TestFilterVacuousVariable: a variable without constant conditions
// makes every event pass (the soundness refinement of Section 4.5
// documented in DESIGN.md).
func TestFilterVacuousVariable(t *testing.T) {
	p := pattern.New().
		Set(pattern.Var("x"), pattern.Var("y")).
		WhereConst("x", "L", pattern.Eq, event.String("C")).
		WhereVars("x", "ID", pattern.Eq, "y", "ID"). // y has no constant condition
		Within(100).MustBuild()
	a, err := Compile(p, chemoSchema())
	if err != nil {
		t.Fatal(err)
	}
	e := &event.Event{Attrs: []event.Value{
		event.Int(1), event.String("ZZZ"), event.Float(0), event.String(""),
	}}
	if !a.PassesFilter(e) {
		t.Errorf("filter must pass all events when some variable has no constant conditions")
	}
}

func TestVarSetOps(t *testing.T) {
	var s VarSet
	s = s.With(3).With(0)
	if !s.Has(3) || !s.Has(0) || s.Has(1) {
		t.Errorf("Has/With wrong: %b", s)
	}
	if s.Count() != 2 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestVarIndexAndInfo(t *testing.T) {
	a := compileQ1(t)
	if a.NumVars() != 4 {
		t.Fatalf("NumVars = %d", a.NumVars())
	}
	wantSets := map[string]int{"c": 0, "p": 0, "d": 0, "b": 1}
	for name, set := range wantSets {
		idx := a.VarIndex(name)
		if idx < 0 {
			t.Fatalf("VarIndex(%s) = %d", name, idx)
		}
		if a.Vars[idx].Set != set {
			t.Errorf("Vars[%s].Set = %d, want %d", name, a.Vars[idx].Set, set)
		}
	}
	if a.VarIndex("zz") != -1 {
		t.Errorf("VarIndex(zz) should be -1")
	}
	if !a.Vars[a.VarIndex("p")].Group {
		t.Errorf("p should be a group variable")
	}
	if got := a.Vars[a.VarIndex("p")].String(); got != "p+" {
		t.Errorf("VarInfo.String = %q", got)
	}
}

func TestWriteDOT(t *testing.T) {
	a := compileQ1(t)
	var b strings.Builder
	if err := a.WriteDOT(&b, "q1"); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	for _, frag := range []string{
		`digraph "q1"`, "doublecircle", "__start ->",
		`label="∅"`, `label="cp+db"`, "c.ID = d.ID",
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q", frag)
		}
	}
	var b2 strings.Builder
	if err := a.WriteDOT(&b2, ""); err != nil || !strings.Contains(b2.String(), `digraph "ses"`) {
		t.Errorf("default name not applied: %v", err)
	}
}

func TestAutomatonString(t *testing.T) {
	s := compileQ1(t).String()
	for _, frag := range []string{"9 states", "17 transitions", "(loop)", "within=11d"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q:\n%s", frag, s)
		}
	}
}

// TestConstChecksFirst ensures the cheap constant checks precede the
// buffer-walking variable checks on every transition.
func TestConstChecksFirst(t *testing.T) {
	a := compileQ1(t)
	for id, ts := range a.Out {
		for _, tr := range ts {
			seenVar := false
			for _, c := range tr.Conds {
				if c.OtherVar >= 0 {
					seenVar = true
				} else if seenVar {
					t.Errorf("constant check after variable check on %s --%s-->",
						a.StateLabel(id), a.Vars[tr.Var])
				}
			}
		}
	}
}

// TestSelfCondition compiles a pattern with v.A φ v.A' and checks the
// SelfOnly flag.
func TestSelfCondition(t *testing.T) {
	p := pattern.New().
		Set(pattern.Plus("x")).
		WhereVars("x", "ID", pattern.Le, "x", "V").
		Within(10).MustBuild()
	a, err := Compile(p, chemoSchema())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ts := range a.Out {
		for _, tr := range ts {
			for _, c := range tr.Conds {
				if c.SelfOnly {
					found = true
					if c.OtherVar != a.VarIndex("x") {
						t.Errorf("SelfOnly OtherVar = %d", c.OtherVar)
					}
				}
			}
		}
	}
	if !found {
		t.Errorf("self condition not compiled onto any transition")
	}
}

// TestEveryConditionCompiled: each condition of a pattern must appear
// on at least one transition (otherwise it would silently never be
// enforced), and conditions between two variables must be attached to
// a transition binding the LATER-available side, randomised over
// pattern shapes.
func TestEveryConditionCompiled(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	attrs := []string{"ID", "L", "V"}
	for trial := 0; trial < 60; trial++ {
		b := pattern.New()
		var names []string
		name := 'a'
		nsets := 1 + rng.Intn(3)
		for i := 0; i < nsets; i++ {
			var vars []pattern.Variable
			for j := 0; j < 1+rng.Intn(2); j++ {
				v := pattern.Var(string(name))
				if rng.Intn(3) == 0 {
					v = pattern.Plus(string(name))
				}
				vars = append(vars, v)
				names = append(names, v.Name)
				name++
			}
			b.Set(vars...)
		}
		nconds := 1 + rng.Intn(4)
		var conds []pattern.Condition
		for c := 0; c < nconds; c++ {
			v := names[rng.Intn(len(names))]
			if rng.Intn(2) == 0 {
				cond := pattern.ConstCond(v, "L", pattern.Eq, event.String("X"))
				conds = append(conds, cond)
				b.Where(cond)
			} else {
				w := names[rng.Intn(len(names))]
				cond := pattern.VarCond(v, attrs[rng.Intn(len(attrs))], pattern.Le, w, attrs[rng.Intn(len(attrs))])
				conds = append(conds, cond)
				b.Where(cond)
			}
		}
		p := b.Within(100).MustBuild()
		a, err := Compile(p, chemoSchema())
		if err != nil {
			// Type mismatches (e.g. L vs V) are legitimate compile
			// errors for randomly drawn conditions.
			continue
		}
		for _, cond := range conds {
			found := false
			for _, ts := range a.Out {
				for _, tr := range ts {
					for _, cc := range tr.Conds {
						if cc.Source.String() == cond.String() {
							found = true
						}
					}
				}
			}
			if !found {
				t.Fatalf("trial %d: condition %q compiled onto no transition\npattern:\n%s\n%s",
					trial, cond, p, a)
			}
		}
	}
}
