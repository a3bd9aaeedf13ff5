package event

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Field{Name: "ID", Type: TypeInt},
		Field{Name: "L", Type: TypeString},
		Field{Name: "V", Type: TypeFloat},
	)
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Field{Name: "", Type: TypeInt}); err == nil {
		t.Errorf("empty field name should fail")
	}
	if _, err := NewSchema(Field{Name: "a", Type: TypeInt}, Field{Name: "a", Type: TypeString}); err == nil {
		t.Errorf("duplicate field name should fail")
	}
	for _, bad := range []string{"a.b", "a,b", "a:b"} {
		if _, err := NewSchema(Field{Name: bad, Type: TypeInt}); err == nil {
			t.Errorf("reserved character in %q should fail", bad)
		}
	}
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	if s.NumFields() != 3 {
		t.Fatalf("NumFields = %d", s.NumFields())
	}
	if i, ok := s.Index("L"); !ok || i != 1 {
		t.Errorf("Index(L) = %d, %v", i, ok)
	}
	if _, ok := s.Index("missing"); ok {
		t.Errorf("Index(missing) should not exist")
	}
	if got := s.String(); got != "ID:int, L:string, V:float" {
		t.Errorf("String() = %q", got)
	}
	if f := s.Field(2); f.Name != "V" || f.Type != TypeFloat {
		t.Errorf("Field(2) = %v", f)
	}
	fs := s.Fields()
	fs[0].Name = "mutated"
	if s.Field(0).Name != "ID" {
		t.Errorf("Fields() must return a copy")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := testSchema(t)
	b := testSchema(t)
	if !a.Equal(b) || !a.Equal(a) {
		t.Errorf("identical schemas should be equal")
	}
	c := MustSchema(Field{Name: "ID", Type: TypeInt})
	if a.Equal(c) || a.Equal(nil) {
		t.Errorf("different schemas should not be equal")
	}
}

func TestSchemaCheck(t *testing.T) {
	s := testSchema(t)
	if err := s.Check([]Value{Int(1), String("C"), Float(2)}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.Check([]Value{Int(1), String("C")}); err == nil {
		t.Errorf("arity mismatch accepted")
	}
	if err := s.Check([]Value{Int(1), Int(2), Float(2)}); err == nil {
		t.Errorf("kind mismatch accepted")
	}
}

func TestRelationAppendAndOrder(t *testing.T) {
	r := NewRelation(testSchema(t))
	r.MustAppend(10, Int(1), String("C"), Float(1))
	r.MustAppend(5, Int(2), String("D"), Float(2))
	if r.Sorted() {
		t.Errorf("relation with decreasing times reported sorted")
	}
	r.SortByTime()
	if !r.Sorted() {
		t.Fatalf("SortByTime did not mark sorted")
	}
	if r.Event(0).Time != 5 || r.Event(1).Time != 10 {
		t.Errorf("events not sorted: %v", r.Events())
	}
	if r.Event(0).Seq != 0 || r.Event(1).Seq != 1 {
		t.Errorf("sequence numbers not reassigned: %v", r.Events())
	}
	if err := r.Append(1, Int(1)); err == nil {
		t.Errorf("schema-violating append accepted")
	}
}

func TestRelationSortStability(t *testing.T) {
	r := NewRelation(testSchema(t))
	r.MustAppend(7, Int(1), String("a"), Float(0))
	r.MustAppend(5, Int(2), String("b"), Float(0))
	r.MustAppend(5, Int(3), String("c"), Float(0))
	r.SortByTime()
	if r.Event(0).Attrs[0].Int64() != 2 || r.Event(1).Attrs[0].Int64() != 3 {
		t.Errorf("sort not stable on equal timestamps: %v", r.Events())
	}
}

func TestRelationDuplicate(t *testing.T) {
	r := NewRelation(testSchema(t))
	r.MustAppend(1, Int(1), String("a"), Float(0))
	r.MustAppend(2, Int(2), String("b"), Float(0))
	d := r.Duplicate(3)
	if d.Len() != 6 {
		t.Fatalf("Duplicate(3).Len() = %d", d.Len())
	}
	for i := 0; i < 3; i++ {
		if d.Event(i).Time != 1 || d.Event(i).Attrs[1].Str() != "a" {
			t.Errorf("event %d = %v", i, d.Event(i))
		}
	}
	for i := 0; i < d.Len(); i++ {
		if d.Event(i).Seq != i {
			t.Errorf("Seq %d = %d", i, d.Event(i).Seq)
		}
	}
	if !d.Sorted() {
		t.Errorf("duplicate of sorted relation should be sorted")
	}
	// Mutating the duplicate must not affect the original.
	d.Event(0).Attrs[1] = String("mutated")
	if r.Event(0).Attrs[1].Str() != "a" {
		t.Errorf("Duplicate shares attribute storage with original")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Duplicate(0) should panic")
		}
	}()
	r.Duplicate(0)
}

func TestRelationWindowSize(t *testing.T) {
	r := NewRelation(testSchema(t))
	for _, tt := range []Time{0, 1, 2, 10, 11, 12, 13, 30} {
		r.MustAppend(tt, Int(1), String("a"), Float(0))
	}
	cases := []struct {
		tau  Duration
		want int
	}{
		{0, 1},   // only simultaneous events share a window
		{2, 3},   // {0,1,2} and {10,11,12}
		{3, 4},   // {10,11,12,13}
		{13, 7},  // {0..13}
		{100, 8}, // everything
	}
	for _, c := range cases {
		if got := r.WindowSize(c.tau); got != c.want {
			t.Errorf("WindowSize(%d) = %d, want %d", c.tau, got, c.want)
		}
	}
}

func TestWindowSizeScalesWithDuplication(t *testing.T) {
	// Section 5.1: duplicating each event k times scales W by k.
	rng := rand.New(rand.NewSource(1))
	r := NewRelation(testSchema(t))
	tt := Time(0)
	for i := 0; i < 200; i++ {
		tt += Time(rng.Intn(5))
		r.MustAppend(tt, Int(1), String("a"), Float(0))
	}
	w := r.WindowSize(50)
	for k := 2; k <= 5; k++ {
		if got := r.Duplicate(k).WindowSize(50); got != k*w {
			t.Errorf("Duplicate(%d) window = %d, want %d", k, got, k*w)
		}
	}
}

func TestWindowSizeProperty(t *testing.T) {
	// W is monotone in tau and bounded by the relation size.
	f := func(times []uint8, tau uint8) bool {
		r := NewRelation(MustSchema(Field{Name: "x", Type: TypeInt}))
		for _, tt := range times {
			r.MustAppend(Time(tt), Int(0))
		}
		r.SortByTime()
		w1 := r.WindowSize(Duration(tau))
		w2 := r.WindowSize(Duration(tau) + 1)
		return w1 <= w2 && w2 <= r.Len() && (r.Len() == 0 || w1 >= 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelationPartition(t *testing.T) {
	r := NewRelation(testSchema(t))
	r.MustAppend(1, Int(1), String("a"), Float(0))
	r.MustAppend(2, Int(2), String("b"), Float(0))
	r.MustAppend(3, Int(1), String("c"), Float(0))
	parts, err := r.Partition("ID")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("got %d partitions", len(parts))
	}
	p1 := parts[Int(1)]
	if p1.Len() != 2 || p1.Event(0).Attrs[1].Str() != "a" || p1.Event(1).Attrs[1].Str() != "c" {
		t.Errorf("partition 1 = %v", p1.Events())
	}
	if p1.Event(0).Seq != 0 || p1.Event(1).Seq != 2 {
		t.Errorf("partition must preserve original sequence numbers: %v", p1.Events())
	}
	if _, err := r.Partition("missing"); err == nil {
		t.Errorf("Partition(missing) should fail")
	}
}

func TestRelationFilterAndClone(t *testing.T) {
	r := NewRelation(testSchema(t))
	r.MustAppend(1, Int(1), String("a"), Float(0))
	r.MustAppend(2, Int(2), String("b"), Float(0))
	f := r.Filter(func(e *Event) bool { return e.Attrs[1].Str() == "b" })
	if f.Len() != 1 || f.Event(0).Seq != 1 || f.Event(0).Attrs[1].Str() != "b" {
		t.Errorf("Filter must preserve sequence numbers: %v", f.Events())
	}
	c := r.Clone()
	c.Event(0).Attrs[1] = String("mutated")
	if r.Event(0).Attrs[1].Str() != "a" {
		t.Errorf("Clone shares storage")
	}
}

func TestTimeSpan(t *testing.T) {
	r := NewRelation(testSchema(t))
	if _, _, ok := r.TimeSpan(); ok {
		t.Errorf("empty relation should have no span")
	}
	r.MustAppend(3, Int(1), String("a"), Float(0))
	r.MustAppend(9, Int(1), String("a"), Float(0))
	first, last, ok := r.TimeSpan()
	if !ok || first != 3 || last != 9 {
		t.Errorf("TimeSpan = %d, %d, %v", first, last, ok)
	}
}

func TestDurationString(t *testing.T) {
	for _, c := range []struct {
		d    Duration
		want string
	}{
		{264 * Hour, "11d"},
		{2 * Hour, "2h"},
		{90 * Second, "90s"},
		{5 * Minute, "5m"},
		{0, "0s"},
	} {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 4, Time: 99, Attrs: []Value{Int(1), String("C")}}
	if got := e.String(); got != `e4(1, "C" @99)` {
		t.Errorf("Event.String() = %q", got)
	}
}

func TestMerge(t *testing.T) {
	s := testSchema(t)
	a := NewRelation(s)
	a.MustAppend(1, Int(1), String("a1"), Float(0))
	a.MustAppend(5, Int(1), String("a2"), Float(0))
	b := NewRelation(s)
	b.MustAppend(2, Int(2), String("b1"), Float(0))
	b.MustAppend(5, Int(2), String("b2"), Float(0))
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 4 || !m.Sorted() {
		t.Fatalf("merge = %v", m.Events())
	}
	got := ""
	for _, e := range m.Events() {
		got += e.Attrs[1].Str() + ","
	}
	// Stable on ties: a2 (from the first argument) precedes b2.
	if got != "a1,b1,a2,b2," {
		t.Errorf("order = %s", got)
	}
	for i, e := range m.Events() {
		if e.Seq != i {
			t.Errorf("Seq %d = %d", i, e.Seq)
		}
	}
	// Mutation isolation.
	m.Event(0).Attrs[1] = String("mutated")
	if a.Event(0).Attrs[1].Str() != "a1" {
		t.Errorf("Merge shares storage")
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge(); err == nil {
		t.Errorf("Merge() should fail")
	}
	s := testSchema(t)
	a := NewRelation(s)
	other := NewRelation(MustSchema(Field{Name: "x", Type: TypeInt}))
	if _, err := Merge(a, other); err == nil {
		t.Errorf("schema mismatch accepted")
	}
	unsorted := NewRelation(s)
	unsorted.MustAppend(5, Int(1), String("x"), Float(0))
	unsorted.MustAppend(1, Int(1), String("y"), Float(0))
	if _, err := Merge(unsorted); err == nil {
		t.Errorf("unsorted input accepted")
	}
}

func TestMergePropertySortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := MustSchema(Field{Name: "src", Type: TypeInt})
	for trial := 0; trial < 40; trial++ {
		var rels []*Relation
		total := 0
		for k := 0; k < 1+rng.Intn(4); k++ {
			r := NewRelation(s)
			tt := Time(0)
			n := rng.Intn(10)
			for i := 0; i < n; i++ {
				tt += Time(rng.Intn(4))
				r.MustAppend(tt, Int(int64(k)))
			}
			total += n
			rels = append(rels, r)
		}
		m, err := Merge(rels...)
		if err != nil {
			t.Fatal(err)
		}
		if m.Len() != total || !m.Sorted() {
			t.Fatalf("trial %d: len=%d want %d sorted=%v", trial, m.Len(), total, m.Sorted())
		}
		for i := 1; i < m.Len(); i++ {
			if m.Event(i-1).Time > m.Event(i).Time {
				t.Fatalf("trial %d: unsorted output", trial)
			}
		}
	}
}
