package event

import (
	"fmt"
	"slices"
	"strings"
)

// Field is one non-temporal attribute of an event schema.
type Field struct {
	Name string
	Type Type
}

// Schema describes the non-temporal attributes A1..Al of an event
// relation. The temporal attribute T is implicit: every event carries
// an occurrence time in addition to its schema attributes.
type Schema struct {
	fields []Field
	byName map[string]int
	// sorted lists the field indexes in name order, for encoders that
	// render attributes as a key-sorted object (see SortedField).
	sorted []int
}

// NewSchema builds a schema from the given fields. Field names must be
// non-empty, must not contain '.', ',' or ':' (reserved by the query
// language and the CSV codec), and must be unique.
func NewSchema(fields ...Field) (*Schema, error) {
	s := &Schema{
		fields: make([]Field, len(fields)),
		byName: make(map[string]int, len(fields)),
	}
	copy(s.fields, fields)
	for i, f := range s.fields {
		if f.Name == "" {
			return nil, fmt.Errorf("event: schema field %d has empty name", i)
		}
		if strings.ContainsAny(f.Name, ".,:") {
			return nil, fmt.Errorf("event: schema field %q contains a reserved character", f.Name)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("event: duplicate schema field %q", f.Name)
		}
		s.byName[f.Name] = i
		s.sorted = append(s.sorted, i)
	}
	slices.SortFunc(s.sorted, func(a, b int) int { return strings.Compare(s.fields[a].Name, s.fields[b].Name) })
	return s, nil
}

// MustSchema is like NewSchema but panics on error. Intended for
// statically known schemas in tests and examples.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumFields returns the number of non-temporal attributes.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the i-th field. It panics when i is out of range.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// SortedField returns the index of the field that is k-th in name
// order (byte-wise, as encoding/json sorts map keys). The order is
// computed once, when the schema is built.
func (s *Schema) SortedField(k int) int { return s.sorted[k] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// Index returns the position of the named field and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// Equal reports whether two schemas have identical field lists.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil || len(s.fields) != len(o.fields) {
		return false
	}
	for i, f := range s.fields {
		if o.fields[i] != f {
			return false
		}
	}
	return true
}

// String renders the schema as "name:type, ...".
func (s *Schema) String() string {
	var b strings.Builder
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(':')
		b.WriteString(f.Type.String())
	}
	return b.String()
}

// Check validates that vals conforms to the schema: one value per
// field, each of the field's kind.
func (s *Schema) Check(vals []Value) error {
	if len(vals) != len(s.fields) {
		return fmt.Errorf("event: got %d values for schema with %d fields", len(vals), len(s.fields))
	}
	for i, v := range vals {
		if want := s.fields[i].Type.Kind(); v.Kind() != want {
			return fmt.Errorf("event: field %q expects %s, got %s", s.fields[i].Name, want, v.Kind())
		}
	}
	return nil
}
