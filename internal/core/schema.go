package core

import (
	"fmt"
	"sort"
)

// AttrDef declares one attribute of a relation.
type AttrDef struct {
	Name string
	Kind Kind // expected kind; KindNull means any kind is accepted
	// NotNull forbids NULL values in this attribute.
	NotNull bool
}

// ForeignKey declares that a projection of this relation references the key
// of another relation. It is checked by Instance compatibility tests: an
// update is incompatible with an instance if applying it would leave a
// dangling reference or delete a referenced key.
type ForeignKey struct {
	// Attrs are the indices, in this relation, of the referencing columns.
	Attrs []int
	// RefRel is the name of the referenced relation; the referenced columns
	// are RefRel's key attributes, in order.
	RefRel string
}

// Relation describes one relation (table) in the shared schema Σ: its name,
// attributes, key, and integrity constraints.
type Relation struct {
	Name  string
	Attrs []AttrDef
	// Key lists the indices of the key attributes, e.g. (organism, protein)
	// for F(organism, protein, function) is []int{0, 1}.
	Key []int
	// ForeignKeys are optional referential constraints.
	ForeignKeys []ForeignKey
}

// NewRelation builds a relation with string-typed attributes whose names are
// attrs and whose key is the first nkey attributes. It is the convenient
// constructor for the paper's examples and workloads.
func NewRelation(name string, nkey int, attrs ...string) *Relation {
	r := &Relation{Name: name}
	for _, a := range attrs {
		r.Attrs = append(r.Attrs, AttrDef{Name: a, Kind: KindString, NotNull: true})
	}
	for i := 0; i < nkey; i++ {
		r.Key = append(r.Key, i)
	}
	return r
}

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// KeyOf projects a tuple onto the relation's key attributes.
func (r *Relation) KeyOf(t Tuple) Tuple { return t.Project(r.Key) }

// KeyEnc returns the canonical encoding of the tuple's key projection,
// KeyOf(t).Encode(), encoded straight from t's key columns.
func (r *Relation) KeyEnc(t Tuple) string {
	n := 0
	for _, j := range r.Key {
		n += t[j].encodedLen()
	}
	var buf [64]byte
	dst := sized(buf[:0], n)
	for _, j := range r.Key {
		dst = t[j].appendEncoded(dst)
	}
	return string(dst)
}

// Validate checks a tuple's arity, attribute kinds and NOT NULL constraints
// against the relation's definition.
func (r *Relation) Validate(t Tuple) error {
	if len(t) != len(r.Attrs) {
		return fmt.Errorf("core: relation %s: tuple arity %d, want %d", r.Name, len(t), len(r.Attrs))
	}
	for i, v := range t {
		a := r.Attrs[i]
		if v.IsNull() {
			if a.NotNull {
				return fmt.Errorf("core: relation %s: attribute %s is NOT NULL", r.Name, a.Name)
			}
			continue
		}
		if a.Kind != KindNull && v.Kind() != a.Kind {
			return fmt.Errorf("core: relation %s: attribute %s has kind %s, want %s",
				r.Name, a.Name, v.Kind(), a.Kind)
		}
	}
	return nil
}

// validateStructure checks the relation definition itself.
func (r *Relation) validateStructure() error {
	if r.Name == "" {
		return fmt.Errorf("core: relation with empty name")
	}
	if len(r.Attrs) == 0 {
		return fmt.Errorf("core: relation %s has no attributes", r.Name)
	}
	if len(r.Key) == 0 {
		return fmt.Errorf("core: relation %s has no key", r.Name)
	}
	seen := make(map[string]bool, len(r.Attrs))
	for _, a := range r.Attrs {
		if a.Name == "" {
			return fmt.Errorf("core: relation %s has an unnamed attribute", r.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("core: relation %s: duplicate attribute %s", r.Name, a.Name)
		}
		seen[a.Name] = true
	}
	for _, k := range r.Key {
		if k < 0 || k >= len(r.Attrs) {
			return fmt.Errorf("core: relation %s: key index %d out of range", r.Name, k)
		}
	}
	return nil
}

// AttrIndex returns the index of the named attribute, or -1.
func (r *Relation) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Schema is the set of relations Σ shared by all participants.
type Schema struct {
	rels  map[string]*Relation
	order []string
}

// NewSchema builds a schema from relations, validating each definition and
// every foreign-key reference.
func NewSchema(rels ...*Relation) (*Schema, error) {
	s := &Schema{rels: make(map[string]*Relation, len(rels))}
	for _, r := range rels {
		if err := r.validateStructure(); err != nil {
			return nil, err
		}
		if _, dup := s.rels[r.Name]; dup {
			return nil, fmt.Errorf("core: duplicate relation %s", r.Name)
		}
		s.rels[r.Name] = r
		s.order = append(s.order, r.Name)
	}
	for _, r := range rels {
		for _, fk := range r.ForeignKeys {
			ref, ok := s.rels[fk.RefRel]
			if !ok {
				return nil, fmt.Errorf("core: relation %s: foreign key references unknown relation %s", r.Name, fk.RefRel)
			}
			if len(fk.Attrs) != len(ref.Key) {
				return nil, fmt.Errorf("core: relation %s: foreign key arity %d, referenced key arity %d",
					r.Name, len(fk.Attrs), len(ref.Key))
			}
			for _, a := range fk.Attrs {
				if a < 0 || a >= len(r.Attrs) {
					return nil, fmt.Errorf("core: relation %s: foreign key attribute index %d out of range", r.Name, a)
				}
			}
		}
	}
	sort.Strings(s.order)
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(rels ...*Relation) *Schema {
	s, err := NewSchema(rels...)
	if err != nil {
		panic(err)
	}
	return s
}

// Relation returns the named relation.
func (s *Schema) Relation(name string) (*Relation, bool) {
	r, ok := s.rels[name]
	return r, ok
}

// MustRelation returns the named relation or panics; for internal use where
// the name has already been validated.
func (s *Schema) MustRelation(name string) *Relation {
	r, ok := s.rels[name]
	if !ok {
		panic(fmt.Sprintf("core: unknown relation %s", name))
	}
	return r
}

// Names returns the relation names in sorted order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Len returns the number of relations.
func (s *Schema) Len() int { return len(s.rels) }

// referrers returns, for each relation name, the foreign keys (and their
// owning relations) that reference it. Used by Instance to maintain
// reverse reference counts.
func (s *Schema) referrers(name string) []fkRef {
	var out []fkRef
	for _, rn := range s.order {
		r := s.rels[rn]
		for i, fk := range r.ForeignKeys {
			if fk.RefRel == name {
				out = append(out, fkRef{rel: r, fkIdx: i})
			}
		}
	}
	return out
}

type fkRef struct {
	rel   *Relation
	fkIdx int
}
