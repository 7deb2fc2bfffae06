package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"orchestra/internal/spread"
)

// Instance is one participant's materialized database instance I_i(Σ): for
// each relation, a map from encoded key to the row holding that key.
// Instances enforce the schema's integrity constraints (key uniqueness,
// NOT NULL, foreign keys); an update that would violate them is
// *incompatible* with the instance in the paper's sense.
type Instance struct {
	schema *Schema
	rels   map[string]*spread.Map[string, row] // rel -> keyEnc -> row
	// fkCount tracks, per referenced relation, how many referencing tuples
	// point at each referenced key (for reverse foreign-key checks).
	fkCount map[string]map[string]int
}

// row is the value a key holds and the transaction that produced it (set
// by the engine, see provenance.go; zero in an instance no engine owns).
type row struct {
	t  Tuple
	by TxnID
}

// NewInstance returns an empty instance of the schema.
func NewInstance(s *Schema) *Instance {
	in := &Instance{
		schema:  s,
		rels:    make(map[string]*spread.Map[string, row], s.Len()),
		fkCount: make(map[string]map[string]int),
	}
	for _, name := range s.Names() {
		m := spread.Make[string, row]()
		in.rels[name] = &m
	}
	return in
}

// Schema returns the instance's schema.
func (in *Instance) Schema() *Schema { return in.schema }

// Lookup returns the tuple holding the given key, if any.
func (in *Instance) Lookup(rel string, key Tuple) (Tuple, bool) {
	return in.lookupEnc(rel, key.Encode())
}

// lookupEnc is Lookup with a pre-encoded key.
func (in *Instance) lookupEnc(rel, keyEnc string) (Tuple, bool) {
	m, ok := in.rels[rel]
	if !ok {
		return nil, false
	}
	r, ok := m.Get(keyEnc)
	return r.t, ok
}

// Len returns the number of tuples in a relation.
func (in *Instance) Len(rel string) int {
	if m, ok := in.rels[rel]; ok {
		return m.Len()
	}
	return 0
}

// TotalLen returns the number of tuples across all relations.
func (in *Instance) TotalLen() int {
	n := 0
	for _, m := range in.rels {
		n += m.Len()
	}
	return n
}

// Tuples returns the tuples of a relation sorted by key encoding, for
// deterministic iteration.
func (in *Instance) Tuples(rel string) []Tuple {
	rows := in.sortedRows(rel)
	out := make([]Tuple, len(rows))
	for i, r := range rows {
		out[i] = r.Tuple
	}
	return out
}

// sortedRows returns the rows of a relation sorted by key encoding.
func (in *Instance) sortedRows(rel string) []RowSnapshot {
	type kr struct {
		k string
		r RowSnapshot
	}
	krs := make([]kr, 0, in.Len(rel))
	if m, ok := in.rels[rel]; ok {
		for k, r := range m.All() {
			krs = append(krs, kr{k, RowSnapshot{Tuple: r.t, By: r.by}})
		}
	}
	slices.SortFunc(krs, func(a, b kr) int { return strings.Compare(a.k, b.k) })
	out := make([]RowSnapshot, len(krs))
	for i, x := range krs {
		out[i] = x.r
	}
	return out
}

// holds reports whether the instance holds t at the key that encodes to
// keyEnc. A nil instance holds nothing.
func (in *Instance) holds(rel, keyEnc string, t Tuple) bool {
	if in == nil {
		return false
	}
	cur, ok := in.lookupEnc(rel, keyEnc)
	return ok && cur.Equal(t)
}

// Keys returns the encoded keys present in a relation, sorted.
func (in *Instance) Keys(rel string) []string {
	keys := make([]string, 0, in.Len(rel))
	if m, ok := in.rels[rel]; ok {
		for k := range m.All() {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Clone returns a deep copy of the instance (tuples are shared; they are
// immutable by convention).
func (in *Instance) Clone() *Instance {
	cp := &Instance{
		schema:  in.schema,
		rels:    make(map[string]*spread.Map[string, row], len(in.rels)),
		fkCount: make(map[string]map[string]int, len(in.fkCount)),
	}
	for name, m := range in.rels {
		nm := m.Clone()
		cp.rels[name] = &nm
	}
	for name, m := range in.fkCount {
		nm := make(map[string]int, len(m))
		for k, v := range m {
			nm[k] = v
		}
		cp.fkCount[name] = nm
	}
	return cp
}

// Equal reports whether two instances hold exactly the same tuples.
func (in *Instance) Equal(other *Instance) bool {
	if len(in.rels) != len(other.rels) {
		return false
	}
	for name, m := range in.rels {
		om, ok := other.rels[name]
		if !ok || m.Len() != om.Len() {
			return false
		}
		for k, r := range m.All() {
			or, ok := om.Get(k)
			if !ok || !r.t.Equal(or.t) {
				return false
			}
		}
	}
	return true
}

// IncompatibleError describes why an update cannot be applied to an
// instance without violating its integrity constraints.
type IncompatibleError struct {
	Update Update
	Reason string
}

func (e *IncompatibleError) Error() string {
	return fmt.Sprintf("core: update %s incompatible with instance: %s", e.Update, e.Reason)
}

func incompat(u Update, format string, args ...any) error {
	return &IncompatibleError{Update: u, Reason: fmt.Sprintf(format, args...)}
}

// Compatible reports whether applying u to the current instance preserves
// all integrity constraints; it returns nil if so and an
// *IncompatibleError otherwise. Inserting a tuple that is already present
// verbatim is a compatible no-op. The rule itself is overlay.apply, here
// over an overlay with nothing pending and nowhere to record.
func (in *Instance) Compatible(u Update) error {
	ov := overlay{base: in}
	return ov.apply(u)
}

// Apply applies a single update after re-checking compatibility. The
// instance is unchanged on error.
func (in *Instance) Apply(u Update) error {
	if err := in.Compatible(u); err != nil {
		return err
	}
	in.applyUnchecked(u)
	return nil
}

// applyUnchecked mutates the instance assuming Compatible(u) == nil. An
// insert of the value its key already holds changes nothing, as
// overlay.apply has it: put would count its references a second time.
func (in *Instance) applyUnchecked(u Update) {
	rel := in.schema.MustRelation(u.Rel)
	switch u.Op {
	case OpInsert:
		keyEnc := u.keyEncTuple(rel)
		if in.holds(u.Rel, keyEnc, u.Tuple) {
			return
		}
		in.put(rel, u.Tuple, keyEnc, TxnID{})
	case OpDelete:
		in.del(rel, u.Tuple, u.keyEncTuple(rel))
	case OpModify:
		in.del(rel, u.Tuple, u.keyEncTuple(rel))
		in.put(rel, u.New, u.keyEncNew(rel), TxnID{})
	}
}

// put binds keyEnc to t, produced by by (zero: attributed later, if ever).
func (in *Instance) put(rel *Relation, t Tuple, keyEnc string, by TxnID) {
	in.rels[rel.Name].Set(keyEnc, row{t: t, by: by})
	for _, fk := range rel.ForeignKeys {
		m := in.fkCount[fk.RefRel]
		if m == nil {
			m = make(map[string]int)
			in.fkCount[fk.RefRel] = m
		}
		m[t.Project(fk.Attrs).Encode()]++
	}
}

func (in *Instance) del(rel *Relation, t Tuple, keyEnc string) {
	in.rels[rel.Name].Delete(keyEnc)
	for _, fk := range rel.ForeignKeys {
		if m := in.fkCount[fk.RefRel]; m != nil {
			enc := t.Project(fk.Attrs).Encode()
			if m[enc]--; m[enc] <= 0 {
				delete(m, enc)
			}
		}
	}
}

// ApplyAll applies a sequence of updates, checking compatibility against the
// evolving instance. If any update is incompatible it returns the error and
// rolls back nothing: callers that need atomicity use CompatibleAll first.
func (in *Instance) ApplyAll(us []Update) error {
	for _, u := range us {
		if err := in.Apply(u); err != nil {
			return err
		}
	}
	return nil
}

// CompatibleAll reports whether the whole sequence can be applied in order
// without violating integrity constraints, using a scratch overlay so the
// instance itself is not modified.
func (in *Instance) CompatibleAll(us []Update) error {
	ov := newOverlay(in)
	for _, u := range us {
		if err := ov.apply(u); err != nil {
			return err
		}
	}
	return nil
}

// overlay is a copy-on-write view of an instance used for trial application
// of update sequences without cloning the full instance. With nil maps it
// reads straight through to the instance and apply only checks.
type overlay struct {
	base *Instance
	// mods maps (rel, keyEnc) to the overlaid tuple; nil tuple = deleted.
	mods map[tupleKey]Tuple
	// fkDelta tracks reference-count changes per referenced relation/key.
	fkDelta map[tupleKey]int
}

func newOverlay(base *Instance) *overlay {
	return &overlay{base: base, mods: make(map[tupleKey]Tuple), fkDelta: make(map[tupleKey]int)}
}

func (ov *overlay) lookup(rel, keyEnc string) (Tuple, bool) {
	k := tupleKey{rel: rel, enc: keyEnc}
	if t, ok := ov.mods[k]; ok {
		if t == nil {
			return nil, false
		}
		return t, true
	}
	return ov.base.lookupEnc(rel, keyEnc)
}

func (ov *overlay) refCount(rel, keyEnc string) int {
	n := 0
	if m := ov.base.fkCount[rel]; m != nil {
		n = m[keyEnc]
	}
	return n + ov.fkDelta[tupleKey{rel: rel, enc: keyEnc}]
}

func (ov *overlay) bumpRefs(rel *Relation, t Tuple, delta int) {
	for _, fk := range rel.ForeignKeys {
		k := tupleKey{rel: fk.RefRel, enc: t.Project(fk.Attrs).Encode()}
		ov.fkDelta[k] += delta
	}
}

// checkForeignKeys verifies every foreign key of rel holds for tuple t.
func (ov *overlay) checkForeignKeys(rel *Relation, u Update, t Tuple) error {
	for _, fk := range rel.ForeignKeys {
		refEnc := t.Project(fk.Attrs).Encode()
		if _, ok := ov.lookup(fk.RefRel, refEnc); !ok {
			return incompat(u, "dangling reference into %s", fk.RefRel)
		}
	}
	return nil
}

// apply is the integrity rule, stated once: it checks u against the
// instance as the pending changes leave it and, when the overlay records
// (mods non-nil), adds u to them.
func (ov *overlay) apply(u Update) error {
	rel, ok := ov.base.schema.Relation(u.Rel)
	if !ok {
		return incompat(u, "unknown relation %s", u.Rel)
	}
	record := ov.mods != nil
	switch u.Op {
	case OpInsert:
		if err := rel.Validate(u.Tuple); err != nil {
			return incompat(u, "%v", err)
		}
		keyEnc := u.keyEncTuple(rel)
		if cur, exists := ov.lookup(u.Rel, keyEnc); exists {
			if cur.Equal(u.Tuple) {
				return nil // idempotent
			}
			return incompat(u, "key already bound to %s", cur)
		}
		if err := ov.checkForeignKeys(rel, u, u.Tuple); err != nil || !record {
			return err
		}
		ov.mods[tupleKey{rel: u.Rel, enc: keyEnc}] = u.Tuple
		ov.bumpRefs(rel, u.Tuple, 1)
		return nil
	case OpDelete:
		keyEnc := u.keyEncTuple(rel)
		cur, exists := ov.lookup(u.Rel, keyEnc)
		if !exists {
			return incompat(u, "tuple absent")
		}
		if !cur.Equal(u.Tuple) {
			return incompat(u, "key bound to different value %s", cur)
		}
		if n := ov.refCount(u.Rel, keyEnc); n > 0 {
			return incompat(u, "key referenced by %d tuple(s)", n)
		}
		if record {
			ov.mods[tupleKey{rel: u.Rel, enc: keyEnc}] = nil
			ov.bumpRefs(rel, u.Tuple, -1)
		}
		return nil
	case OpModify:
		if err := rel.Validate(u.New); err != nil {
			return incompat(u, "%v", err)
		}
		oldKey, newKey := u.keyEncTuple(rel), u.keyEncNew(rel)
		cur, exists := ov.lookup(u.Rel, oldKey)
		if !exists {
			return incompat(u, "source tuple absent")
		}
		if !cur.Equal(u.Tuple) {
			return incompat(u, "source key bound to different value %s", cur)
		}
		if oldKey != newKey {
			if clash, exists := ov.lookup(u.Rel, newKey); exists {
				return incompat(u, "replacement key already bound to %s", clash)
			}
			if n := ov.refCount(u.Rel, oldKey); n > 0 {
				return incompat(u, "key referenced by %d tuple(s)", n)
			}
		}
		if err := ov.checkForeignKeys(rel, u, u.New); err != nil || !record {
			return err
		}
		if oldKey != newKey {
			ov.mods[tupleKey{rel: u.Rel, enc: oldKey}] = nil
		}
		ov.mods[tupleKey{rel: u.Rel, enc: newKey}] = u.New
		ov.bumpRefs(rel, u.Tuple, -1)
		ov.bumpRefs(rel, u.New, 1)
		return nil
	default:
		return incompat(u, "unknown op")
	}
}
