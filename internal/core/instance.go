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

// incompatibility is why an update cannot be applied, zero when it can:
// the reason's format, with at most one verb, and that verb's argument in
// the field of its kind. A check builds nothing; the error text is made
// only for a caller that asks for an error (err).
type incompatibility struct {
	format string
	kind   argKind
	str    string // argStr
	tuple  Tuple  // argTuple
	n      int    // argInt
	cause  error  // argErr
}

type argKind uint8

const (
	argNone argKind = iota
	argStr
	argTuple
	argInt
	argErr
)

func (w incompatibility) ok() bool { return w.format == "" }

// err returns w as an *IncompatibleError about u, nil when w is zero.
func (w incompatibility) err(u Update) error {
	reason := w.format
	switch w.kind {
	case argStr:
		reason = fmt.Sprintf(w.format, w.str)
	case argTuple:
		reason = fmt.Sprintf(w.format, w.tuple)
	case argInt:
		reason = fmt.Sprintf(w.format, w.n)
	case argErr:
		reason = fmt.Sprintf(w.format, w.cause)
	}
	if reason == "" {
		return nil
	}
	return &IncompatibleError{Update: u, Reason: reason}
}

// Compatible reports whether applying u to the current instance preserves
// all integrity constraints; it returns nil if so and an
// *IncompatibleError otherwise. Inserting a tuple that is already present
// verbatim is a compatible no-op. The rule itself is overlay.apply, here
// over an overlay with nothing pending and nowhere to record.
func (in *Instance) Compatible(u Update) error {
	return in.check(u).err(u)
}

// compatible is Compatible for a caller that only needs the answer.
func (in *Instance) compatible(u Update) bool { return in.check(u).ok() }

func (in *Instance) check(u Update) incompatibility {
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
		if w := ov.apply(u); !w.ok() {
			return w.err(u)
		}
	}
	return nil
}

// compatibleAll is CompatibleAll for a caller that only needs the answer.
func (in *Instance) compatibleAll(us []Update) bool {
	ov := newOverlay(in)
	for _, u := range us {
		if !ov.apply(u).ok() {
			return false
		}
	}
	return true
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
func (ov *overlay) checkForeignKeys(rel *Relation, t Tuple) incompatibility {
	for _, fk := range rel.ForeignKeys {
		refEnc := t.Project(fk.Attrs).Encode()
		if _, ok := ov.lookup(fk.RefRel, refEnc); !ok {
			return incompatibility{format: "dangling reference into %s", kind: argStr, str: fk.RefRel}
		}
	}
	return incompatibility{}
}

// apply is the integrity rule, stated once: it checks u against the
// instance as the pending changes leave it and, when the overlay records
// (mods non-nil), adds u to them.
func (ov *overlay) apply(u Update) incompatibility {
	rel, ok := ov.base.schema.Relation(u.Rel)
	if !ok {
		return incompatibility{format: "unknown relation %s", kind: argStr, str: u.Rel}
	}
	record := ov.mods != nil
	switch u.Op {
	case OpInsert:
		if err := rel.Validate(u.Tuple); err != nil {
			return incompatibility{format: "%v", kind: argErr, cause: err}
		}
		keyEnc := u.keyEncTuple(rel)
		if cur, exists := ov.lookup(u.Rel, keyEnc); exists {
			if cur.Equal(u.Tuple) {
				return incompatibility{} // idempotent
			}
			return incompatibility{format: "key already bound to %s", kind: argTuple, tuple: cur}
		}
		if w := ov.checkForeignKeys(rel, u.Tuple); !w.ok() || !record {
			return w
		}
		ov.mods[tupleKey{rel: u.Rel, enc: keyEnc}] = u.Tuple
		ov.bumpRefs(rel, u.Tuple, 1)
		return incompatibility{}
	case OpDelete:
		keyEnc := u.keyEncTuple(rel)
		cur, exists := ov.lookup(u.Rel, keyEnc)
		if !exists {
			return incompatibility{format: "tuple absent"}
		}
		if !cur.Equal(u.Tuple) {
			return incompatibility{format: "key bound to different value %s", kind: argTuple, tuple: cur}
		}
		if n := ov.refCount(u.Rel, keyEnc); n > 0 {
			return incompatibility{format: "key referenced by %d tuple(s)", kind: argInt, n: n}
		}
		if record {
			ov.mods[tupleKey{rel: u.Rel, enc: keyEnc}] = nil
			ov.bumpRefs(rel, u.Tuple, -1)
		}
		return incompatibility{}
	case OpModify:
		if err := rel.Validate(u.New); err != nil {
			return incompatibility{format: "%v", kind: argErr, cause: err}
		}
		oldKey, newKey := u.keyEncTuple(rel), u.keyEncNew(rel)
		cur, exists := ov.lookup(u.Rel, oldKey)
		if !exists {
			return incompatibility{format: "source tuple absent"}
		}
		if !cur.Equal(u.Tuple) {
			return incompatibility{format: "source key bound to different value %s", kind: argTuple, tuple: cur}
		}
		if oldKey != newKey {
			if clash, exists := ov.lookup(u.Rel, newKey); exists {
				return incompatibility{format: "replacement key already bound to %s", kind: argTuple, tuple: clash}
			}
			if n := ov.refCount(u.Rel, oldKey); n > 0 {
				return incompatibility{format: "key referenced by %d tuple(s)", kind: argInt, n: n}
			}
		}
		if w := ov.checkForeignKeys(rel, u.New); !w.ok() || !record {
			return w
		}
		if oldKey != newKey {
			ov.mods[tupleKey{rel: u.Rel, enc: oldKey}] = nil
		}
		ov.mods[tupleKey{rel: u.Rel, enc: newKey}] = u.New
		ov.bumpRefs(rel, u.Tuple, -1)
		ov.bumpRefs(rel, u.New, 1)
		return incompatibility{}
	default:
		return incompatibility{format: "unknown op"}
	}
}
