package core

import "fmt"

// ConflictType classifies why two updates conflict, following §3 and §4 of
// the paper. Conflict groups are keyed by (type, value).
type ConflictType uint8

const (
	// ConflictKeyValue: two updates produce different tuple values for the
	// same key ("updates that change a single antecedent data value into two
	// different values", and writer/writer key-constraint violations).
	ConflictKeyValue ConflictType = iota + 1
	// ConflictDeleteWrite: one update deletes a tuple while the other
	// inserts or replaces a tuple with the same key ("updates that
	// simultaneously remove and replace a data value").
	ConflictDeleteWrite
	// ConflictModifySource: two replacement operations share the same source
	// tuple value but produce different replacements.
	ConflictModifySource
)

// String names the conflict type.
func (t ConflictType) String() string {
	switch t {
	case ConflictKeyValue:
		return "key-value"
	case ConflictDeleteWrite:
		return "delete-write"
	case ConflictModifySource:
		return "modify-source"
	default:
		return fmt.Sprintf("conflict(%d)", uint8(t))
	}
}

// Conflict identifies one conflict: its type, the relation, and the encoded
// key or source value the conflict is about. Conflicts with equal fields are
// the same conflict (and land in the same conflict group).
type Conflict struct {
	Type ConflictType
	Rel  string
	// Value is the encoded key (ConflictKeyValue, ConflictDeleteWrite) or
	// the encoded source tuple (ConflictModifySource).
	Value string
}

// String renders the conflict for diagnostics.
func (c Conflict) String() string {
	t, err := DecodeTuple(c.Value)
	if err != nil {
		return fmt.Sprintf("%s on %s<%q>", c.Type, c.Rel, c.Value)
	}
	return fmt.Sprintf("%s on %s%s", c.Type, c.Rel, t)
}

// UpdatesConflict reports whether two updates conflict under the paper's
// definition (§4), returning the conflicts found. Identical operations never
// conflict. Updates over different relations never conflict.
//
// The rules are:
//  1. both updates produce tuples with the same key but different values
//     (covers insert/insert from the paper's first bullet, and
//     insert-vs-replacement-target, which violates the key constraint);
//  2. one is a deletion and the other inserts or replaces a tuple with the
//     same key, or replaces the very tuple being deleted;
//  3. both are replacements with the same source tuple value but different
//     replacement values.
func UpdatesConflict(s *Schema, a, b Update) []Conflict {
	return appendUpdatesConflict(nil, s, &a, &b)
}

// appendUpdatesConflict appends the conflicts UpdatesConflict returns to
// out.
func appendUpdatesConflict(out []Conflict, s *Schema, a, b *Update) []Conflict {
	if a.Rel != b.Rel || a.Equal(*b) {
		return out
	}
	rel, ok := s.Relation(a.Rel)
	if !ok {
		return out
	}

	// Rule 3: same source, different replacement.
	if a.Op == OpModify && b.Op == OpModify && a.Tuple.Equal(b.Tuple) && !a.New.Equal(b.New) {
		out = append(out, Conflict{Type: ConflictModifySource, Rel: a.Rel, Value: a.tupleEnc()})
	}

	// Rule 1: both produce values for the same key with different contents.
	pa, pb := a.Produces(), b.Produces()
	if pa != nil && pb != nil {
		pka, pkb := a.producedKeyEnc(rel), b.producedKeyEnc(rel)
		if pka == pkb && !pa.Equal(pb) {
			out = append(out, Conflict{Type: ConflictKeyValue, Rel: a.Rel, Value: pka})
		}
	}

	// Rule 2: deletion vs insertion/replacement on the same key.
	if c, ok := deleteWriteConflict(rel, a, b); ok {
		out = append(out, c)
	} else if c, ok := deleteWriteConflict(rel, b, a); ok {
		out = append(out, c)
	}
	return out
}

// producedKeyEnc returns the key encoding of the tuple value the update
// produces; the caller has already checked Produces() != nil.
func (u *Update) producedKeyEnc(rel *Relation) string {
	if u.Op == OpModify {
		return u.keyEncNew(rel)
	}
	return u.keyEncTuple(rel)
}

// deleteWriteConflict checks rule 2 with d as the deletion candidate.
func deleteWriteConflict(rel *Relation, d, w *Update) (Conflict, bool) {
	if d.Op != OpDelete {
		return Conflict{}, false
	}
	dk := d.keyEncTuple(rel)
	switch w.Op {
	case OpInsert:
		if w.keyEncTuple(rel) == dk {
			return Conflict{Type: ConflictDeleteWrite, Rel: d.Rel, Value: dk}, true
		}
	case OpModify:
		// The replacement consumes the deleted tuple, or produces a tuple
		// with the deleted key.
		if w.Tuple.Equal(d.Tuple) || w.keyEncNew(rel) == dk || w.keyEncTuple(rel) == dk {
			return Conflict{Type: ConflictDeleteWrite, Rel: d.Rel, Value: dk}, true
		}
	}
	return Conflict{}, false
}

// conflictIndex supports hash-based conflict detection between flattened
// update sets, as required for the O(t² + t·u·a) bound in §5.1: each update
// is indexed under a small number of derived keys (bucketKeys), and probing
// an update touches only the buckets its own keys select. The buckets live
// in an indexTable, which every index of a run shares.
type conflictIndex struct {
	s  *Schema
	t  *indexTable
	id int32 // the index's keys in t
	us []Update
}

// indexTable holds the buckets of conflict indexes, each index's under
// keys tagged with its id, so that a run's indexes share two maps made once
// per pooled scratch. A bucket is a chain of entries in insertion order.
// Indexed updates are read in place: they are never modified while an
// index over them lives.
type indexTable struct {
	// byKey buckets updates by the key encodings of the tuples they produce
	// or delete, bySource replacements by their full source encoding.
	byKey    map[indexKey]indexChain
	bySource map[indexKey]indexChain
	entries  []indexEntry
	// built are the table's indexes, by id, so reset can delete the keys
	// their updates were indexed under.
	built []conflictIndex
}

type indexKey struct {
	id int32
	k  tupleKey
}

// indexChain is one bucket: the positions of its first and last entry.
type indexChain struct{ head, tail int32 }

// indexEntry is an update of a bucket, by position in its index's updates,
// and the position of the next entry, -1 at the end of the chain.
type indexEntry struct{ u, next int32 }

func newConflictIndex(s *Schema, us []Update) *conflictIndex {
	ci := new(indexTable).newIndex(s, us)
	return &ci
}

// newIndex builds an index over us in the table.
func (t *indexTable) newIndex(s *Schema, us []Update) conflictIndex {
	if t.byKey == nil {
		t.byKey = make(map[indexKey]indexChain)
		t.bySource = make(map[indexKey]indexChain)
	}
	ci := conflictIndex{s: s, t: t, id: int32(len(t.built)), us: us}
	t.built = append(t.built, ci)
	for i := range us {
		u := &us[i]
		rel, ok := s.Relation(u.Rel)
		if !ok {
			continue
		}
		k1, k2, src := bucketKeys(u, rel)
		if k1.rel != "" {
			t.push(t.byKey, indexKey{ci.id, k1}, i)
		}
		if k2.rel != "" {
			t.push(t.byKey, indexKey{ci.id, k2}, i)
		}
		if src.rel != "" {
			t.push(t.bySource, indexKey{ci.id, src}, i)
		}
	}
	return ci
}

// push appends the update at position u to the bucket k of m.
func (t *indexTable) push(m map[indexKey]indexChain, k indexKey, u int) {
	e := int32(len(t.entries))
	t.entries = append(t.entries, indexEntry{u: int32(u), next: -1})
	if c, ok := m[k]; ok {
		t.entries[c.tail].next = e
		m[k] = indexChain{head: c.head, tail: e}
	} else {
		m[k] = indexChain{head: e, tail: e}
	}
}

// reset empties the table for its next run, deleting the keys its indexes
// wrote rather than clearing the maps, for the reason flattenScratch.forget
// gives.
func (t *indexTable) reset() {
	for _, ci := range t.built {
		for i := range ci.us {
			u := &ci.us[i]
			rel, ok := ci.s.Relation(u.Rel)
			if !ok {
				continue
			}
			k1, k2, src := bucketKeys(u, rel)
			delete(t.byKey, indexKey{ci.id, k1})
			delete(t.byKey, indexKey{ci.id, k2})
			delete(t.bySource, indexKey{ci.id, src})
		}
	}
	clear(t.byKey) // a no-op on an empty map; covers a build a panic cut short
	clear(t.bySource)
	t.built = zeroed(t.built)
	t.entries = zeroed(t.entries)
}

// bucketKeys returns the keys an update is indexed and probed under: the
// key of its tuple, the key of its replacement when that differs, and for
// a replacement its source value. A key it does not have is zero.
func bucketKeys(u *Update, rel *Relation) (k1, k2, src tupleKey) {
	switch u.Op {
	case OpInsert, OpDelete:
		k1 = tupleKey{rel: u.Rel, enc: u.keyEncTuple(rel)}
	case OpModify:
		k1 = tupleKey{rel: u.Rel, enc: u.keyEncTuple(rel)}
		if kn := (tupleKey{rel: u.Rel, enc: u.keyEncNew(rel)}); kn != k1 {
			k2 = kn
		}
		src = tupleKey{rel: u.Rel, enc: u.tupleEnc()}
	}
	return k1, k2, src
}

// probe appends to out the conflicts between u and the indexed updates that
// out[base:] does not hold yet. It allocates only when it finds one and out
// has no room: the common probe selects empty buckets.
func (ci *conflictIndex) probe(u *Update, out []Conflict, base int) []Conflict {
	rel, ok := ci.s.Relation(u.Rel)
	if !ok {
		return out
	}
	k1, k2, src := bucketKeys(u, rel)
	if k1.rel != "" {
		out = ci.probeBucket(ci.t.byKey, k1, u, out, base)
	}
	if k2.rel != "" {
		out = ci.probeBucket(ci.t.byKey, k2, u, out, base)
	}
	if src.rel != "" {
		out = ci.probeBucket(ci.t.bySource, src, u, out, base)
	}
	return out
}

// probeBucket is probe over the one bucket k of m.
func (ci *conflictIndex) probeBucket(m map[indexKey]indexChain, k tupleKey, u *Update, out []Conflict, base int) []Conflict {
	c, ok := m[indexKey{ci.id, k}]
	if !ok {
		return out
	}
	for e := c.head; e >= 0; e = ci.t.entries[e].next {
		from := len(out)
		out = appendUpdatesConflict(out, ci.s, u, &ci.us[ci.t.entries[e].u])
		// Keep, in order, those out[base:from] does not hold yet.
		n := from
		for _, c := range out[from:] {
			if !containsConflict(out[base:n], c) {
				out[n] = c
				n++
			}
		}
		out = out[:n]
	}
	return out
}

// probeAll returns the conflicts between the updates and the indexed ones,
// each once, in probe order.
func (ci *conflictIndex) probeAll(us []Update) []Conflict {
	return ci.appendProbeAll(nil, us)
}

// appendProbeAll appends what probeAll returns to out.
func (ci *conflictIndex) appendProbeAll(out []Conflict, us []Update) []Conflict {
	base := len(out)
	for i := range us {
		out = ci.probe(&us[i], out, base)
	}
	return out
}

// conflictsAny reports whether any of the updates conflicts with an indexed
// one, stopping at the first update that does.
func (ci *conflictIndex) conflictsAny(us []Update) bool {
	for i := range us {
		if len(ci.probe(&us[i], nil, 0)) > 0 {
			return true
		}
	}
	return false
}

// containsConflict is the dedup test of the probe paths: a pair of update
// sets yields a handful of conflicts at most, so a scan beats a map.
func containsConflict(cs []Conflict, c Conflict) bool {
	for _, have := range cs {
		if have == c {
			return true
		}
	}
	return false
}

// appendConflictsWithOne is appendProbeAll over an index of the one update
// v, without the index: us, the probing side, is no longer than the indexed
// one, so it has one update at most; UpdatesConflict finds a conflict
// between an update and v only if the buckets the update selects hold v,
// and lists each conflict once.
func appendConflictsWithOne(out []Conflict, s *Schema, us []Update, v *Update) []Conflict {
	if len(us) == 0 {
		return out
	}
	return appendUpdatesConflict(out, s, &us[0], v)
}

// SetsConflict returns the conflicts between two flattened update sets using
// hash-based detection: the longer set is indexed, the shorter probes it (a
// one-update set is never indexed). It is symmetric.
func SetsConflict(s *Schema, a, b []Update) []Conflict {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) == 1 {
		return appendConflictsWithOne(nil, s, a, &b[0])
	}
	return newConflictIndex(s, b).probeAll(a)
}

// SetsConflictNaive is the O(|a|·|b|) pairwise reference implementation,
// retained for property tests and the conflict-detection ablation benchmark.
func SetsConflictNaive(s *Schema, a, b []Update) []Conflict {
	var out []Conflict
	dedup := map[Conflict]bool{}
	for _, u := range a {
		for _, v := range b {
			for _, c := range UpdatesConflict(s, u, v) {
				if !dedup[c] {
					dedup[c] = true
					out = append(out, c)
				}
			}
		}
	}
	return out
}
