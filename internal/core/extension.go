package core

// UpdateExtension is U_i(X, L) from §4.2: the set of changes made by the
// transaction list L (a subset of X's transaction extension, sorted by
// application order) as seen by a reconciling peer, with all intermediate
// steps removed.
type UpdateExtension struct {
	// Root is the original transaction X.
	Root TxnID
	// Source is the contents of L: the transactions whose footprint was
	// flattened, in application order.
	Source []*Transaction
	// Operation is flatten(uf(Source)).
	Operation []Update
	// Priority is pri_i(X) for the reconciling peer.
	Priority int
	// IDs caches the ID set of Source for subsumption and sharing checks.
	IDs TxnSet
	// malformed is set when the footprint could not be flattened; such an
	// extension is rejected by CheckState.
	malformed error
	// touched memoizes TouchedKeys; it is invalidated when Operation is
	// replaced (updateSoftState builds trimmed copies rather than mutating).
	touched []tupleKey
	// index memoizes the conflict index over Operation, under the same rule
	// as touched. Only extensions that are the indexed side of an enumerated
	// pair ever build one (see findConflicts).
	index *conflictIndex
}

// NewUpdateExtension computes the update extension of root over the
// transaction list, flattening its update footprint. A flattening error
// marks the extension malformed rather than failing: the reconciliation
// algorithm rejects malformed extensions.
func NewUpdateExtension(s *Schema, root TxnID, list []*Transaction, priority int) *UpdateExtension {
	ue := &UpdateExtension{
		Root:     root,
		Source:   list,
		Priority: priority,
		IDs:      make(TxnSet, len(list)),
	}
	ue.IDs.AddAll(list)
	op, err := Flatten(s, UpdateFootprint(list))
	if err != nil {
		ue.malformed = err
		return ue
	}
	ue.Operation = op
	return ue
}

// Malformed returns the flattening error, if any.
func (ue *UpdateExtension) Malformed() error { return ue.malformed }

// Subsumes reports whether this extension's transaction set is a superset
// of the other's (the paper's subsumption relation).
func (ue *UpdateExtension) Subsumes(other *UpdateExtension) bool {
	if len(ue.IDs) < len(other.IDs) {
		return false
	}
	for id := range other.IDs {
		if !ue.IDs.Has(id) {
			return false
		}
	}
	return true
}

// SharedWith returns the set S of transactions present in both extensions,
// or nil when the extensions are disjoint (no set is allocated then — the
// common case on the FindConflicts hot path).
func (ue *UpdateExtension) SharedWith(other *UpdateExtension) TxnSet {
	a, b := ue.IDs, other.IDs
	if len(a) > len(b) {
		a, b = b, a
	}
	var s TxnSet
	for id := range a {
		if b.Has(id) {
			if s == nil {
				s = make(TxnSet)
			}
			s.Add(id)
		}
	}
	return s
}

// Conflicts returns the conflicts between the flattened operations of two
// extensions, ignoring interactions that stem from transactions shared by
// both (Definition 4, direct conflict): the flattened footprints are
// recomputed over Source − S when the extensions overlap. In the common
// disjoint case no intermediate sets are materialized: the shorter
// operation probes the memoized index of the longer, built on first use.
func (ue *UpdateExtension) Conflicts(s *Schema, other *UpdateExtension) []Conflict {
	shared := ue.SharedWith(other)
	if len(shared) == 0 {
		// The sides SetsConflict picks: the longer operation is indexed,
		// ties index other.
		probe, indexed := ue, other
		if len(ue.Operation) > len(other.Operation) {
			probe, indexed = other, ue
		}
		return indexed.conflictIndex(s).probeAll(probe.Operation)
	}
	opA := flattenMinus(s, ue.Source, shared)
	opB := flattenMinus(s, other.Source, shared)
	return SetsConflict(s, opA, opB)
}

// conflictIndex returns the memoized index over the flattened operation.
func (ue *UpdateExtension) conflictIndex(s *Schema) *conflictIndex {
	if ue.index == nil {
		ue.index = newConflictIndex(s, ue.Operation)
	}
	return ue.index
}

// flattenMinus flattens the footprint of list with the shared transactions
// removed. A malformed remainder yields its raw footprint (conservative:
// more updates → more conflicts detected, never fewer).
func flattenMinus(s *Schema, list []*Transaction, drop TxnSet) []Update {
	kept := make([]*Transaction, 0, len(list))
	for _, x := range list {
		if !drop.Has(x.ID) {
			kept = append(kept, x)
		}
	}
	fp := UpdateFootprint(kept)
	op, err := Flatten(s, fp)
	if err != nil {
		return fp
	}
	return op
}

// TouchedKeys returns the (relation, encoded key) pairs read or written by
// the extension's flattened operation — the keys that become dirty if the
// extension is deferred. The result is memoized.
func (ue *UpdateExtension) TouchedKeys(s *Schema) []tupleKey {
	if ue.touched != nil {
		return ue.touched
	}
	ops := ue.Operation
	if ue.malformed != nil {
		// Fall back to the raw footprint for dirty-key purposes.
		ops = UpdateFootprint(ue.Source)
	}
	seen := make(map[tupleKey]bool, 2*len(ops))
	out := make([]tupleKey, 0, 2*len(ops))
	add := func(k tupleKey) {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for i := range ops {
		u := &ops[i]
		rel, ok := s.Relation(u.Rel)
		if !ok {
			continue
		}
		if u.Tuple != nil {
			add(tupleKey{rel: u.Rel, enc: u.keyEncTuple(rel)})
		}
		if u.New != nil {
			add(tupleKey{rel: u.Rel, enc: u.keyEncNew(rel)})
		}
	}
	ue.touched = out
	return out
}
