package core

import "slices"

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
	// Operation is flatten(uf(Source)). For a one-update source that
	// flattens to itself it aliases the transaction's updates (see
	// oneUpdateOperation), so it is read-only like them.
	Operation []Update
	// Priority is pri_i(X) for the reconciling peer.
	Priority int
	// IDs are the IDs of Source sorted by TxnID.Less, so subsumption and
	// sharing checks are merges.
	IDs []TxnID
	// malformed is set when the footprint could not be flattened; such an
	// extension is rejected by CheckState.
	malformed error
	// base is the instance Operation was flattened on, when that read it
	// (see readsBase); nil otherwise.
	base *Instance
	// touched memoizes TouchedKeys; it is invalidated when Operation is
	// replaced (updateSoftState builds trimmed copies rather than mutating).
	touched []tupleKey
	// index memoizes the conflict index over Operation (built once index.t
	// is set), under the same rule as touched. Only extensions of two
	// updates or more that are the indexed side of an enumerated pair ever
	// build one (see Conflicts).
	index conflictIndex
	// oneID backs IDs for a one-transaction source.
	oneID [1]TxnID
	// run is the scratch that backs the extension's IDs, touched keys and
	// index: its reconciliation run's, or one of its own for an extension
	// built by NewUpdateExtension.
	run *runScratch
}

// NewUpdateExtension computes the update extension of root over the
// transaction list, flattening its update footprint. A flattening error
// marks the extension malformed rather than failing: the reconciliation
// algorithm rejects malformed extensions.
func NewUpdateExtension(s *Schema, root TxnID, list []*Transaction, priority int) *UpdateExtension {
	ue := new(UpdateExtension)
	ue.init(s, nil, newRunScratch(), root, list, priority)
	return ue
}

// init sets ue to the update extension of root over the list, as
// NewUpdateExtension computes it, flattened on base (see flattenOn; nil:
// Flatten), with its scratch taken from run.
func (ue *UpdateExtension) init(s *Schema, base *Instance, run *runScratch, root TxnID, list []*Transaction, priority int) {
	*ue = UpdateExtension{Root: root, Source: list, Priority: priority, run: run}
	if len(list) == 1 {
		ue.oneID[0] = list[0].ID
		ue.IDs = ue.oneID[:]
	} else {
		ue.IDs = run.txnIDs(len(list))
		for i, x := range list {
			ue.IDs[i] = x.ID
		}
		slices.SortFunc(ue.IDs, compareTxnIDs)
		ue.IDs = slices.Compact(ue.IDs)
	}
	if op, ok := oneUpdateOperation(s, list); ok {
		ue.Operation = op
		return
	}
	if readsBase(base, list) {
		ue.base = base
	}
	ue.Operation, ue.malformed = run.flattenList(s, ue.base, list)
}

// oneUpdateOperation returns, without flattening, the flattened operation
// of a list that holds one transaction of one update, when Flatten would
// return that update unchanged: an insert or delete (no replacement tuple)
// or a modify to a different value, over a known relation. It reports
// false otherwise — the list is longer, the update is malformed, or it is
// a modify back to its own source, which flattens to nothing. The result
// aliases the transaction's updates and has no room to grow.
func oneUpdateOperation(s *Schema, list []*Transaction) ([]Update, bool) {
	if len(list) != 1 || len(list[0].Updates) != 1 {
		return nil, false
	}
	us := list[0].Updates[:1:1]
	u := &us[0]
	if _, ok := s.Relation(u.Rel); !ok {
		return nil, false
	}
	switch u.Op {
	case OpInsert, OpDelete:
		return us, u.New == nil
	case OpModify:
		return us, u.New != nil && u.tupleEnc() != u.newEnc()
	}
	return nil, false
}

// Malformed returns the flattening error, if any.
func (ue *UpdateExtension) Malformed() error { return ue.malformed }

// Subsumes reports whether this extension's transaction set is a superset
// of the other's (the paper's subsumption relation).
func (ue *UpdateExtension) Subsumes(other *UpdateExtension) bool {
	a, b := ue.IDs, other.IDs
	if len(a) < len(b) {
		return false
	}
	i := 0
	for _, id := range b {
		for i < len(a) && a[i].Less(id) {
			i++
		}
		if i == len(a) || a[i] != id {
			return false
		}
		i++
	}
	return true
}

// SharedWith returns the set S of transactions present in both extensions,
// sorted, or nil when the extensions are disjoint (nothing is allocated
// then — the common case on the FindConflicts hot path).
func (ue *UpdateExtension) SharedWith(other *UpdateExtension) []TxnID {
	a, b := ue.IDs, other.IDs
	var shared []TxnID
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			shared = append(shared, a[i])
			i++
			j++
		case a[i].Less(b[j]):
			i++
		default:
			j++
		}
	}
	return shared
}

// Conflicts returns the conflicts between the flattened operations of two
// extensions, ignoring interactions that stem from transactions shared by
// both (Definition 4, direct conflict): the flattened footprints are
// recomputed over Source − S when the extensions overlap. In the common
// disjoint case no intermediate sets are materialized: the shorter
// operation probes the memoized index of the longer, built on first use,
// and a one-update side is never indexed — the other side has one update
// at most, and UpdatesConflict is the whole probe.
func (ue *UpdateExtension) Conflicts(s *Schema, other *UpdateExtension) []Conflict {
	return ue.appendConflicts(nil, s, other)
}

// appendConflicts appends what Conflicts returns to out.
func (ue *UpdateExtension) appendConflicts(out []Conflict, s *Schema, other *UpdateExtension) []Conflict {
	shared := ue.SharedWith(other)
	if len(shared) == 0 {
		// The sides SetsConflict picks: the longer operation is indexed,
		// ties index other.
		probe, indexed := ue, other
		if len(ue.Operation) > len(other.Operation) {
			probe, indexed = other, ue
		}
		if len(indexed.Operation) == 1 {
			return appendConflictsWithOne(out, s, probe.Operation, &indexed.Operation[0])
		}
		return indexed.conflictIndex(s).appendProbeAll(out, probe.Operation)
	}
	opA := flattenMinus(s, ue.Source, shared)
	opB := flattenMinus(s, other.Source, shared)
	return append(out, SetsConflict(s, opA, opB)...)
}

// conflictIndex returns the memoized index over the flattened operation.
func (ue *UpdateExtension) conflictIndex(s *Schema) *conflictIndex {
	if ue.index.t == nil {
		ue.index = ue.run.index.newIndex(s, ue.Operation)
	}
	return &ue.index
}

// flattenMinus flattens the footprint of list with the shared transactions
// (sorted by TxnID.Less) removed. A malformed remainder yields its raw
// footprint (conservative: more updates → more conflicts detected, never
// fewer).
func flattenMinus(s *Schema, list []*Transaction, drop []TxnID) []Update {
	kept := make([]*Transaction, 0, len(list))
	for _, x := range list {
		if _, dropped := slices.BinarySearchFunc(drop, x.ID, compareTxnIDs); !dropped {
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
// extension is deferred. The result is memoized as a window of the
// scratch's touched-key buffer, with no room to grow.
func (ue *UpdateExtension) TouchedKeys(s *Schema) []tupleKey {
	if ue.touched != nil {
		return ue.touched
	}
	ops := ue.Operation
	if ue.malformed != nil {
		// Fall back to the raw footprint for dirty-key purposes.
		ops = UpdateFootprint(ue.Source)
	}
	out, seen := ue.run.touched, ue.run.seen
	from := len(out)
	// One update touches two keys at most, which dedup by comparison.
	add := func(k tupleKey) {
		if len(ops) == 1 {
			if len(out) == from || out[from] != k {
				out = append(out, k)
			}
			return
		}
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
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
	ue.touched = out[from:len(out):len(out)]
	ue.run.touched = out
	if len(ops) > 1 {
		for _, k := range ue.touched {
			delete(seen, k)
		}
	}
	return ue.touched
}
