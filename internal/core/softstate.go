package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Option is a group of deferred transactions within a conflict group that
// make the same modification to the conflicted value. At most one option per
// conflict group can be accepted when the user resolves the conflict; the
// transactions of the other options are rejected.
type Option struct {
	// Txns are the deferred transactions backing this option, sorted.
	Txns []TxnID
	// effect is a copy of the updates of the first member's operation (in
	// ID order) that touch the conflicted value: what Effect renders.
	effect []Update
}

// Effect describes the modification the option makes to the conflicted
// value, e.g. "+F(rat, prot1, immune)" or "(no direct effect)". It is
// rendered when asked for: nothing on the run path reads it.
func (o *Option) Effect() string {
	if len(o.effect) == 0 {
		return "(no direct effect)"
	}
	display := make([]string, len(o.effect))
	for i := range o.effect {
		display[i] = o.effect[i].String()
	}
	sort.Strings(display)
	return strings.Join(display, ", ")
}

// ConflictGroup is a group of conflicts of the same type involving the same
// key value, holding the mutually exclusive Options a user can choose from.
type ConflictGroup struct {
	Conflict Conflict
	Options  []*Option
}

// String renders the group for diagnostics and CLI display.
func (g *ConflictGroup) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conflict %s:", g.Conflict)
	for i, o := range g.Options {
		fmt.Fprintf(&b, " option[%d]{%v => %s}", i, o.Txns, o.Effect())
	}
	return b.String()
}

// updateSoftState implements UpdateSoftState of Figure 5 for the candidates
// of one run: it puts in the dirty keys, conflict groups and entries of the
// candidates the run left deferred (st.deferred), and takes out what the
// carried candidates contributed that the run did not reproduce. Soft state
// is fully reconstructable from the deferred set and the instance; what
// deferred candidates outside the run contributed is left as it is, and so
// is what the run reproduces: a carried candidate that stays deferred keeps
// its entry, dirty keys and group list when they come out the same, and a
// conflict group whose options come out the same stays the same
// *ConflictGroup. Everything is worked out and compared on the run's
// scratch rs; only what changed is allocated. order and pairs are the
// run's candidates and what FindConflicts found between them.
func (e *Engine) updateSoftState(rs *runScratch, order []*candidateState, carried []*deferredCand, pairs pairConflicts) {
	deferred := rs.deferred
	for _, st := range order {
		if st.deferred {
			deferred = append(deferred, st)
		}
	}
	rs.deferred = deferred

	// Line 7: the conflicts among the deferred extensions, by (type, value),
	// for grouping — FindConflicts already computed them for every candidate
	// pair sharing a touched key, and only such pairs can conflict.
	// Subsumption does not suppress grouping here: the conflicts were
	// already established. Sorted by conflict, then member ID, each group's
	// members are a run of the list, visited in ID order: an option's effect
	// is taken from the first member that makes its modification, so a
	// deterministic visit order keeps the groups identical across runs.
	members := rs.members
	for pi, cs := range pairs.found {
		if len(cs) == 0 {
			continue
		}
		i, j := unpackPair(pairs.pairs[pi])
		a, b := order[i], order[j]
		if !a.deferred || !b.deferred {
			continue
		}
		for _, c := range cs {
			members = append(members, groupMember{c: c, st: a, i: int32(i)}, groupMember{c: c, st: b, i: int32(j)})
		}
	}
	slices.SortFunc(members, func(a, b groupMember) int {
		if c := compareConflicts(a.c, b.c); c != 0 {
			return c
		}
		return compareTxnIDs(a.st.cand.Txn.ID, b.st.cand.Txn.ID)
	})
	members = slices.CompactFunc(members, func(a, b groupMember) bool { return a.c == b.c && a.st == b.st })
	rs.members = members
	rs.noteGroups(order, members)

	// Line 1: take out what the carried candidates contributed: their dirty
	// keys and entries, which those staying deferred get back below, and
	// the groups the run does not reproduce. The groups it does are
	// compared with what it makes of them below.
	for _, d := range carried {
		for _, k := range d.dirty {
			delete(e.dirty, k)
		}
		for _, c := range d.groups {
			if _, found := slices.BinarySearchFunc(members, c, func(m groupMember, c Conflict) int {
				return compareConflicts(m.c, c)
			}); !found {
				delete(e.groups, c)
			}
		}
		delete(e.deferredCands, d.cand.Txn.ID)
	}
	if len(deferred) == 0 {
		return
	}

	// Lines 2-6: for each deferred transaction, trim clean updates that are
	// inapplicable at this recno, then mark the remaining touched keys
	// dirty and retain the candidate for the next reconciliation. The
	// trimmed operations are windows of one scratch buffer; the dirty keys
	// and groups a deferred candidate keeps are its own copies, made when
	// they change.
	for _, st := range deferred {
		from := len(rs.trimmed)
		for _, u := range st.upEx.Operation {
			if !e.inst.compatible(u) && !e.touchesConflict(u, st.conflictVals) {
				continue // clean update, inapplicable at recno: drop
			}
			rs.trimmed = append(rs.trimmed, u)
		}
		trimmed := rs.trimmed[from:len(rs.trimmed):len(rs.trimmed)]
		if len(trimmed) == 0 && st.upEx.Malformed() == nil {
			trimmed = st.upEx.Operation // keep everything rather than nothing
		}
		softEx := st.upEx
		softEx.Operation = trimmed
		softEx.touched, softEx.index = nil, conflictIndex{} // the memos belong to the untrimmed operation
		dirty := softEx.TouchedKeys(e.schema)
		d := st.carried
		if d == nil {
			d = &deferredCand{cand: *st.cand}
			d.cand.Ext = owned(st.cand.Ext)
		}
		if !slices.Equal(d.dirty, dirty) {
			d.dirty = owned(dirty)
		}
		if !slices.Equal(d.groups, st.groups) {
			d.groups = owned(st.groups)
		}
		for _, k := range d.dirty {
			e.dirty[k] = true
		}
		e.deferredCands[st.cand.Txn.ID] = d
	}

	// Lines 8-16: build conflict groups, combining compatible transactions
	// (those making the same modification to the conflicted value) into the
	// same option.
	for lo := 0; lo < len(members); {
		hi := lo + 1
		for hi < len(members) && members[hi].c == members[lo].c {
			hi++
		}
		e.putGroup(rs, members[lo:hi])
		lo = hi
	}
	e.markComponents(rs, order)
}

// owned returns a copy of s that shares nothing with it, nil when s is
// empty.
func owned[E any](s []E) []E {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// groupMember is a deferred candidate in the conflict group of c, at
// position i of the run's order, with the updates of its operation that
// touch the conflicted value, sorted (see putGroup): its modification
// there.
type groupMember struct {
	c     Conflict
	st    *candidateState
	i     int32
	touch []*Update
}

// noteGroups gives each deferred candidate its groups (candidateState.groups)
// and their values, from the members sorted by conflict: windows of two
// scratch buffers, counted first.
func (rs *runScratch) noteGroups(order []*candidateState, members []groupMember) {
	if len(members) == 0 {
		return
	}
	rs.counts = resized(rs.counts, len(order))
	counts := rs.counts
	for _, m := range members {
		counts[m.i]++
	}
	rs.groupOf = resized(rs.groupOf, len(members))
	rs.vals = resized(rs.vals, len(members))
	off := 0
	for i, n := range counts {
		order[i].groups = rs.groupOf[off : off : off+int(n)]
		order[i].conflictVals = rs.vals[off : off : off+int(n)]
		off += int(n)
	}
	for _, m := range members {
		st := order[m.i]
		st.groups = append(st.groups, m.c)
		if k := (tupleKey{rel: m.c.Rel, enc: m.c.Value}); !slices.Contains(st.conflictVals, k) {
			st.conflictVals = append(st.conflictVals, k)
		}
	}
}

// optionSpan is an option of a group being made, on the run scratch: its
// first member and its transactions, rs.optTxns[from:to].
type optionSpan struct{ first, from, to int32 }

// putGroup makes the conflict group of one conflict from its members,
// sorted by ID. Members whose updates touching the conflicted value are
// equal make the same modification and share an option; options come in
// the order of those update lists. The options are worked out on the
// scratch, and a group is allocated only when they differ from those of
// the group the engine holds for the conflict, which otherwise stays. The
// members are reordered.
func (e *Engine) putGroup(rs *runScratch, members []groupMember) {
	c := members[0].c
	rel, _ := e.schema.Relation(c.Rel) // conflicts are found on schema relations only
	for i := range members {
		m := &members[i]
		lo := len(rs.touch)
		for j := range m.st.upEx.Operation {
			if u := &m.st.upEx.Operation[j]; touchesValue(c, rel, u) {
				rs.touch = append(rs.touch, u)
			}
		}
		m.touch = rs.touch[lo:len(rs.touch):len(rs.touch)]
		slices.SortFunc(m.touch, compareUpdates)
	}
	// Options in update-list order; a stable sort keeps each one's members
	// in ID order, and the first one's updates are the option's effect.
	slices.SortStableFunc(members, func(a, b groupMember) int { return slices.CompareFunc(a.touch, b.touch, compareUpdates) })
	opts, txns := rs.opts[:0], rs.optTxns[:0]
	for lo := 0; lo < len(members); {
		touch := members[lo].touch
		from := len(txns)
		hi := lo
		for ; hi < len(members) && slices.CompareFunc(members[hi].touch, touch, compareUpdates) == 0; hi++ {
			// An option carries the deferred antecedents of its members
			// (each member's IDs include itself): accepting the option
			// accepts their whole extensions, and the shared prefix of a
			// losing chain must not be rejected when it also underlies the
			// winner (see Resolve).
			for _, id := range members[hi].st.upEx.IDs {
				if _, isDeferred := e.deferredCands[id]; isDeferred {
					txns = append(txns, id)
				}
			}
		}
		slices.SortFunc(txns[from:], compareTxnIDs)
		txns = txns[:from+len(slices.Compact(txns[from:]))]
		opts = append(opts, optionSpan{first: int32(lo), from: int32(from), to: int32(len(txns))})
		lo = hi
	}
	rs.opts, rs.optTxns = opts, txns
	if old := e.groups[c]; old != nil && sameOptions(old, members, opts, txns) {
		return
	}

	g := &ConflictGroup{Conflict: c, Options: make([]*Option, len(opts))}
	block := make([]Option, len(opts))
	neffect := 0
	for _, o := range opts {
		neffect += len(members[o.first].touch)
	}
	ids := slices.Clone(txns)
	effects := make([]Update, 0, neffect)
	for i, o := range opts {
		opt := &block[i]
		opt.Txns = ids[o.from:o.to:o.to]
		n := len(effects)
		for _, u := range members[o.first].touch {
			effects = append(effects, *u)
		}
		opt.effect = effects[n:len(effects):len(effects)]
		g.Options[i] = opt
	}
	e.groups[c] = g
}

// sameOptions reports whether the group has the options putGroup worked
// out: the same transactions and effects that compare equal, origins
// included (Effect renders them).
func sameOptions(g *ConflictGroup, members []groupMember, opts []optionSpan, txns []TxnID) bool {
	if len(g.Options) != len(opts) {
		return false
	}
	for i, o := range opts {
		have := g.Options[i]
		if !slices.Equal(have.Txns, txns[o.from:o.to]) {
			return false
		}
		touch := members[o.first].touch
		if len(have.effect) != len(touch) {
			return false
		}
		for j, u := range touch {
			if compareUpdates(&have.effect[j], u) != 0 || have.effect[j].Origin != u.Origin {
				return false
			}
		}
	}
	return true
}

// compareConflicts orders conflicts by relation, value, then type: the
// order of ConflictGroups.
func compareConflicts(a, b Conflict) int {
	if a.Rel != b.Rel {
		return strings.Compare(a.Rel, b.Rel)
	}
	if a.Value != b.Value {
		return strings.Compare(a.Value, b.Value)
	}
	return int(a.Type) - int(b.Type)
}

// markComponents partitions the run's candidates into connected components
// and records, on each candidate left deferred, its component and whether
// the component is settled. Two candidates are linked when the transactions
// of their unapplied extensions share a link key (see appendLinkKeys; a
// shared transaction shares its keys): nothing one component's candidates
// read, write or decide is visible to another's, so evaluating a component
// again can only come out differently if something outside every component
// changed (Engine.unsettled) or the component itself did. A component is
// unsettled when a re-run could decide it differently, which takes one of
// two things:
//   - the run decided a member (accepted, rejected, or applied inside
//     another's extension), and its neighbours were judged against the
//     member's old decision;
//   - CheckState's line-1 checks deferred a fresh member (a dirty key, a
//     deferred dependency), which it skips once carried.
//
// Otherwise re-running the component with every member carried reads the
// same instance keys, decided table and priorities, and so reproduces the
// same deferrals, dirty keys and groups: it is settled.
func (e *Engine) markComponents(rs *runScratch, order []*candidateState) {
	rs.parent = resized(rs.parent, len(order))
	parent := rs.parent
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	byKey, keys := rs.linkOf, rs.linkKeys
	for i, st := range order {
		i := int32(i)
		for _, x := range st.upEx.Source {
			from := len(keys)
			keys = appendLinkKeys(keys, e.schema, x.Updates)
			for _, k := range keys[from:] {
				if j, seen := byKey[k]; seen {
					parent[find(i)] = find(j)
				} else {
					byKey[k] = i
				}
			}
		}
	}
	for _, k := range keys {
		delete(byKey, k)
	}
	rs.linkKeys = keys
	rs.unsettled = resized(rs.unsettled, len(order))
	unsettled := rs.unsettled
	for i, st := range order {
		if st.shortcut || !st.deferred {
			unsettled[find(int32(i))] = true
		}
	}
	for i, st := range order {
		if st.deferred {
			root := find(int32(i))
			d := e.deferredCands[st.cand.Txn.ID]
			d.comp = uint64(e.recno)<<32 | uint64(root)
			d.settled = !unsettled[root]
		}
	}
}

// appendLinkKeys appends every instance key that applying or checking the
// updates can read or write: the keys of their tuples and, under foreign
// keys, the referenced keys (a referencing tuple needs its parent present,
// and keeps the parent from being deleted). markComponents links by the raw
// updates of an extension rather than its flattened operation because the
// apply loop may apply a shorter list than was flattened, which can touch
// keys the full composition cancels out.
func appendLinkKeys(keys []tupleKey, s *Schema, us []Update) []tupleKey {
	for i := range us {
		u := &us[i]
		rel, ok := s.Relation(u.Rel)
		if !ok {
			continue
		}
		if u.Tuple != nil {
			keys = append(keys, tupleKey{rel: u.Rel, enc: u.keyEncTuple(rel)})
		}
		if u.New != nil {
			keys = append(keys, tupleKey{rel: u.Rel, enc: u.keyEncNew(rel)})
		}
		for _, fk := range rel.ForeignKeys {
			if u.Tuple != nil {
				keys = append(keys, tupleKey{rel: fk.RefRel, enc: u.Tuple.Project(fk.Attrs).Encode()})
			}
			if u.New != nil {
				keys = append(keys, tupleKey{rel: fk.RefRel, enc: u.New.Project(fk.Attrs).Encode()})
			}
		}
	}
	return keys
}

// touchesConflict reports whether the update reads or writes one of the
// transaction's conflicted values.
func (e *Engine) touchesConflict(u Update, vals []tupleKey) bool {
	if len(vals) == 0 {
		return false
	}
	rel, ok := e.schema.Relation(u.Rel)
	if !ok {
		return false
	}
	check := func(t Tuple) bool {
		if t == nil {
			return false
		}
		// Conflict values are either key encodings or full source
		// encodings; test both projections.
		if slices.Contains(vals, tupleKey{rel: u.Rel, enc: rel.KeyEnc(t)}) {
			return true
		}
		return slices.Contains(vals, tupleKey{rel: u.Rel, enc: t.Encode()})
	}
	return check(u.Tuple) || check(u.New)
}

// compareUpdates orders updates by op, relation, then the encodings of
// their tuples. A relation's tuple encodings are prefix-free, so over the
// updates touching one conflicted value this is the byte order of their
// op|rel|tuple|new strings, and lists of them compare as those strings
// joined.
func compareUpdates(a, b *Update) int {
	if a.Op != b.Op {
		return cmp.Compare(a.Op, b.Op)
	}
	if a.Rel != b.Rel {
		return strings.Compare(a.Rel, b.Rel)
	}
	if c := strings.Compare(a.tupleEnc(), b.tupleEnc()); c != 0 {
		return c
	}
	return strings.Compare(a.newEnc(), b.newEnc())
}

// touchesValue reports whether the update touches the conflicted value of
// c, a value of rel: consumes the source value of a modify-source conflict,
// or produces or consumes a tuple with the conflicted key.
func touchesValue(c Conflict, rel *Relation, u *Update) bool {
	if u.Rel != c.Rel {
		return false
	}
	if c.Type == ConflictModifySource {
		return u.Consumes() != nil && u.tupleEnc() == c.Value
	}
	return (u.Produces() != nil && u.producedKeyEnc(rel) == c.Value) ||
		(u.Consumes() != nil && u.keyEncTuple(rel) == c.Value)
}

// ConflictGroups returns the conflict groups recorded by the most recent
// reconciliation, sorted deterministically.
func (e *Engine) ConflictGroups() []*ConflictGroup {
	out := make([]*ConflictGroup, 0, len(e.groups))
	for _, g := range e.groups {
		out = append(out, g)
	}
	slices.SortFunc(out, func(a, b *ConflictGroup) int { return compareConflicts(a.Conflict, b.Conflict) })
	return out
}
