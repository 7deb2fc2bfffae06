package core

import (
	"fmt"
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
	// Effect describes the modification the option makes to the conflicted
	// value, e.g. "+F(rat, prot1, immune)" or "delete".
	Effect string
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
		fmt.Fprintf(&b, " option[%d]{%v => %s}", i, o.Txns, o.Effect)
	}
	return b.String()
}

// updateSoftState implements UpdateSoftState of Figure 5 for the candidates
// of one run: it takes out the dirty keys, conflict groups and entries of
// the carried candidates, and puts in those of the candidates the run left
// deferred (st.deferred). Soft state is fully reconstructable from the
// deferred set and the instance; what deferred candidates outside the run
// contributed is left as it is. order and pairs are the run's candidates and
// what FindConflicts found between them.
func (e *Engine) updateSoftState(order []*candidateState, carried []*deferredCand, pairs pairConflicts) {
	// Line 1: clear the soft state the run is about to rebuild.
	for _, d := range carried {
		e.dropDeferred(d)
	}
	var deferred []*candidateState
	for _, st := range order {
		if st.deferred {
			deferred = append(deferred, st)
		}
	}
	if len(deferred) == 0 {
		return
	}

	// Line 7: the conflicts among the deferred extensions, by (type, value),
	// for grouping — FindConflicts already computed them for every candidate
	// pair sharing a touched key, and only such pairs can conflict.
	// Subsumption does not suppress grouping here: the conflicts were
	// already established. conflictVals records which conflict values
	// involve each transaction (for line 4's removal of clean inapplicable
	// updates).
	conflictVals := make(map[TxnID]map[tupleKey]bool)
	groupTxns := make(map[Conflict]map[TxnID]*candidateState)
	noteTxn := func(c Conflict, st *candidateState) {
		if groupTxns[c] == nil {
			groupTxns[c] = make(map[TxnID]*candidateState)
		}
		groupTxns[c][st.cand.Txn.ID] = st
		if conflictVals[st.cand.Txn.ID] == nil {
			conflictVals[st.cand.Txn.ID] = make(map[tupleKey]bool)
		}
		conflictVals[st.cand.Txn.ID][tupleKey{rel: c.Rel, enc: c.Value}] = true
	}
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
			noteTxn(c, a)
			noteTxn(c, b)
		}
	}

	// Lines 2-6: for each deferred transaction, trim clean updates that are
	// inapplicable at this recno, then mark the remaining touched keys
	// dirty and retain the candidate for the next reconciliation.
	for _, st := range deferred {
		trimmed := st.upEx.Operation[:0:0]
		for _, u := range st.upEx.Operation {
			if e.inst.Compatible(u) != nil && !e.touchesConflict(u, conflictVals[st.cand.Txn.ID]) {
				continue // clean update, inapplicable at recno: drop
			}
			trimmed = append(trimmed, u)
		}
		if len(trimmed) == 0 && st.upEx.Malformed() == nil {
			trimmed = st.upEx.Operation // keep everything rather than nothing
		}
		softEx := *st.upEx
		softEx.Operation = trimmed
		softEx.touched, softEx.index = nil, nil // the memos belong to the untrimmed operation
		d := &deferredCand{cand: st.cand, dirty: softEx.TouchedKeys(e.schema)}
		for _, k := range d.dirty {
			e.dirty[k] = true
		}
		e.deferredCands[st.cand.Txn.ID] = d
	}

	// Lines 8-16: build conflict groups, combining compatible transactions
	// (those making the same modification to the conflicted value) into the
	// same option.
	var conflictKeys []Conflict
	for c := range groupTxns {
		conflictKeys = append(conflictKeys, c)
	}
	sort.Slice(conflictKeys, func(i, j int) bool {
		a, b := conflictKeys[i], conflictKeys[j]
		if a.Rel != b.Rel {
			return a.Rel < b.Rel
		}
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return a.Type < b.Type
	})
	for _, c := range conflictKeys {
		members := groupTxns[c]
		// Iterate members in sorted ID order: the Effect string of an option
		// is taken from the first member that introduces its signature, so a
		// deterministic visit order keeps Results byte-identical across runs.
		memberIDs := make([]TxnID, 0, len(members))
		for id := range members {
			memberIDs = append(memberIDs, id)
		}
		sort.Slice(memberIDs, func(i, j int) bool { return memberIDs[i].Less(memberIDs[j]) })
		bySig := make(map[string]*Option)
		optMembers := make(map[string]TxnSet)
		var sigOrder []string
		for _, id := range memberIDs {
			st := members[id]
			e.deferredCands[id].groups = append(e.deferredCands[id].groups, c)
			sig, effect := e.modificationSignature(c, st.upEx)
			opt := bySig[sig]
			if opt == nil {
				opt = &Option{Effect: effect}
				bySig[sig] = opt
				optMembers[sig] = make(TxnSet)
				sigOrder = append(sigOrder, sig)
			}
			set := optMembers[sig]
			set.Add(id)
			// An option carries the deferred antecedents of its members:
			// accepting the option accepts their whole extensions, and the
			// shared prefix of a losing chain must not be rejected when it
			// also underlies the winner (see Resolve).
			for anteID := range st.upEx.IDs {
				if _, isDeferred := e.deferredCands[anteID]; isDeferred {
					set.Add(anteID)
				}
			}
		}
		sort.Strings(sigOrder)
		g := &ConflictGroup{Conflict: c}
		for _, sig := range sigOrder {
			opt := bySig[sig]
			opt.Txns = optMembers[sig].Sorted()
			g.Options = append(g.Options, opt)
		}
		e.groups[c] = g
	}
	e.markComponents(order)
}

// markComponents partitions the run's candidates into connected components
// and records, on each candidate left deferred, its component and whether
// the component is settled. Two candidates are linked when the transactions
// of their unapplied extensions share a link key (see appendLinkKeys; a
// shared transaction shares its keys): nothing one component's candidates
// read, write or decide is visible to another's, so evaluating a component
// again can only come out differently if something outside every component
// changed (Engine.unsettled) or the component itself did. It is settled —
// evaluating it again would reproduce the same deferrals, dirty keys and
// groups — only if the run had all its members as carried candidates and
// decided none of them. Anything narrower is wrong: a fresh candidate
// deferred on a dirty key alone is accepted by the next run once it is
// carried, and a candidate whose neighbour was just accepted or rejected
// was judged against that neighbour's old decision.
func (e *Engine) markComponents(order []*candidateState) {
	parent := make([]int32, len(order))
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
	byKey := make(map[tupleKey]int32, len(order))
	var keys []tupleKey
	for i, st := range order {
		i := int32(i)
		for _, x := range st.upEx.Source {
			keys = appendLinkKeys(keys[:0], e.schema, x.Updates)
			for _, k := range keys {
				if j, seen := byKey[k]; seen {
					parent[find(i)] = find(j)
				} else {
					byKey[k] = i
				}
			}
		}
	}
	unsettled := make([]bool, len(order))
	for i, st := range order {
		if !st.carried || !st.deferred {
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
func (e *Engine) touchesConflict(u Update, vals map[tupleKey]bool) bool {
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
		if vals[tupleKey{rel: u.Rel, enc: rel.KeyEnc(t)}] {
			return true
		}
		return vals[tupleKey{rel: u.Rel, enc: t.Encode()}]
	}
	return check(u.Tuple) || check(u.New)
}

// modificationSignature summarizes what an extension does to the conflicted
// value: transactions with equal signatures are compatible and share an
// option.
func (e *Engine) modificationSignature(c Conflict, upEx *UpdateExtension) (sig, effect string) {
	rel, ok := e.schema.Relation(c.Rel)
	if !ok {
		return "?", "?"
	}
	var parts []string
	var display []string
	for _, u := range upEx.Operation {
		if u.Rel != c.Rel {
			continue
		}
		touches := false
		switch c.Type {
		case ConflictModifySource:
			touches = u.Consumes() != nil && u.Consumes().Encode() == c.Value
		default:
			if p := u.Produces(); p != nil && rel.KeyEnc(p) == c.Value {
				touches = true
			}
			if t := u.Consumes(); t != nil && rel.KeyEnc(t) == c.Value {
				touches = true
			}
			if u.Op == OpDelete && rel.KeyEnc(u.Tuple) == c.Value {
				touches = true
			}
		}
		if !touches {
			continue
		}
		parts = append(parts, fmt.Sprintf("%d|%s|%s|%s", u.Op, u.Rel, u.Tuple.Encode(), u.New.Encode()))
		display = append(display, u.String())
	}
	sort.Strings(parts)
	sort.Strings(display)
	if len(display) == 0 {
		return strings.Join(parts, ";"), "(no direct effect)"
	}
	return strings.Join(parts, ";"), strings.Join(display, ", ")
}

// ConflictGroups returns the conflict groups recorded by the most recent
// reconciliation, sorted deterministically.
func (e *Engine) ConflictGroups() []*ConflictGroup {
	out := make([]*ConflictGroup, 0, len(e.groups))
	for _, g := range e.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Conflict, out[j].Conflict
		if a.Rel != b.Rel {
			return a.Rel < b.Rel
		}
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return a.Type < b.Type
	})
	return out
}
