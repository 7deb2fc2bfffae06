package core

import "sort"

// AppendOnlyEngine implements append-only reconciliation (§4.1,
// Definition 2), the paper's simpler baseline: all updates are insertions,
// every transaction in an epoch is considered independently, and an
// insertion is applied so long as it does not conflict with a previously
// applied insertion nor with a transaction of equal or higher priority
// published in the same epoch batch.
type AppendOnlyEngine struct {
	peer   PeerID
	schema *Schema
	trust  Trust
	inst   *Instance
	// appliedKeys guards "does not conflict with a transaction published in
	// an earlier epoch": any earlier transaction that touched a key, applied
	// or not, blocks later conflicting inserts.
	seen map[tupleKey]Tuple
}

// NewAppendOnlyEngine returns an append-only engine for the participant.
func NewAppendOnlyEngine(peer PeerID, schema *Schema, trust Trust) *AppendOnlyEngine {
	return &AppendOnlyEngine{
		peer:   peer,
		schema: schema,
		trust:  trust,
		inst:   NewInstance(schema),
		seen:   make(map[tupleKey]Tuple),
	}
}

// Instance returns the engine's instance (read-only to callers).
func (e *AppendOnlyEngine) Instance() *Instance { return e.inst }

// Peer returns the participant ID.
func (e *AppendOnlyEngine) Peer() PeerID { return e.peer }

// ReconcileEpoch computes ∆acc(i)|e for one epoch's published transactions
// and applies it: a transaction is acceptable iff no other transaction in
// the same batch conflicts with it at equal or higher priority, and no
// transaction from an earlier epoch conflicts with it. It returns the
// accepted transaction IDs.
func (e *AppendOnlyEngine) ReconcileEpoch(batch []*Transaction) []TxnID {
	ordered := append([]*Transaction(nil), batch...)
	SortTxns(ordered)

	type entry struct {
		x    *Transaction
		prio int
	}
	entries := make([]entry, 0, len(ordered))
	for _, x := range ordered {
		entries = append(entries, entry{x: x, prio: TxnPriority(e.trust, x)})
	}

	// Index the batch by inserted key so intra-batch conflict checks only
	// compare transactions touching the same key.
	byKey := make(map[tupleKey][]int)
	for i, en := range entries {
		for _, u := range en.x.Updates {
			if u.Op != OpInsert {
				continue
			}
			rel, found := e.schema.Relation(u.Rel)
			if !found {
				continue
			}
			k := tupleKey{rel: u.Rel, enc: rel.KeyEnc(u.Tuple)}
			byKey[k] = append(byKey[k], i)
		}
	}

	accepted := make([]TxnID, 0, len(entries))
	for i, en := range entries {
		if en.prio <= 0 {
			continue
		}
		ok := true
		// Conflict with any transaction from an earlier epoch that touched
		// the same key with a different value (∆e′, e′ < e): approximated by
		// the seen map, which records every key touched by prior batches.
		candidates := map[int]bool{}
		for _, u := range en.x.Updates {
			if u.Op != OpInsert {
				continue // append-only: non-inserts are ignored
			}
			rel, found := e.schema.Relation(u.Rel)
			if !found {
				ok = false
				break
			}
			k := tupleKey{rel: u.Rel, enc: rel.KeyEnc(u.Tuple)}
			if prev, seen := e.seen[k]; seen && !prev.Equal(u.Tuple) {
				ok = false
				break
			}
			for _, j := range byKey[k] {
				if j != i {
					candidates[j] = true
				}
			}
		}
		if !ok {
			continue
		}
		// Conflict with another same-key transaction in this batch at
		// equal or higher priority.
		for j := range candidates {
			other := entries[j]
			if other.prio < en.prio {
				continue
			}
			if len(transactionsConflict(e.schema, en.x, other.x)) > 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, u := range en.x.Updates {
			if u.Op == OpInsert {
				if err := e.inst.Apply(u); err == nil {
					rel := e.schema.MustRelation(u.Rel)
					e.seen[tupleKey{rel: u.Rel, enc: rel.KeyEnc(u.Tuple)}] = u.Tuple
				}
			}
		}
		accepted = append(accepted, en.x.ID)
	}
	// Record the keys of every transaction in the batch, applied or not, so
	// later epochs treat conflicts with them as historical.
	for _, en := range entries {
		for _, u := range en.x.Updates {
			if u.Op != OpInsert {
				continue
			}
			rel, found := e.schema.Relation(u.Rel)
			if !found {
				continue
			}
			k := tupleKey{rel: u.Rel, enc: rel.KeyEnc(u.Tuple)}
			if _, dup := e.seen[k]; !dup {
				e.seen[k] = u.Tuple
			}
		}
	}
	sort.Slice(accepted, func(i, j int) bool { return accepted[i].Less(accepted[j]) })
	return accepted
}

// transactionsConflict reports the conflicts between the raw update sets of
// two transactions (used by the append-only baseline, where flattening is
// unnecessary).
func transactionsConflict(s *Schema, a, b *Transaction) []Conflict {
	return SetsConflict(s, a.Updates, b.Updates)
}
