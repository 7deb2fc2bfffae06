package core

import (
	"fmt"
	"sort"
)

// LoggedTxn is one entry of the update store's replay log: a published
// transaction and its antecedent set.
type LoggedTxn struct {
	Txn         *Transaction
	Antecedents []TxnID
}

// RestoredDecision is a peer's recorded decision for one transaction,
// together with its acceptance sequence: the order in which the peer's
// decisions were recorded at the store. Acceptance order — not global
// publication order — is the peer's valid local history: a peer may accept
// its own revision of a value before importing a later-published identical
// insert that is idempotent by then.
type RestoredDecision struct {
	Decision Decision
	Seq      int64
}

// RestoreTail rebuilds the engine's state from the update store's log and
// this peer's recorded decisions — the soft-state reconstruction path of
// the paper's §5.2 (see docs/RECOVERY.md for the recovery contract). It
// folds the decisions over the log in acceptance order, applying accepted
// transactions' updates on top of whatever state the engine already holds.
// On a fresh engine the log and decisions are the whole history. On an
// engine seeded from a snapshot (NewEngineFromSnapshot) the log should
// contain every published transaction the snapshot does not already fold
// in (the post-snapshot epochs plus the snapshot's residue), and decisions
// the peer's decisions recorded after the snapshot's per-peer sequence
// high-water mark. Transactions the engine has already decided are skipped,
// so overlapping log entries are harmless.
//
// The instance is the net effect of every accepted transaction's updates in
// acceptance order (flattened, so superseded intermediate states are
// skipped exactly as the original reconciliations skipped them). Deferred
// transactions are not recorded by the store, and a rebuilt peer does not
// get its deferred set back: the next reconciliation offers only the window
// after the peer's stored frontier, so the deferred transactions stay
// undecided until the store re-offers undecided transactions (ROADMAP item
// 3; docs/RECOVERY.md).
func (e *Engine) RestoreTail(log []LoggedTxn, decisions map[TxnID]RestoredDecision) error {
	ordered := append([]LoggedTxn(nil), log...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Txn.Order < ordered[j].Txn.Order })

	var accepted []*Transaction
	var maxOwnSeq uint64
	haveOwn := false
	for _, lt := range ordered {
		id := lt.Txn.ID
		if id.Origin == e.peer {
			haveOwn = true
			if id.Seq > maxOwnSeq {
				maxOwnSeq = id.Seq
			}
		}
		if e.decided.get(id) != DecisionNone {
			continue // already folded in by the snapshot
		}
		switch decisions[id].Decision {
		case DecisionAccept:
			accepted = append(accepted, lt.Txn)
			e.decided.decide(id, DecisionAccept)
		case DecisionReject:
			e.decided.decide(id, DecisionReject)
		}
	}
	// Acceptance order, breaking ties (within one reconciliation batch) by
	// global order.
	sort.SliceStable(accepted, func(i, j int) bool {
		si, sj := decisions[accepted[i].ID].Seq, decisions[accepted[j].ID].Seq
		if si != sj {
			return si < sj
		}
		return accepted[i].Order < accepted[j].Order
	})

	flat, err := flattenOn(e.schema, e.inst, UpdateFootprint(accepted))
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if err := e.inst.CompatibleAll(flat); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	for _, u := range flat {
		e.inst.applyUnchecked(u)
	}
	e.noteProducers(accepted)
	e.unsettled = true // the instance and the decided table moved under any deferred candidate
	if haveOwn && maxOwnSeq+1 > e.nextSeq {
		e.nextSeq = maxOwnSeq + 1
	}
	return nil
}
