package central

import (
	"context"
	"fmt"
	"sort"

	"orchestra/internal/core"
	"orchestra/internal/reldb"
	"orchestra/internal/store"
)

// BeginReconciliation implements store.Store. Only the reconciling peer's
// own lock is held throughout, so any number of peers reconcile
// concurrently; the epoch window is read under per-epoch locks and the
// transaction index under its stripes. A context carrying an idempotency
// key makes the call safe to redeliver: a duplicate of a committed begin
// returns the original recno and window (with its candidates recomputed)
// instead of advancing the frontier again — without the key, a retried
// begin would permanently lose the first window's candidates.
func (s *Store) BeginReconciliation(ctx context.Context, peer core.PeerID) (*store.Reconciliation, error) {
	var rec *store.Reconciliation
	res, dup, err := s.keyed(ctx, opBegin, func(key store.IdempotencyKey) (idemResult, error) {
		var err error
		if rec, err = s.beginReconciliation(peer, key); err != nil {
			return idemResult{}, err
		}
		return idemResult{recno: rec.Recno, from: rec.FromEpoch, to: rec.ToEpoch}, nil
	})
	if dup {
		return s.replayReconciliation(peer, res)
	}
	return rec, err
}

func (s *Store) beginReconciliation(peer core.PeerID, key store.IdempotencyKey) (*store.Reconciliation, error) {
	pm, err := s.peer(peer)
	if err != nil {
		return nil, err
	}
	lockContended(&pm.mu, s.counters.ObservePeerContention)
	defer pm.mu.Unlock()
	// A recovered store may know the peer but not its trust policy (only
	// textual policies persist). Refuse cleanly rather than computing
	// candidate priorities against nothing: the error is permanent until
	// the peer re-registers, and no reconciliation window is consumed.
	if pm.trust == nil {
		return nil, fmt.Errorf("central: peer %s has no trust policy (re-register after recovery)", peer)
	}

	stable := s.stableEpoch()
	from := pm.lastEpoch
	if stable < from {
		stable = from
	}
	recno := pm.recno + 1
	// Record the reconciliation point immediately and commit, as §5.2.1
	// prescribes, so the epochs table is released for publishers. The dedup
	// record rides the same commit.
	err = s.db.Update(func(tx *reldb.Tx) error {
		if err := tx.Upsert(s.peersTab, reldb.Row{
			reldb.Str(string(peer)), reldb.Int(int64(stable)), reldb.Int(int64(recno)),
		}); err != nil {
			return err
		}
		if key != "" {
			return tx.Insert(s.idemTab, idemRow(key, opBegin, int64(recno), int64(from), int64(stable)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pm.lastEpoch = stable
	pm.recno = recno

	return &store.Reconciliation{
		Recno:      recno,
		FromEpoch:  from,
		ToEpoch:    stable,
		Candidates: s.candidatesLocked(pm, peer, from, stable),
	}, nil
}

// candidatesLocked walks the window (from, to] and collects the peer's
// candidates. The caller holds the peer's lock. Walking in epoch order —
// within an epoch the publish order is the global order — produces
// candidates order-sorted exactly as the single-lock implementation did.
func (s *Store) candidatesLocked(pm *peerMeta, peer core.PeerID, from, to core.Epoch) []*core.Candidate {
	var out []*core.Candidate
	for e := from + 1; e <= to; e++ {
		em := s.epoch(e)
		if em == nil {
			continue
		}
		for _, id := range em.txnIDs() {
			if en := s.lookup(id); en != nil {
				out = s.appendCandidate(out, pm, peer, en)
			}
		}
	}
	return out
}

// appendCandidate is the candidate filter of both window walks: a published
// transaction is a candidate for the peer unless the peer wrote it, has
// already decided it, or does not trust it. The caller holds the peer's
// lock.
func (s *Store) appendCandidate(out []*core.Candidate, pm *peerMeta, peer core.PeerID, en *entry) []*core.Candidate {
	x := en.pub.Txn
	if x.ID.Origin == peer {
		return out
	}
	if _, decided := pm.decided.Get(x.ID); decided {
		return out
	}
	prio := core.TxnPriority(pm.trust, x)
	if prio <= 0 {
		return out
	}
	return append(out, &core.Candidate{Txn: x, Priority: prio, Ext: s.extension(x.ID, pm)})
}

// replayCandidatesLocked recomputes a memoized reconciliation window's
// candidates for the dedup replay path. It applies the same filter as
// candidatesLocked but collects the window's transactions from the index
// instead of the epoch metas: a live begin always sees its window's epochs
// (compaction cannot pass the peer's own pre-begin frontier), but a
// duplicate can be delivered after those epochs were compacted to void —
// the index, which retains every snapshot-residue entry, is what still
// holds the window's undecided transactions then. Within uncompacted
// windows the two walks agree exactly: the index holds precisely the
// epochs' entries, and sorting by global order reproduces the epoch-order
// walk. The caller holds the peer's lock.
func (s *Store) replayCandidatesLocked(pm *peerMeta, peer core.PeerID, from, to core.Epoch) []*core.Candidate {
	var out []*core.Candidate
	for _, en := range s.entriesIn(from, to) {
		out = s.appendCandidate(out, pm, peer, en)
	}
	return out
}

// extension computes the transaction extension of root for the peer: the
// antecedent closure excluding transactions the peer has accepted, sorted
// by global order. The caller holds the peer's lock.
func (s *Store) extension(root core.TxnID, pm *peerMeta) []*core.Transaction {
	visited := map[core.TxnID]bool{root: true}
	var out []*core.Transaction
	stack := []core.TxnID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		en := s.lookup(id)
		if en == nil {
			continue // antecedent from before this store's history
		}
		if id != root {
			if d, _ := pm.decided.Get(id); d.Decision == core.DecisionAccept {
				continue
			}
		}
		out = append(out, en.pub.Txn)
		for _, a := range en.pub.Antecedents {
			if !visited[a] {
				visited[a] = true
				stack = append(stack, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// RecordDecisions implements store.Store as a single-entry batch.
func (s *Store) RecordDecisions(ctx context.Context, peer core.PeerID, recno int, accepted, rejected []core.TxnID) error {
	return s.RecordDecisionsBatch(ctx, []store.DecisionBatch{{
		Peer: peer, Recno: recno, Accepted: accepted, Rejected: rejected,
	}})
}

// RecordDecisionsBatch implements store.Store: every batch's decisions are
// committed in one database transaction — one round trip for a whole
// fan-out wave. Peers are locked in sorted order so concurrent batches
// cannot deadlock. A context carrying an idempotency key makes the call
// safe to redeliver: duplicates of a committed batch succeed without
// writing a second set of decision rows.
func (s *Store) RecordDecisionsBatch(ctx context.Context, batches []store.DecisionBatch) error {
	_, _, err := s.keyed(ctx, opDecide, func(key store.IdempotencyKey) (idemResult, error) {
		// The record's retention watermark: the current stable epoch is at or
		// above every batch peer's reconciliation frontier, and the compaction
		// horizon never passes a frontier — so the record survives at least
		// until each of those peers advances its frontier again, which a peer
		// still retrying this very call cannot do (see idempotency.go).
		wm := s.stableEpoch()
		return idemResult{e: wm}, s.recordDecisionsBatch(batches, key, wm)
	})
	return err
}

func (s *Store) recordDecisionsBatch(batches []store.DecisionBatch, key store.IdempotencyKey, wm core.Epoch) error {
	if len(batches) == 0 {
		return nil
	}
	pms := make([]*peerMeta, len(batches))
	for i, b := range batches {
		pm, err := s.peer(b.Peer)
		if err != nil {
			return err
		}
		pms[i] = pm
	}
	// Batches are visited by peer, a stable sort: one peer's batches keep
	// their relative order, so its dseqs are the ones the cache update
	// below assigns, and its decisions in each shard come out contiguous —
	// one row.
	order := make([]int, len(batches))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return batches[order[a]].Peer < batches[order[b]].Peer })
	locked := make(map[*peerMeta]bool, len(batches))
	for _, i := range order {
		if locked[pms[i]] {
			continue // same peer twice in one batch: one lock covers both
		}
		lockContended(&pms[i].mu, s.counters.ObservePeerContention)
		locked[pms[i]] = true
	}
	defer func() {
		for pm := range locked {
			pm.mu.Unlock()
		}
	}()

	total := 0
	for i, b := range batches {
		if b.Recno > pms[i].recno {
			return fmt.Errorf("central: decisions for future reconciliation %d (current %d)", b.Recno, pms[i].recno)
		}
		total += len(b.Accepted) + len(b.Rejected)
	}
	if total > 0 {
		// dseq continues each peer's sequence across the whole commit.
		// Decisions go to the shard of the decided transaction's epoch, and
		// each (shard, peer) pair becomes one row (decisions.go), written
		// with the shard indexes ascending — the documented decisions_k
		// lock order, so a wave's commit cannot deadlock against a
		// concurrent publish or another wave.
		//
		// Each shard's rows come from one walk over the decisions in
		// visiting order, which numbers every peer's decisions in turn;
		// shard holds each decision's shard, looked up once.
		shard := make([]int32, 0, total)
		for _, i := range order {
			for _, ids := range [2][]core.TxnID{batches[i].Accepted, batches[i].Rejected} {
				for _, id := range ids {
					shard = append(shard, int32(s.decisionShard(id)))
				}
			}
		}
		decisions := [2]core.Decision{core.DecisionAccept, core.DecisionReject}
		var buf []byte
		err := s.db.Update(func(tx *reldb.Tx) error {
			for k := range s.tableShards {
				var peer core.PeerID // the row in buf is peer's, from dseq first
				var first, prev, dseq int64
				flush := func() error {
					if len(buf) == 0 {
						return nil
					}
					err := tx.Insert(s.decisionsTab[k], reldb.Row{reldb.Str(string(peer)), reldb.Int(first), reldb.Bytes(buf)})
					buf = buf[:0]
					return err
				}
				v := 0
				for p, i := range order {
					b := batches[i]
					if p == 0 || pms[order[p-1]] != pms[i] {
						dseq = pms[i].nextSeq
					}
					for d, ids := range [2][]core.TxnID{b.Accepted, b.Rejected} {
						for _, id := range ids {
							dseq++
							if int(shard[v]) == k {
								if len(buf) == 0 || b.Peer != peer {
									if err := flush(); err != nil {
										return err
									}
									peer, first, prev = b.Peer, dseq, dseq
								}
								buf = appendDecisionEntry(buf, id, decisions[d], dseq-prev)
								prev = dseq
							}
							v++
						}
					}
				}
				if err := flush(); err != nil {
					return err
				}
			}
			if key != "" {
				return tx.Insert(s.idemTab, idemRow(key, opDecide, int64(wm), 0, 0))
			}
			return nil
		})
		if err != nil {
			return err
		}
		for i, b := range batches {
			for _, id := range b.Accepted {
				pms[i].recordDecisionLocked(id, core.DecisionAccept)
			}
			for _, id := range b.Rejected {
				pms[i].recordDecisionLocked(id, core.DecisionReject)
			}
		}
	}
	s.counters.ObserveDecisionRoundTrip(len(batches), total)
	return nil
}

// windowTxns is the one walk of the published log: the transactions of
// epochs (from, to] in epoch order, publish order within an epoch — the
// global order. ReplayFrom walks to the highest allocated epoch, behind
// the compaction guard. A finished epoch's transaction list is immutable
// and read lock-free; an epoch still publishing is copied under its lock.
func (s *Store) windowTxns(from, to core.Epoch) []store.PublishedTxn {
	var out []store.PublishedTxn
	for e := from + 1; e <= to; e++ {
		em := s.epoch(e)
		if em == nil {
			continue
		}
		for _, id := range em.txnIDs() {
			if en := s.lookup(id); en != nil {
				out = append(out, en.pub)
			}
		}
	}
	return out
}
