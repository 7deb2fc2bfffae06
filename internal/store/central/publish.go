package central

import (
	"context"
	"fmt"

	"orchestra/internal/core"
	"orchestra/internal/reldb"
	"orchestra/internal/store"
	"orchestra/internal/trust"
)

// RegisterPeer implements store.Store. Re-registering an existing peer
// (e.g. after recovery, or to change trust mid-stream) replaces its trust
// policy and keeps its history. Textual policies (*trust.Policy) are
// persisted alongside the peer row so a recovered store serves
// reconciliations without re-registration; in-process predicate policies
// cannot travel into the directory, so any previously persisted text is
// dropped rather than left to resurrect an outdated policy on the next
// recovery.
//
// The textual form stays the durable format; what registration installs
// is the policy's *effective* trust, resolved through the store's trust
// graph. Delegations must name peers this store already knows.
// Re-registration re-resolves only the affected participants —
// those whose delegation closure reaches this peer.
func (s *Store) RegisterPeer(_ context.Context, peer core.PeerID, t core.Trust) error {
	if err := s.enter(); err != nil {
		return err
	}
	defer s.exit()
	s.peersMu.Lock()
	defer s.peersMu.Unlock()
	if pol, ok := t.(*trust.Policy); ok {
		if pol.Schema() == nil {
			pol.WithSchema(s.schema)
		}
		// A delegation to a peer this store has never seen would silently
		// contribute nothing; refuse it instead.
		for _, d := range pol.Delegations() {
			if d.Peer == peer {
				continue
			}
			if _, known := s.peers[d.Peer]; !known {
				return fmt.Errorf("central: peer %s delegates to unregistered peer %s", peer, d.Peer)
			}
		}
	}
	_, known := s.peers[peer]
	err := s.db.Update(func(tx *reldb.Tx) error {
		if !known {
			if err := tx.Insert(s.peersTab, reldb.Row{reldb.Str(string(peer)), reldb.Int(0), reldb.Int(0)}); err != nil {
				return err
			}
		}
		if p, ok := t.(*trust.Policy); ok {
			return tx.Upsert(s.trustTab, reldb.Row{reldb.Str(string(peer)), reldb.Str(p.String())})
		}
		_, err := tx.Delete(s.trustTab, reldb.Str(string(peer)))
		return err
	})
	if err != nil {
		return err
	}
	if !known {
		s.peers[peer] = &peerMeta{}
	}
	affected := s.trustGraph.Set(peer, t)
	for _, ap := range affected {
		pm := s.peers[ap]
		if pm == nil {
			continue
		}
		eff := s.trustGraph.Effective(ap)
		pm.mu.Lock()
		pm.trust = eff
		pm.mu.Unlock()
	}
	s.counters.ObserveTrustRecompiles(len(affected))
	return nil
}

// EffectiveTrust implements store.TrustResolver: it returns the peer's
// resolved trust — its own rules merged with every delegation
// closure member's capped rules.
func (s *Store) EffectiveTrust(_ context.Context, peer core.PeerID) (core.Trust, error) {
	if err := s.enter(); err != nil {
		return nil, err
	}
	defer s.exit()
	s.peersMu.RLock()
	defer s.peersMu.RUnlock()
	if _, ok := s.peers[peer]; !ok {
		return nil, fmt.Errorf("central: unknown peer %s", peer)
	}
	return s.trustGraph.Effective(peer), nil
}

// allocEpoch is the publish path's single global critical section, and it
// is normally memory-only: epoch numbers come from a pre-claimed block,
// and the durable sequence commit runs once per epochBlock allocations.
// The epoch becomes durable with its publish commit (publishWrite's txns
// row); an epoch that dies between allocation and that commit leaves no
// durable trace and is voided by recovery. Everything expensive — payload
// encoding, cache warming, indexing — happens outside this lock, under
// per-epoch and per-peer locks.
func (s *Store) allocEpoch() (core.Epoch, error) {
	if !s.epochMu.TryLock() {
		s.counters.ObserveEpochContention()
		s.epochMu.Lock()
	}
	defer s.epochMu.Unlock()
	if s.blockNext > s.blockEnd {
		var end int64
		err := s.db.Update(func(tx *reldb.Tx) error {
			var err error
			end, err = tx.AdvanceSeq(s.epochSeq, epochBlock)
			return err
		})
		if err != nil {
			return 0, err
		}
		s.blockNext, s.blockEnd = core.Epoch(end)-epochBlock+1, core.Epoch(end)
	}
	epoch := s.blockNext
	s.blockNext++
	s.epochs.Set(epoch, &epochMeta{})
	if epoch > s.maxE {
		s.maxE = epoch
	}
	return epoch, nil
}

// publishWrite writes a non-empty batch into the epoch the peer was just
// allocated and finishes the epoch, in one database commit: the batch's
// transactions get their global orders and are recorded as accepted by
// the publisher. A non-empty key records the publish's dedup row in the
// same commit.
func (s *Store) publishWrite(peer core.PeerID, epoch core.Epoch, txns []store.PublishedTxn, key store.IdempotencyKey) error {
	em := s.epoch(epoch)
	pm, err := s.peer(peer)
	if err != nil {
		return err
	}

	em.mu.Lock()
	defer em.mu.Unlock()
	// Assign orders and encode the batch before taking the peer lock or
	// the database lock: encoding is the expensive part of publishing, and
	// it runs under the per-epoch lock only, which nobody else contends
	// for. The whole batch becomes one compact binary payload
	// (store.AppendPublishedTxns — reflection-free; gob's per-encoder type
	// descriptors used to dominate the publish profile).
	base := uint64(len(em.txns))
	for i := range txns {
		pt := &txns[i]
		pt.Txn.Epoch = epoch
		pt.Txn.Order = uint64(epoch)*OrderStride + base + uint64(i)
		// Warm the encoding caches before the entries become visible:
		// BeginReconciliation hands these *Transaction pointers to every
		// peer, and concurrently reconciling engines must never lazily
		// populate a shared cache.
		pt.Txn.PrecomputeEncodings(s.schema)
	}
	payload := store.AppendPublishedTxns(nil, txns)

	lockContended(&pm.mu, s.counters.ObservePeerContention)
	defer pm.mu.Unlock()
	// One commit carries the whole publish: the batch payload, which is
	// the epoch's first durable trace (allocation itself is memory-only)
	// and marks it finished, and the publisher's self-accepts as one
	// decision row, in the documented txns → decisions order.
	s.counters.EnterPublishCommit()
	err = s.db.Update(func(tx *reldb.Tx) error {
		if err := tx.Insert(s.txnsTab, reldb.Row{
			reldb.Int(int64(txns[0].Txn.Order)),
			reldb.Int(int64(epoch)),
			reldb.Int(int64(len(txns))),
			reldb.Bytes(payload),
		}); err != nil {
			return err
		}
		// The self-accepts are one decision row, their dseqs consecutive
		// from pm.nextSeq+1. Its payload is encoded into the batch
		// payload's buffer, which the txns row has copied.
		dec := payload[:0]
		for i := range txns {
			dec = appendDecisionEntry(dec, txns[i].Txn.ID, core.DecisionAccept, min(int64(i), 1))
		}
		if err := tx.Insert(s.decisionsTab, reldb.Row{
			reldb.Str(string(peer)), reldb.Int(pm.nextSeq + 1), reldb.Bytes(dec),
		}); err != nil {
			return err
		}
		if key != "" {
			return tx.Insert(s.idemTab, idemRow(key, opPublish, int64(epoch), 0, 0))
		}
		return nil
	})
	s.counters.LeavePublishCommit()
	if err != nil {
		return err
	}
	for i := range txns {
		pt := txns[i]
		s.index(&entry{pub: pt, epoch: epoch})
		em.txns = append(em.txns, pt.Txn.ID)
		pm.recordDecisionLocked(pt.Txn.ID, core.DecisionAccept)
	}
	em.finished.Store(true)
	s.advanceFrontier()
	return nil
}

// Publish implements store.Store: allocate an epoch, then write and finish
// in a single database commit. When automatic maintenance is configured
// (WithSnapshotEvery/WithCompactKeep), a publish past the snapshot cadence
// runs it before returning, unless another snapshot is running: maintenance
// never blocks a publish, so that one skips it and the next publish past
// the cadence takes it. A context carrying an
// idempotency key (store.WithIdempotencyKey) makes the publish safe to
// redeliver: duplicates of a committed publish return the original epoch
// without publishing again.
func (s *Store) Publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn) (core.Epoch, error) {
	if err := s.enter(); err != nil {
		return 0, err
	}
	defer s.exit()
	s.counters.ObservePublish()
	if _, err := s.peer(peer); err != nil {
		return 0, err
	}
	res, _, err := s.keyed(ctx, opPublish, func(key store.IdempotencyKey) (idemResult, error) {
		epoch, err := s.publish(ctx, peer, txns, key)
		return idemResult{e: epoch}, err
	})
	return res.e, err
}

// publish is the Publish body; a non-empty key rides the publish commit as
// a dedup record.
func (s *Store) publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn, key store.IdempotencyKey) (core.Epoch, error) {
	if len(txns) == 0 {
		// Naturally idempotent: nothing commits, so a keyed empty publish
		// memoizes in memory only.
		return s.maxEpoch(), nil
	}
	epoch, err := s.allocEpoch()
	if err != nil {
		return 0, err
	}
	if err := s.publishWrite(peer, epoch, txns, key); err != nil {
		return 0, err
	}
	s.maybeMaintain(ctx)
	return epoch, nil
}

// stableEpoch returns the most recent epoch not preceded by an unfinished
// allocated epoch — a single atomic load: the frontier is maintained
// incrementally by advanceFrontier at every epoch finish instead of being
// recomputed by an O(epochs) scan per reconciliation.
func (s *Store) stableEpoch() core.Epoch {
	return core.Epoch(s.stableE.Load())
}

// advanceFrontier pushes the stable-epoch frontier through consecutively
// finished (or void) epochs. Called after every epoch finish; the critical
// section touches only the epoch registry, so taking epochMu here while
// holding epoch/peer locks cannot deadlock. Advancement is monotone and
// re-scans from the current frontier, so racing finishers converge on the
// same answer regardless of order.
func (s *Store) advanceFrontier() {
	s.epochMu.Lock()
	old := core.Epoch(s.stableE.Load())
	st := old
	for {
		em, ok := s.epochs.Get(st + 1)
		if !ok || !em.finished.Load() {
			break
		}
		st++
	}
	s.stableE.Store(int64(st))
	s.epochMu.Unlock()
	if st > old {
		s.notifyWatchers()
	}
}
