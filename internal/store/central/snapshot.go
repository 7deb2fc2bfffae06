package central

import (
	"context"
	"fmt"
	"sort"

	"orchestra/internal/core"
	"orchestra/internal/reldb"
	"orchestra/internal/store"
)

// This file implements the snapshot + compaction subsystem: periodic (or
// on-demand) global engine-state snapshots at stable-epoch boundaries, the
// bounded snapshot + tail rebuild path, and publish-log compaction behind a
// retained snapshot. The safety invariants — the reconciliation-frontier
// rule, the snapshot-coverage rule, and the residue rule — are documented
// in docs/RECOVERY.md; the differential matrix pins compaction to change
// storage only, never decisions.

// peerCopy is a consistent point-in-time copy of one peer's store state,
// taken with every peer lock held so the decision sequences of all peers
// describe the same instant.
type peerCopy struct {
	id        core.PeerID
	trust     core.Trust
	lastEpoch core.Epoch
	recno     int
	nextSeq   int64
	decided   core.DecisionTable
	// hw is the peer's folded decision prefix for the snapshot being
	// taken: the largest sequence such that every decision at or below it
	// references a transaction at or below the snapshot epoch. Usually
	// nextSeq; smaller when the peer has self-accepts on a finished epoch
	// the stable frontier has not reached yet (an earlier epoch still
	// open) — those decisions stay in the tail, where ReplayFrom can pair
	// them with their payloads.
	hw int64
}

// sortedPeers returns the registered peers and their metas, sorted by ID —
// the lock-acquisition order shared with RecordDecisionsBatch.
func (s *Store) sortedPeers() ([]core.PeerID, []*peerMeta) {
	s.peersMu.RLock()
	ids := make([]core.PeerID, 0, len(s.peers))
	for id := range s.peers {
		ids = append(ids, id)
	}
	s.peersMu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	pms := make([]*peerMeta, len(ids))
	for i, id := range ids {
		pms[i], _ = s.peer(id)
	}
	return ids, pms
}

// copyPeers captures every registered peer's decision state at one instant:
// all peer locks are held (in sorted order) while the maps are copied, so
// no decision can land between two peers' copies. The stable epoch is read
// inside the critical section — every decision in the copies therefore
// references transactions at or below it.
func (s *Store) copyPeers() ([]peerCopy, core.Epoch) {
	ids, pms := s.sortedPeers()
	for _, pm := range pms {
		lockContended(&pm.mu, s.counters.ObservePeerContention)
	}
	stable := s.stableEpoch()
	copies := make([]peerCopy, len(ids))
	for i, pm := range pms {
		copies[i] = peerCopy{
			id:        ids[i],
			trust:     pm.trust,
			lastEpoch: pm.lastEpoch,
			recno:     pm.recno,
			nextSeq:   pm.nextSeq,
			decided:   pm.decided.Clone(),
		}
	}
	for _, pm := range pms {
		pm.mu.Unlock()
	}
	return copies, stable
}

// entriesIn is the one scan of the transaction index: every indexed
// transaction of epochs (from, to], sorted by global order. Below the
// compaction horizon that is the residue of the retained snapshot, whose
// entries stay indexed after their epochs are compacted; above it, the live
// epochs' entries.
func (s *Store) entriesIn(from, to core.Epoch) []*entry {
	var out []*entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, en := range sh.m {
			if en.epoch > from && en.epoch <= to {
				out = append(out, en)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pub.Txn.Order < out[j].pub.Txn.Order })
	return out
}

// Snapshot implements store.Snapshotter: it serializes a global engine-state
// snapshot at the current stable epoch into the snapshots table (one atomic
// commit replaces the previously retained snapshot) and returns the epoch it
// covers. With nothing published yet it writes nothing and returns 0.
//
// The per-peer engine states are built server-side: each peer's recorded
// decisions are folded over the published log (seeded incrementally from the
// previously retained snapshot, so repeated snapshots do not re-replay
// compacted history). The residue — every transaction at or below the
// snapshot epoch not accepted by all registered peers — rides inside the
// snapshot payload so compaction can never strand a payload a future
// extension or late decision still needs.
func (s *Store) Snapshot(ctx context.Context) (core.Epoch, error) {
	if err := s.enter(); err != nil {
		return 0, err
	}
	defer s.exit()
	res, _, err := s.keyed(ctx, opSnapshot, func(key store.IdempotencyKey) (idemResult, error) {
		s.snapMu.Lock()
		defer s.snapMu.Unlock()
		epoch, err := s.snapshotLocked(ctx, key)
		return idemResult{e: epoch}, err
	})
	return res.e, err
}

// snapshotLocked takes the snapshot under snapMu; a non-empty key rides the
// snapshot-replace commit as a dedup record.
func (s *Store) snapshotLocked(ctx context.Context, key store.IdempotencyKey) (core.Epoch, error) {
	copies, stable := s.copyPeers()
	if stable == 0 {
		return 0, nil
	}
	s.snapState.mu.RLock()
	prior := s.snapState.snap
	s.snapState.mu.RUnlock()
	entries := s.entriesIn(0, stable)
	logged := make([]core.LoggedTxn, len(entries))
	for i, en := range entries {
		logged[i] = core.LoggedTxn{Txn: en.pub.Txn, Antecedents: en.pub.Antecedents}
	}

	// A decision is foldable iff its transaction is at or below the
	// snapshot epoch (or already compacted, which implies it). A peer can
	// hold self-accepts above the stable frontier — a finished epoch
	// waiting on an earlier open one — and those must stay in the tail:
	// each peer's high-water mark is its longest foldable decision
	// *prefix* (sequences are dense), so that the seq > hw tail filter of
	// ReplayFrom pairs exactly with what the snapshot lacks.
	foldable := func(id core.TxnID) bool {
		en := s.lookup(id)
		return en == nil || en.epoch <= stable
	}
	for i := range copies {
		cp := &copies[i]
		type sd struct {
			seq int64
			id  core.TxnID
		}
		ordered := make([]sd, 0, cp.decided.Len())
		cp.decided.Range(func(id core.TxnID, d core.RestoredDecision) {
			ordered = append(ordered, sd{seq: d.Seq, id: id})
		})
		sort.Slice(ordered, func(a, b int) bool { return ordered[a].seq < ordered[b].seq })
		for _, d := range ordered {
			if !foldable(d.id) {
				break
			}
			cp.hw = d.seq
		}
	}

	snap := &store.Snapshot{Epoch: stable}
	for i := range copies {
		cp := &copies[i]
		eng, afterSeq, err := store.SeedEngine(prior.Peer(cp.id), cp.id, s.schema, cp.trust)
		if err != nil {
			return 0, fmt.Errorf("central: seed: %w", err)
		}
		decs := make(map[core.TxnID]core.RestoredDecision)
		cp.decided.Range(func(id core.TxnID, d core.RestoredDecision) {
			if d.Seq > afterSeq && d.Seq <= cp.hw {
				decs[id] = d
			}
		})
		if err := eng.RestoreTail(logged, decs); err != nil {
			return 0, fmt.Errorf("central: snapshot state for %s: %w", cp.id, err)
		}
		snap.Peers = append(snap.Peers, store.PeerSnapshot{
			LastEpoch:   cp.lastEpoch,
			Recno:       cp.recno,
			DecisionSeq: cp.hw,
			Engine:      *eng.ExportSnapshot(),
		})
	}
	// Residue: anything some registered peer has not accepted *within its
	// folded prefix* can still appear in a future antecedent closure or
	// have its (late, or unfolded) decision replayed after this snapshot;
	// its payload must survive compaction. The entries are the index's,
	// already warmed, so snap can be shared as it is.
	for _, en := range entries {
		settled := true
		for i := range copies {
			cp := &copies[i]
			if d, _ := cp.decided.Get(en.pub.Txn.ID); d.Decision != core.DecisionAccept || d.Seq > cp.hw {
				settled = false
				break
			}
		}
		if !settled {
			snap.Residue = append(snap.Residue, en.pub)
		}
	}

	payload := store.AppendSnapshot(nil, snap)
	err := s.db.Update(func(tx *reldb.Tx) error {
		var old []int64
		if err := tx.Scan(s.snapsTab, func(r reldb.Row) bool {
			old = append(old, r[0].I())
			return true
		}); err != nil {
			return err
		}
		for _, e := range old {
			if _, err := tx.Delete(s.snapsTab, reldb.Int(e)); err != nil {
				return err
			}
		}
		if err := tx.Insert(s.snapsTab, reldb.Row{reldb.Int(int64(stable)), reldb.Bytes(payload)}); err != nil {
			return err
		}
		if key != "" {
			return tx.Insert(s.idemTab, idemRow(key, opSnapshot, int64(stable), 0, 0))
		}
		return nil
	})
	if err != nil {
		return 0, err // the old row is still the retained one: keep its cache
	}
	s.snapState.mu.Lock()
	s.snapState.snap = snap
	s.snapState.epoch = stable
	s.snapState.hw = make(map[core.PeerID]int64, len(copies))
	for i := range copies {
		s.snapState.hw[copies[i].id] = copies[i].hw
	}
	s.snapState.residue = make(map[core.TxnID]bool, len(snap.Residue))
	for i := range snap.Residue {
		s.snapState.residue[snap.Residue[i].Txn.ID] = true
	}
	s.snapState.mu.Unlock()
	s.counters.ObserveSnapshot()
	return stable, nil
}

// LatestSnapshot implements store.SnapshotReplayer: the retained snapshot,
// or nil if none has been taken. The value is shared and read-only —
// decoded once per retained snapshot: Open decodes the stored row, and a
// Snapshot commit installs the value it just encoded. Every call returns
// that one pointer, its residue transactions already warmed, until the
// next snapshot commit replaces it; once Snapshot has returned, no call
// returns an older one.
func (s *Store) LatestSnapshot(_ context.Context) (*store.Snapshot, error) {
	if err := s.enter(); err != nil {
		return nil, err
	}
	defer s.exit()
	s.snapState.mu.RLock()
	defer s.snapState.mu.RUnlock()
	return s.snapState.snap, nil
}

// ReplayFrom implements store.SnapshotReplayer: the published tail above
// the given epoch in global order, plus the peer's decisions recorded after
// the afterSeq high-water mark; ReplayFrom(peer, 0, -1) is the whole
// history (see docs/RECOVERY.md). After compaction, a from below the
// horizon is refused for a peer the retained snapshot covers — its early
// history lives only in the snapshot, and store.RebuildPeer starts it from
// there. A peer the snapshot does not cover registered after it, so every
// epoch it could have seen lies above the horizon: compacted epochs are
// void, and its walk from below the horizon is its whole history.
func (s *Store) ReplayFrom(_ context.Context, peer core.PeerID, from core.Epoch, afterSeq int64) ([]store.PublishedTxn, map[core.TxnID]core.RestoredDecision, error) {
	if err := s.enter(); err != nil {
		return nil, nil, err
	}
	defer s.exit()
	pm, err := s.peer(peer)
	if err != nil {
		return nil, nil, err
	}
	s.snapState.mu.RLock()
	compacted := s.snapState.compacted
	_, snapCovered := s.snapState.hw[peer]
	s.snapState.mu.RUnlock()
	if from < compacted && snapCovered {
		return nil, nil, fmt.Errorf("central: epochs through %d are compacted; rebuild %s from the retained snapshot (store.RebuildPeer)", compacted, peer)
	}
	var log []store.PublishedTxn
	for en := range s.window(from, s.maxEpoch()) {
		log = append(log, en.pub)
	}
	lockContended(&pm.mu, s.counters.ObservePeerContention)
	defer pm.mu.Unlock()
	decisions := make(map[core.TxnID]core.RestoredDecision)
	pm.decided.Range(func(id core.TxnID, d core.RestoredDecision) {
		if d.Seq > afterSeq {
			decisions[id] = d
		}
	})
	return log, decisions, nil
}

// CompactionHorizon returns the highest epoch CompactBefore would currently
// accept: the minimum of the retained snapshot's epoch and every registered
// peer's reconciliation frontier. It returns 0 when no snapshot is retained
// or some registered peer is not covered by it (a fresh snapshot fixes both).
func (s *Store) CompactionHorizon() core.Epoch {
	s.snapState.mu.RLock()
	h := s.snapState.epoch
	hw := s.snapState.hw
	s.snapState.mu.RUnlock()
	if h == 0 {
		return 0
	}
	ids, pms := s.sortedPeers()
	for i, pm := range pms {
		if _, covered := hw[ids[i]]; !covered {
			return 0
		}
		lockContended(&pm.mu, s.counters.ObservePeerContention)
		le := pm.lastEpoch
		pm.mu.Unlock()
		if le < h {
			h = le
		}
	}
	return h
}

// SnapshotEpoch returns the epoch of the retained snapshot (0 if none).
func (s *Store) SnapshotEpoch() core.Epoch {
	s.snapState.mu.RLock()
	defer s.snapState.mu.RUnlock()
	return s.snapState.epoch
}

// CompactedBefore returns the compaction horizon: every epoch at or below
// it has had its publish and decision rows dropped (0 = nothing compacted).
func (s *Store) CompactedBefore() core.Epoch {
	s.snapState.mu.RLock()
	defer s.snapState.mu.RUnlock()
	return s.snapState.compacted
}

// CompactBefore implements store.Snapshotter: drop the publish and decision
// rows of every epoch at or below e, in one atomic commit, and release the
// corresponding in-memory state. The call refuses to outrun the safety
// invariants (docs/RECOVERY.md): e must not exceed the retained snapshot's
// epoch or any registered peer's reconciliation frontier, and every
// registered peer must be covered by the retained snapshot. Decision rows
// recorded after the snapshot's per-peer high-water mark survive even when
// their transaction's epoch is compacted — they are the tail a
// snapshot-based rebuild replays, and the payloads they need live in the
// snapshot's residue.
func (s *Store) CompactBefore(ctx context.Context, e core.Epoch) error {
	if err := s.enter(); err != nil {
		return err
	}
	defer s.exit()
	_, _, err := s.keyed(ctx, opCompact, func(key store.IdempotencyKey) (idemResult, error) {
		s.snapMu.Lock()
		defer s.snapMu.Unlock()
		return idemResult{e: e}, s.compactBeforeLocked(e, key)
	})
	return err
}

// compactBeforeLocked compacts under snapMu; a non-empty key rides the
// compaction commit as a dedup record.
func (s *Store) compactBeforeLocked(e core.Epoch, key store.IdempotencyKey) error {
	s.snapState.mu.RLock()
	snapE := s.snapState.epoch
	compacted := s.snapState.compacted
	hw := s.snapState.hw
	residue := s.snapState.residue
	s.snapState.mu.RUnlock()
	if e <= compacted {
		return nil // already compacted through e
	}
	if snapE == 0 {
		return fmt.Errorf("central: compaction requires a retained snapshot (Store.Snapshot)")
	}
	if e > snapE {
		return fmt.Errorf("central: cannot compact through epoch %d past the retained snapshot at %d", e, snapE)
	}
	ids, pms := s.sortedPeers()
	for i, pm := range pms {
		if _, covered := hw[ids[i]]; !covered {
			return fmt.Errorf("central: peer %s is not covered by the retained snapshot; take a new snapshot before compacting", ids[i])
		}
		lockContended(&pm.mu, s.counters.ObservePeerContention)
		le := pm.lastEpoch
		pm.mu.Unlock()
		if le < e {
			return fmt.Errorf("central: cannot compact through epoch %d past peer %s's reconciliation frontier %d", e, ids[i], le)
		}
	}

	// The epochs this pass voids, and every indexed transaction at or
	// below the horizon: the transactions of the epochs being dropped now
	// plus former residue whose hold-outs have since settled (the retained
	// snapshot's residue set no longer lists them — time to release their
	// payloads too). The index still holds everything (purged below, after
	// the commit), so each decision entry can be matched to its epoch.
	var dropEpochs []core.Epoch
	s.epochMu.RLock()
	for ep := compacted + 1; ep <= e; ep++ {
		if _, ok := s.epochs.Get(ep); ok {
			dropEpochs = append(dropEpochs, ep)
		}
	}
	s.epochMu.RUnlock()
	oldIDs := make(map[core.TxnID]bool)
	for _, en := range s.entriesIn(0, e) {
		oldIDs[en.pub.Txn.ID] = true
	}

	// Dedup records whose retries are provably over ride out of existence
	// with this same commit: the horizon passing a record's watermark is
	// the retention bound (idempotency.go), so the tables cannot grow
	// without bound under retrying clients.
	pruneIdem := s.prunableIdem(e)

	// One atomic commit, tables touched in the documented lock order:
	// txns, decisions, then meta, then idempotency.
	err := s.db.Update(func(tx *reldb.Tx) error {
		var ords []int64
		if err := tx.Scan(s.txnsTab, func(r reldb.Row) bool {
			if core.Epoch(r[1].I()) <= e {
				ords = append(ords, r[0].I())
			}
			return true
		}); err != nil {
			return err
		}
		for _, ord := range ords {
			if _, err := tx.Delete(s.txnsTab, reldb.Int(ord)); err != nil {
				return err
			}
		}
		// A decision entry goes when its transaction's epoch is at or below
		// the horizon (or its transaction is unindexed) and the snapshot
		// folded it in (dseq <= the peer's high-water mark). A row keeps its
		// key and is rewritten to the entries that stay, or deleted when
		// none do.
		type decRewrite struct {
			peer    string
			first   int64
			payload []byte // nil: delete the row
		}
		var rewrites []decRewrite
		var scanErr error
		if err := tx.Scan(s.decisionsTab, func(r reldb.Row) bool {
			peer, first := r[0].S(), r[1].I()
			es, err := decodeDecisionRow(first, r[2].S())
			if err != nil {
				scanErr = fmt.Errorf("central: %s (%s, %d): %w", s.decisionsTab, peer, first, err)
				return false
			}
			keep := es[:0]
			for _, d := range es {
				if en := s.lookup(d.id); (en != nil && en.epoch > e) || d.dseq > hw[core.PeerID(peer)] {
					keep = append(keep, d)
				}
			}
			switch {
			case len(keep) == len(es):
			case len(keep) == 0:
				rewrites = append(rewrites, decRewrite{peer: peer, first: first})
			default:
				rewrites = append(rewrites, decRewrite{peer: peer, first: first, payload: appendDecisionRow(nil, first, keep)})
			}
			return true
		}); err != nil {
			return err
		}
		if scanErr != nil {
			return scanErr
		}
		for _, rw := range rewrites {
			var err error
			if rw.payload == nil {
				_, err = tx.Delete(s.decisionsTab, reldb.Str(rw.peer), reldb.Int(rw.first))
			} else {
				err = tx.Upsert(s.decisionsTab, reldb.Row{reldb.Str(rw.peer), reldb.Int(rw.first), reldb.Bytes(rw.payload)})
			}
			if err != nil {
				return err
			}
		}
		if err := tx.Upsert(s.metaTab, reldb.Row{reldb.Str("compacted_before"), reldb.Int(int64(e))}); err != nil {
			return err
		}
		for _, k := range pruneIdem {
			if _, err := tx.Delete(s.idemTab, reldb.Str(string(k))); err != nil {
				return err
			}
		}
		if key != "" {
			return tx.Insert(s.idemTab, idemRow(key, opCompact, int64(e), 0, 0))
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.dropIdem(pruneIdem)

	// Release the in-memory state the rows backed. Compacted epochs become
	// void metas — finished and empty, exactly what recovery reconstructs
	// for them — and the index keeps only the *current* residue, whose
	// payloads now live solely in the snapshot; entries below the horizon
	// that the retained snapshot no longer lists (formerly residue, since
	// settled) are released along with everything else.
	s.epochMu.Lock()
	for _, ep := range dropEpochs {
		em := &epochMeta{}
		em.finished.Store(true)
		s.epochs.Set(ep, em)
	}
	s.epochMu.Unlock()
	for id := range oldIDs {
		if residue[id] {
			continue
		}
		sh := s.shard(id)
		sh.mu.Lock()
		delete(sh.m, id)
		sh.mu.Unlock()
	}
	// Decision caches mirror the rows: entries folded into the snapshot
	// (seq <= high-water) for transactions at or below the horizon go
	// away, so a live compacted store and a reopened one serve identical
	// state.
	for i, pm := range pms {
		h := hw[ids[i]]
		lockContended(&pm.mu, s.counters.ObservePeerContention)
		for id := range oldIDs {
			if d, ok := pm.decided.Get(id); ok && d.Seq <= h {
				pm.decided.Delete(id)
			}
		}
		pm.mu.Unlock()
	}
	s.snapState.mu.Lock()
	s.snapState.compacted = e
	s.snapState.mu.Unlock()
	s.counters.ObserveCompaction(len(dropEpochs))
	return nil
}

// maybeMaintain runs the automatic snapshot/compaction policy after a
// publish: with WithSnapshotEvery(n), a snapshot is taken once the stable
// epoch is n past the retained one, and with WithCompactKeep(k) the log is
// then compacted to k epochs below the allowed horizon. Best-effort by
// design — maintenance failures never fail the publish that triggered them
// (the next publish retries), and a TryLock skips the cycle when another
// snapshot is already running.
func (s *Store) maybeMaintain(ctx context.Context) {
	if s.snapEvery <= 0 {
		return
	}
	s.snapState.mu.RLock()
	last := s.snapState.epoch
	s.snapState.mu.RUnlock()
	if int64(s.stableEpoch()-last) < s.snapEvery {
		return
	}
	if !s.snapMu.TryLock() {
		return
	}
	defer s.snapMu.Unlock()
	s.snapState.mu.RLock()
	last = s.snapState.epoch
	s.snapState.mu.RUnlock()
	if int64(s.stableEpoch()-last) < s.snapEvery {
		return
	}
	// Maintenance runs unkeyed: a snapshot or compaction triggered inside a
	// keyed publish must not consume the publish's idempotency key.
	if _, err := s.snapshotLocked(ctx, ""); err != nil {
		return
	}
	if s.compactKeep < 0 {
		return
	}
	e := s.CompactionHorizon() - core.Epoch(s.compactKeep)
	s.snapState.mu.RLock()
	compacted := s.snapState.compacted
	s.snapState.mu.RUnlock()
	if e > compacted {
		_ = s.compactBeforeLocked(e, "")
	}
}
