package central

import (
	"errors"
	"fmt"
	"sort"

	"orchestra/internal/core"
	"orchestra/internal/reldb"
	"orchestra/internal/store"
	"orchestra/internal/trust"
)

// resolveLayout reads the directory's table layout before the store
// touches any table but meta, and writes nothing: a fresh directory gets
// layoutVersion, layout 4 is upgraded by initTables (upgrade.go), and
// layout 3, earlier layouts and pre-shard directories (a plain "txns"
// table and no meta table) are refused — same no-migration policy as the
// binary-codec break.
func (s *Store) resolveLayout() (int64, error) {
	if _, ok := s.db.TableDef(s.metaTab); !ok {
		if _, ok := s.db.TableDef(s.txnsTab); ok {
			return 0, fmt.Errorf("central: store directory uses the pre-shard single-table layout; no migration path (layout version %d)", layoutVersion)
		}
		return layoutVersion, nil
	}
	var layout int64
	err := s.db.View(func(tx *reldb.Tx) error {
		r, ok, err := tx.Get(s.metaTab, reldb.Str("layout"))
		if ok {
			layout = r[1].I()
		}
		return err
	})
	switch {
	case err != nil:
		return 0, err
	case layout == 3:
		return 0, errLayout3
	case layout != 4 && layout != layoutVersion:
		return 0, fmt.Errorf("central: store directory has layout version %d, this build reads %d; no migration path", layout, layoutVersion)
	}
	return layout, nil
}

// errLayout3 refuses a directory of layout 3, which kept one decisions_k
// row per decision where later layouts keep one per commit and peer.
// resolveLayout returns it before the store reads any table but meta, and
// writes nothing. No release upgrades such a directory.
var errLayout3 = errors.New("central: store directory has table layout 3 (one decision row per decision), which this release no longer reads; commit 948bb9d is the last that reads it, and no release migrates it")

// initTables creates what a directory lacks, and upgrades a layout-4
// directory, in one commit.
func (s *Store) initTables() error {
	layout, err := s.resolveLayout()
	if err != nil {
		return err
	}
	return s.db.Update(func(tx *reldb.Tx) error {
		create := func(def reldb.TableDef) error {
			if tx.HasTable(def.Name) {
				return nil
			}
			return tx.CreateTable(def)
		}
		if !tx.HasTable(s.metaTab) {
			if err := tx.CreateTable(reldb.TableDef{
				Name: s.metaTab,
				Cols: []reldb.ColDef{
					{Name: "key", Type: reldb.ColString},
					{Name: "value", Type: reldb.ColInt},
				},
				Key: []int{0},
			}); err != nil {
				return err
			}
			if err := tx.Insert(s.metaTab, reldb.Row{reldb.Str("layout"), reldb.Int(layoutVersion)}); err != nil {
				return err
			}
		}
		// One row per published batch, not per transaction: the payload is
		// the whole []store.PublishedTxn in one binary-codec stream
		// (store.AppendPublishedTxns).
		if err := create(reldb.TableDef{
			Name: s.txnsTab,
			Cols: []reldb.ColDef{
				{Name: "ord", Type: reldb.ColInt},
				{Name: "epoch", Type: reldb.ColInt},
				{Name: "count", Type: reldb.ColInt},
				{Name: "payload", Type: reldb.ColBytes},
			},
			Key: []int{0},
		}); err != nil {
			return err
		}
		if err := create(reldb.TableDef{
			Name: s.decisionsTab,
			Cols: []reldb.ColDef{
				{Name: "peer", Type: reldb.ColString},
				{Name: "first_dseq", Type: reldb.ColInt},
				{Name: "payload", Type: reldb.ColBytes},
			},
			Key: []int{0, 1},
		}); err != nil {
			return err
		}
		if err := create(reldb.TableDef{
			Name: s.peersTab,
			Cols: []reldb.ColDef{
				{Name: "peer", Type: reldb.ColString},
				{Name: "last_epoch", Type: reldb.ColInt},
				{Name: "recno", Type: reldb.ColInt},
			},
			Key: []int{0},
		}); err != nil {
			return err
		}
		// One row: the retained global engine-state snapshot (binary codec,
		// store.AppendSnapshot). Each Snapshot() commit atomically replaces
		// it; a torn commit rolls back whole, so the previous snapshot (and
		// the publish log) are never voided by a crash mid-snapshot.
		if err := create(reldb.TableDef{
			Name: s.snapsTab,
			Cols: []reldb.ColDef{
				{Name: "epoch", Type: reldb.ColInt},
				{Name: "payload", Type: reldb.ColBytes},
			},
			Key: []int{0},
		}); err != nil {
			return err
		}
		// One row per idempotency-keyed operation that committed: the key,
		// the operation, and its memoized result (see idempotency.go). Rows
		// are written inside the keyed operation's own commit, so a crash
		// can never separate an operation from its dedup record. Created
		// conditionally: directories from before this table gain it on
		// reopen with no layout break.
		if err := create(reldb.TableDef{
			Name: s.idemTab,
			Cols: []reldb.ColDef{
				{Name: "key", Type: reldb.ColString},
				{Name: "op", Type: reldb.ColString},
				{Name: "r1", Type: reldb.ColInt},
				{Name: "r2", Type: reldb.ColInt},
				{Name: "r3", Type: reldb.ColInt},
			},
			Key: []int{0},
		}); err != nil {
			return err
		}
		// One row per peer whose trust policy is textual (*trust.Policy):
		// the policy source, so recovery restores it and the store serves
		// reconciliations after a restart without waiting for peers to
		// re-register. In-process predicate policies cannot be persisted;
		// those peers must re-register after recovery (beginReconciliation
		// refuses them with a clear error until they do).
		if err := create(reldb.TableDef{
			Name: s.trustTab,
			Cols: []reldb.ColDef{
				{Name: "peer", Type: reldb.ColString},
				{Name: "policy", Type: reldb.ColString},
			},
			Key: []int{0},
		}); err != nil {
			return err
		}
		if layout == 4 {
			return s.upgradeLayout4(tx)
		}
		return nil
	})
}

// loadCaches rebuilds the in-memory indexes from the tables after recovery.
// Open is single-threaded, so no store locks are taken here.
func (s *Store) loadCaches() error {
	err := s.db.View(func(tx *reldb.Tx) error {
		// Every epoch with a txns row is finished: its publish committed
		// the row and the publisher's self-accepts together.
		var scanErr error
		var recovered []*entry
		if err := tx.Scan(s.txnsTab, func(r reldb.Row) bool {
			batch, err := store.DecodePublishedTxns(r[3].Raw())
			if err != nil {
				scanErr = err
				return false
			}
			e := core.Epoch(r[1].I())
			if _, ok := s.epochs.Get(e); !ok {
				em := &epochMeta{}
				em.finished.Store(true)
				s.epochs.Set(e, em)
				s.maxE = max(s.maxE, e)
			}
			for _, pub := range batch {
				// Decoding seeds the tuple encodings; warming adds the key
				// projections before the recovered transactions are shared
				// across reconciling peers.
				pub.Txn.PrecomputeEncodings(s.schema)
				recovered = append(recovered, &entry{pub: pub, epoch: e})
			}
			return true
		}); err != nil {
			return err
		}
		if scanErr != nil {
			return scanErr
		}
		// The durable sequence is the allocator's block high-water mark.
		// Epochs up to it that never reached a durable publish commit —
		// the unissued block remainder, allocations whose publishes died
		// with the previous process, or epochs compacted away — can never
		// carry transactions now; register them as void (finished, empty)
		// so the stable frontier passes over the gaps. Allocation resumes
		// with a fresh block above the high-water mark.
		seqHW := core.Epoch(tx.CurrentSeq(s.epochSeq))
		for e := core.Epoch(1); e <= seqHW; e++ {
			if _, ok := s.epochs.Get(e); !ok {
				em := &epochMeta{}
				em.finished.Store(true)
				s.epochs.Set(e, em)
			}
		}
		s.maxE = max(s.maxE, seqHW)
		s.blockNext, s.blockEnd = seqHW+1, seqHW
		sort.Slice(recovered, func(i, j int) bool {
			return recovered[i].pub.Txn.Order < recovered[j].pub.Txn.Order
		})
		for _, en := range recovered {
			s.index(en)
			em, _ := s.epochs.Get(en.epoch)
			em.txns = append(em.txns, en.pub.Txn.ID)
		}
		if err := tx.Scan(s.peersTab, func(r reldb.Row) bool {
			s.peers[core.PeerID(r[0].S())] = &peerMeta{
				lastEpoch: core.Epoch(r[1].I()),
				recno:     int(r[2].I()),
			}
			return true
		}); err != nil {
			return err
		}
		// Restore persisted textual trust policies. Peers registered with
		// in-process predicate policies have no row here and stay
		// trust-less until they re-register. Every row is parsed before
		// any policy is resolved: a policy may delegate to a peer whose
		// row scans later, and per-row resolution would bind incomplete
		// closures.
		recoveredTrust := make(map[core.PeerID]*trust.Policy)
		if err := tx.Scan(s.trustTab, func(r reldb.Row) bool {
			if s.peers[core.PeerID(r[0].S())] == nil {
				return true
			}
			p, err := trust.Parse(r[1].S())
			if err != nil {
				scanErr = fmt.Errorf("central: peer %s persisted trust policy: %w", r[0].S(), err)
				return false
			}
			recoveredTrust[core.PeerID(r[0].S())] = p.WithSchema(s.schema)
			return true
		}); err != nil {
			return err
		}
		if scanErr != nil {
			return scanErr
		}
		for peer, p := range recoveredTrust {
			// Registration order is irrelevant: Set re-resolves every
			// already-loaded policy whose closure reaches the new member.
			s.trustGraph.Set(peer, p)
		}
		for peer := range recoveredTrust {
			s.peers[peer].trust = s.trustGraph.Effective(peer)
		}
		// An id decided more than once keeps its highest dseq, whatever
		// order the rows scan in.
		if err := tx.Scan(s.decisionsTab, func(r reldb.Row) bool {
			pm := s.peers[core.PeerID(r[0].S())]
			if pm == nil {
				return true
			}
			es, err := decodeDecisionRow(r[1].I(), r[2].S())
			if err != nil {
				scanErr = fmt.Errorf("central: %s (%s, %d): %w", s.decisionsTab, r[0].S(), r[1].I(), err)
				return false
			}
			for _, e := range es {
				if e.dseq < 0 || e.dseq > core.MaxDecisionSeq {
					scanErr = fmt.Errorf("central: %s (%s, %d): dseq %d out of range", s.decisionsTab, r[0].S(), r[1].I(), e.dseq)
					return false
				}
				if old, ok := pm.decided.Get(e.id); !ok || e.dseq > old.Seq {
					pm.decided.Set(e.id, core.RestoredDecision{Decision: e.d, Seq: e.dseq})
				}
				if e.dseq > pm.nextSeq {
					pm.nextSeq = e.dseq
				}
			}
			return true
		}); err != nil {
			return err
		}
		if scanErr != nil {
			return scanErr
		}
		if r, ok, err := tx.Get(s.metaTab, reldb.Str("compacted_before")); err != nil {
			return err
		} else if ok {
			s.snapState.compacted = core.Epoch(r[1].I())
		}
		return s.loadIdem(tx)
	})
	if err != nil {
		return err
	}
	if err := s.loadSnapshotState(); err != nil {
		return err
	}
	s.advanceFrontier()
	return nil
}

// loadSnapshotState rebuilds the snapshot-derived caches after recovery:
// the retained snapshot itself — the one decode of it this store makes,
// its residue warmed before LatestSnapshot shares it — its epoch, per-peer
// decision high-water marks, the residue entries (whose payloads exist
// only in the snapshot once their epochs are compacted), and each peer's
// decision-sequence floor. Open is single-threaded, so no store locks are
// taken here.
func (s *Store) loadSnapshotState() error {
	var payload []byte
	err := s.db.View(func(tx *reldb.Tx) error {
		best := int64(-1)
		return tx.Scan(s.snapsTab, func(r reldb.Row) bool {
			if e := r[0].I(); e > best {
				best = e
				payload = r[1].Raw()
			}
			return true
		})
	})
	if err != nil {
		return err
	}
	if payload == nil {
		if s.snapState.compacted > 0 {
			return fmt.Errorf("central: directory compacted through epoch %d but retains no snapshot", s.snapState.compacted)
		}
		return nil
	}
	snap, err := store.DecodeSnapshot(payload)
	if err != nil {
		return fmt.Errorf("central: retained snapshot: %w", err)
	}
	for i := range snap.Residue {
		snap.Residue[i].Txn.PrecomputeEncodings(s.schema)
	}
	s.snapState.snap = snap
	s.snapState.epoch = snap.Epoch
	s.snapState.hw = make(map[core.PeerID]int64, len(snap.Peers))
	s.snapState.residue = make(map[core.TxnID]bool, len(snap.Residue))
	for i := range snap.Residue {
		s.snapState.residue[snap.Residue[i].Txn.ID] = true
	}
	for i := range snap.Peers {
		ps := &snap.Peers[i]
		s.snapState.hw[ps.Engine.Peer] = ps.DecisionSeq
		// Decision sequences must keep ascending past what the snapshot
		// folded in, even when compaction dropped every durable decision
		// row of a peer.
		if pm := s.peers[ps.Engine.Peer]; pm != nil && ps.DecisionSeq > pm.nextSeq {
			pm.nextSeq = ps.DecisionSeq
		}
	}
	for i := range snap.Residue {
		pub := snap.Residue[i]
		if s.lookup(pub.Txn.ID) == nil {
			s.index(&entry{pub: pub, epoch: pub.Txn.Epoch})
		}
	}
	return nil
}
