package central

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/reldb"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
)

// snapshotHistory drives a small three-peer history with accepts and
// rejects against the store: pa's chain wins over pb's conflicting value at
// pq. It returns the peers keyed by ID.
func snapshotHistory(t *testing.T, s *Store, schema *core.Schema) map[core.PeerID]*store.Peer {
	t.Helper()
	ctx := context.Background()
	trustQ := storetest.TrustOrigins(map[core.PeerID]int{"pa": 2, "pb": 1})
	peers := map[core.PeerID]*store.Peer{}
	for _, id := range []core.PeerID{"pa", "pb"} {
		p, err := store.NewPeer(ctx, id, schema, storetest.TrustAll(1), s)
		if err != nil {
			t.Fatal(err)
		}
		peers[id] = p
	}
	pq, err := store.NewPeer(ctx, "pq", schema, trustQ, s)
	if err != nil {
		t.Fatal(err)
	}
	peers["pq"] = pq

	mustCycle := func(p *store.Peer) *core.Result {
		res, err := p.PublishAndReconcile(ctx)
		if err != nil {
			t.Fatalf("cycle %s: %v", p.ID(), err)
		}
		return res
	}
	if _, err := peers["pa"].Edit(core.Insert("F", core.Strs("rat", "p1", "v0"), "pa")); err != nil {
		t.Fatal(err)
	}
	if _, err := peers["pa"].Edit(core.Modify("F", core.Strs("rat", "p1", "v0"), core.Strs("rat", "p1", "v1"), "pa")); err != nil {
		t.Fatal(err)
	}
	mustCycle(peers["pa"])
	if _, err := peers["pb"].Edit(core.Insert("F", core.Strs("rat", "p1", "other"), "pb")); err != nil {
		t.Fatal(err)
	}
	mustCycle(peers["pb"])
	res := mustCycle(pq)
	if len(res.Accepted) != 2 || len(res.Rejected) != 1 {
		t.Fatalf("pq history outcome: %+v", res)
	}
	// Publishers catch up too, so every reconciliation frontier covers the
	// full history and compaction has room to run.
	mustCycle(peers["pa"])
	mustCycle(peers["pb"])
	return peers
}

// TestOpenRefusesSnapshotV1: a directory whose retained snapshot row is in
// version 1 of the snapshot codec — here a real snapshot's row with its
// version byte set back to 1 — makes Open fail with the codec's refusal,
// which names commit d723caa, the first release that can upgrade it.
func TestOpenRefusesSnapshotV1(t *testing.T) {
	schema := storetest.Schema(t)
	dir := t.TempDir()
	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	snapshotHistory(t, s, schema)
	epoch, err := s.Snapshot(context.Background())
	if err != nil || epoch == 0 {
		t.Fatalf("snapshot: %d, %v", epoch, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := reldb.Open(reldb.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Update(func(tx *reldb.Tx) error {
		row, ok, err := tx.Get("snapshots", reldb.Int(int64(epoch)))
		if err != nil || !ok {
			return fmt.Errorf("retained row at epoch %d: %t, %v", epoch, ok, err)
		}
		payload := row[1].Raw()
		payload[0] = 1
		return tx.Upsert("snapshots", reldb.Row{reldb.Int(int64(epoch)), reldb.Bytes(payload)})
	})
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if s, err := Open(schema, dir); err == nil {
		s.Close()
		t.Fatal("Open accepted a version-1 retained snapshot")
	} else if !strings.Contains(err.Error(), "d723caa") {
		t.Errorf("Open = %v, want the refusal naming commit d723caa", err)
	}
}

// TestTornSnapshotCommitNeverVoidsTheLog: a crash that tears the WAL in the
// middle of a Snapshot() commit must roll the whole snapshot write back —
// the publish log keeps every transaction, the previously retained snapshot
// (if any) stays intact, and peers still rebuild.
func TestTornSnapshotCommitNeverVoidsTheLog(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)

	t.Run("FirstSnapshotTorn", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(schema, dir)
		if err != nil {
			t.Fatal(err)
		}
		snapshotHistory(t, s, schema)
		txns := s.TxnCount()
		if _, err := s.Snapshot(ctx); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		tearLastWALRecord(t, dir)

		s2, err := Open(schema, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if got, err := s2.LatestSnapshot(ctx); err != nil || got != nil {
			t.Errorf("torn first snapshot survived: %v, %v", got, err)
		}
		if got := s2.TxnCount(); got != txns {
			t.Errorf("log lost transactions: %d, want %d", got, txns)
		}
		// Full replay still rebuilds everyone.
		trustQ := storetest.TrustOrigins(map[core.PeerID]int{"pa": 2, "pb": 1})
		rq, err := store.RebuildPeer(ctx, "pq", schema, trustQ, s2)
		if err != nil {
			t.Fatalf("rebuild after torn snapshot: %v", err)
		}
		if rq.Instance().Len("F") != 1 {
			t.Errorf("rebuilt instance: %v", rq.Instance().Tuples("F"))
		}
	})

	t.Run("ReplacementSnapshotTorn", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(schema, dir)
		if err != nil {
			t.Fatal(err)
		}
		peers := snapshotHistory(t, s, schema)
		first, err := s.Snapshot(ctx)
		if err != nil || first == 0 {
			t.Fatalf("first snapshot: %d, %v", first, err)
		}
		if _, err := peers["pa"].Edit(core.Insert("F", core.Strs("mouse", "p2", "w"), "pa")); err != nil {
			t.Fatal(err)
		}
		if _, err := peers["pa"].PublishAndReconcile(ctx); err != nil {
			t.Fatal(err)
		}
		second, err := s.Snapshot(ctx)
		if err != nil || second <= first {
			t.Fatalf("second snapshot: %d, %v", second, err)
		}
		txns := s.TxnCount()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		tearLastWALRecord(t, dir)

		s2, err := Open(schema, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		// The replacement commit (delete old + insert new) rolled back
		// whole: the first snapshot is still the retained one.
		if got := s2.SnapshotEpoch(); got != first {
			t.Errorf("retained snapshot epoch %d, want %d", got, first)
		}
		snap, err := s2.LatestSnapshot(ctx)
		if err != nil || snap == nil || snap.Epoch != first {
			t.Fatalf("latest snapshot: %+v, %v", snap, err)
		}
		if got := s2.TxnCount(); got != txns {
			t.Errorf("log lost transactions: %d, want %d", got, txns)
		}
		// Snapshot + tail and full replay still agree.
		trustQ := storetest.TrustOrigins(map[core.PeerID]int{"pa": 2, "pb": 1})
		viaSnap, err := store.RebuildPeer(ctx, "pq", schema, trustQ, s2)
		if err != nil {
			t.Fatal(err)
		}
		viaFull, err := store.FullReplayRebuild(ctx, "pq", schema, trustQ, s2)
		if err != nil {
			t.Fatal(err)
		}
		if !viaSnap.Instance().Equal(viaFull.Instance()) {
			t.Error("snapshot and full-replay rebuilds diverged after torn replacement")
		}
	})
}

// TestCompactionSurvivesReopen: compaction's row drops and the retained
// snapshot must be equivalent across a reopen — rebuilt peers identical,
// dropped epochs really gone from every shard's tables, the log writable.
func TestCompactionSurvivesReopen(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	dir := t.TempDir()
	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	peers := snapshotHistory(t, s, schema)
	horizon, err := s.Snapshot(ctx)
	if err != nil || horizon == 0 {
		t.Fatalf("snapshot: %d, %v", horizon, err)
	}
	if err := s.CompactBefore(ctx, horizon); err != nil {
		t.Fatalf("compact: %v", err)
	}
	// Tail beyond the horizon.
	if _, err := peers["pa"].Edit(core.Insert("F", core.Strs("mouse", "p2", "w"), "pa")); err != nil {
		t.Fatal(err)
	}
	if _, err := peers["pa"].PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := peers["pq"].PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}

	trustQ := storetest.TrustOrigins(map[core.PeerID]int{"pa": 2, "pb": 1})
	pre, err := store.RebuildPeer(ctx, "pq", schema, trustQ, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.CompactedBefore(); got != horizon {
		t.Errorf("recovered compaction horizon %d, want %d", got, horizon)
	}
	if got := s2.SnapshotEpoch(); got != horizon {
		t.Errorf("recovered snapshot epoch %d, want %d", got, horizon)
	}
	// The txns table retains no rows at or below the horizon.
	err = s2.db.View(func(tx *reldb.Tx) error {
		return tx.Scan(s2.txnsTab, func(r reldb.Row) bool {
			if core.Epoch(r[1].I()) <= horizon {
				t.Errorf("%s retains a payload for epoch %d <= horizon %d", s2.txnsTab, r[1].I(), horizon)
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replay from below the horizon is gone for snapshot-covered peers —
	// by design, with a pointed error — but the snapshot + tail rebuild
	// matches the pre-reopen rebuild exactly.
	if _, _, err := s2.ReplayFrom(ctx, "pq", 0, -1); err == nil || !strings.Contains(err.Error(), "compacted") {
		t.Errorf("ReplayFrom(0) after compaction: %v, want compaction error", err)
	}
	post, err := store.RebuildPeer(ctx, "pq", schema, trustQ, s2)
	if err != nil {
		t.Fatal(err)
	}
	if !post.Instance().Equal(pre.Instance()) {
		t.Errorf("reopened rebuild diverged: %v vs %v",
			post.Instance().Tuples("F"), pre.Instance().Tuples("F"))
	}
	// The log stays writable and deliverable.
	if err := s2.RegisterPeer(ctx, "pa", storetest.TrustAll(1)); err != nil {
		t.Fatal(err)
	}
	batch := []store.PublishedTxn{{Txn: core.NewTransaction(
		core.TxnID{Origin: "pa", Seq: 100},
		core.Insert("F", core.Strs("dog", "p3", "q"), "pa"))}}
	if _, err := s2.Publish(ctx, "pa", batch); err != nil {
		t.Fatalf("publish after compacted reopen: %v", err)
	}
}

// TestCompactionRefusals: every safety invariant turns into an explicit
// error — no snapshot, past the snapshot, past a peer's reconciliation
// frontier, and a registered peer the snapshot does not cover.
func TestCompactionRefusals(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	s := MustOpenMemory(schema)
	defer s.Close()

	if err := s.CompactBefore(ctx, 1); err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("compaction without snapshot: %v", err)
	}

	// laggard is registered before the snapshot but never reconciles: its
	// frontier pins the horizon at 0.
	if err := s.RegisterPeer(ctx, "laggard", storetest.TrustAll(1)); err != nil {
		t.Fatal(err)
	}
	peers := snapshotHistory(t, s, schema)
	epoch, err := s.Snapshot(ctx)
	if err != nil || epoch == 0 {
		t.Fatalf("snapshot: %d, %v", epoch, err)
	}
	if err := s.CompactBefore(ctx, epoch+1); err == nil || !strings.Contains(err.Error(), "past the retained snapshot") {
		t.Errorf("compaction past snapshot: %v", err)
	}
	if err := s.CompactBefore(ctx, epoch); err == nil || !strings.Contains(err.Error(), "frontier") {
		t.Errorf("compaction past laggard's frontier: %v", err)
	}
	if got := s.CompactionHorizon(); got != 0 {
		t.Errorf("horizon with an unreconciled peer = %d, want 0", got)
	}
	// The laggard catches up; now a freshly registered peer (not covered by
	// the retained snapshot) blocks compaction instead.
	if _, err := s.BeginReconciliation(ctx, "laggard"); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordDecisions(ctx, "laggard", 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.CompactionHorizon(); got != epoch {
		t.Errorf("horizon after laggard caught up = %d, want %d", got, epoch)
	}
	if err := s.RegisterPeer(ctx, "newcomer", storetest.TrustAll(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactBefore(ctx, epoch); err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Errorf("compaction with uncovered peer: %v", err)
	}
	if got := s.CompactionHorizon(); got != 0 {
		t.Errorf("horizon with uncovered peer = %d, want 0", got)
	}
	// A fresh snapshot covers everyone; once the newcomer reconciles, its
	// frontier reaches the stable epoch and compaction goes through.
	if _, err := s.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginReconciliation(ctx, "newcomer"); err != nil {
		t.Fatal(err)
	}
	if got := s.CompactionHorizon(); got < epoch {
		t.Errorf("horizon after covering snapshot = %d, want >= %d", got, epoch)
	}
	if err := s.CompactBefore(ctx, s.CompactionHorizon()); err != nil {
		t.Errorf("compaction after covering snapshot: %v", err)
	}
	_ = peers
}

// TestRebuildNewcomerAfterCompaction: a peer that registers after a
// compaction is not covered by the retained snapshot, so its rebuild
// replays from epoch 0. The replay is not refused — the compacted epochs
// are void, and every epoch the newcomer could have decided lies above the
// horizon — while the same replay for a covered peer is. The rebuilt
// newcomer equals the live one.
func TestRebuildNewcomerAfterCompaction(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	s := MustOpenMemory(schema)
	defer s.Close()
	peers := snapshotHistory(t, s, schema)
	if _, err := s.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	horizon := s.CompactionHorizon()
	if horizon == 0 {
		t.Fatal("no compaction horizon: scenario not exercised")
	}
	if err := s.CompactBefore(ctx, horizon); err != nil {
		t.Fatal(err)
	}

	trustN := storetest.TrustOrigins(map[core.PeerID]int{"pa": 2, "pb": 1})
	pn, err := store.NewPeer(ctx, "pn", schema, trustN, s)
	if err != nil {
		t.Fatal(err)
	}
	// A window with an accept, a reject and the newcomer's own edit: pa and
	// pb write the same key, and pn trusts pa more.
	cycle := func(p *store.Peer, us ...core.Update) *core.Result {
		t.Helper()
		if len(us) > 0 {
			if _, err := p.Edit(us...); err != nil {
				t.Fatal(err)
			}
		}
		res, err := p.PublishAndReconcile(ctx)
		if err != nil {
			t.Fatalf("cycle %s: %v", p.ID(), err)
		}
		return res
	}
	cycle(peers["pa"], core.Insert("F", core.Strs("mouse", "p2", "high"), "pa"))
	cycle(peers["pb"], core.Insert("F", core.Strs("mouse", "p2", "low"), "pb"))
	res := cycle(pn, core.Insert("F", core.Strs("dog", "p3", "pn-val"), "pn"))
	if len(res.Accepted) == 0 || len(res.Rejected) == 0 {
		t.Fatalf("newcomer's window decided %+v, want an accept and a reject", res)
	}

	if _, _, err := s.ReplayFrom(ctx, "pq", 0, -1); err == nil || !strings.Contains(err.Error(), "compacted") {
		t.Errorf("ReplayFrom(pq, 0) after compaction: %v, want compaction error", err)
	}
	log, decisions, err := s.ReplayFrom(ctx, "pn", 0, -1)
	if err != nil {
		t.Fatalf("ReplayFrom(pn, 0): %v", err)
	}
	rebuilt, err := store.RebuildPeer(ctx, "pn", schema, trustN, s)
	if err != nil {
		t.Fatalf("rebuild newcomer: %v", err)
	}
	if !rebuilt.Instance().Equal(pn.Instance()) {
		t.Errorf("rebuilt instance %v, want %v", rebuilt.Instance().Tuples("F"), pn.Instance().Tuples("F"))
	}
	for _, pt := range log {
		id := pt.Txn.ID
		if got, want := rebuilt.Engine().Applied(id), pn.Engine().Applied(id); got != want {
			t.Errorf("applied(%s) = %v after rebuild, %v live", id, got, want)
		}
		if got, want := rebuilt.Engine().Rejected(id), pn.Engine().Rejected(id); got != want {
			t.Errorf("rejected(%s) = %v after rebuild, %v live", id, got, want)
		}
	}
	if len(decisions) != len(res.Accepted)+len(res.Rejected)+1 {
		t.Errorf("replayed %d decisions, want the window's %d plus the self-accept", len(decisions), len(res.Accepted)+len(res.Rejected))
	}
}

// TestLateDecisionOnCompactedEpoch is the residue invariant end-to-end: a
// transaction deferred before the snapshot is undecided, so its payload
// rides the snapshot's residue through compaction; when the peer later
// resolves the conflict, the accept/reject lands on a compacted epoch — and
// a snapshot + tail rebuild still reproduces the resolved state exactly.
func TestLateDecisionOnCompactedEpoch(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	s := MustOpenMemory(schema)
	defer s.Close()

	pa, _ := store.NewPeer(ctx, "pa", schema, storetest.TrustAll(1), s)
	pb, _ := store.NewPeer(ctx, "pb", schema, storetest.TrustAll(1), s)
	pq, err := store.NewPeer(ctx, "pq", schema, storetest.TrustAll(1), s)
	if err != nil {
		t.Fatal(err)
	}
	xa, err := pa.Edit(core.Insert("F", core.Strs("rat", "p1", "va"), "pa"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pa.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	xb, err := pb.Edit(core.Insert("F", core.Strs("rat", "p1", "vb"), "pb"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	// Equal priorities tie: pq defers both — undecided, so both stay in
	// the snapshot residue.
	res, err := pq.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deferred) != 2 {
		t.Fatalf("expected a two-way tie, got %+v", res)
	}
	// pa and pb catch up so their frontiers clear the compaction horizon.
	if _, err := pa.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}

	epoch, err := s.Snapshot(ctx)
	if err != nil || epoch == 0 {
		t.Fatalf("snapshot: %d, %v", epoch, err)
	}
	snap, err := s.LatestSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := map[core.TxnID]bool{}
	for _, pt := range snap.Residue {
		found[pt.Txn.ID] = true
	}
	if !found[xa.ID] || !found[xb.ID] {
		t.Fatalf("undecided transactions missing from residue: %v", snap.Residue)
	}
	if err := s.CompactBefore(ctx, epoch); err != nil {
		t.Fatalf("compact: %v", err)
	}

	// The late decision: pq resolves the tie in favor of pa — an accept
	// and a reject recorded for transactions whose epochs are compacted.
	groups := pq.Engine().ConflictGroups()
	if len(groups) != 1 {
		t.Fatalf("conflict groups: %v", groups)
	}
	winner := -1
	for i, o := range groups[0].Options {
		for _, id := range o.Txns {
			if id == xa.ID {
				winner = i
			}
		}
	}
	if _, err := pq.Resolve(ctx, groups[0].Conflict, winner); err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if !pq.Engine().Applied(xa.ID) || !pq.Engine().Rejected(xb.ID) {
		t.Fatalf("resolution did not land: %+v", pq.Engine())
	}

	// Rebuild from the compacted store: the snapshot has no trace of the
	// resolution, the decision rows point at compacted epochs, and the
	// payloads exist only in the residue — the rebuilt peer must still
	// carry the resolved state.
	rq, err := store.RebuildPeer(ctx, "pq", schema, storetest.TrustAll(1), s)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if !rq.Engine().Applied(xa.ID) {
		t.Error("rebuilt peer lost the late accept on a compacted epoch")
	}
	if !rq.Engine().Rejected(xb.ID) {
		t.Error("rebuilt peer lost the late reject on a compacted epoch")
	}
	if !rq.Instance().Equal(pq.Instance()) {
		t.Errorf("rebuilt instance %v, want %v", rq.Instance().Tuples("F"), pq.Instance().Tuples("F"))
	}
}

// TestSnapshotWithSelfAcceptAboveStable: a peer can hold self-accept
// decisions on a *finished* epoch the stable frontier has not reached yet
// (an earlier epoch is still open, via the split publish API). The
// snapshot is taken at the stable boundary, so those decisions must stay
// out of the folded prefix — in the tail, where ReplayFrom pairs them
// with their payloads — or a rebuild silently loses the peer's own
// transaction.
func TestSnapshotWithSelfAcceptAboveStable(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	s := MustOpenMemory(schema)
	defer s.Close()
	for _, id := range []core.PeerID{"pa", "pb"} {
		if err := s.RegisterPeer(ctx, id, storetest.TrustAll(1)); err != nil {
			t.Fatal(err)
		}
	}
	publish := func(peer core.PeerID, seq uint64, prot string) core.TxnID {
		t.Helper()
		x := core.NewTransaction(core.TxnID{Origin: peer, Seq: seq},
			core.Insert("F", core.Strs(string(peer), prot, "fn"), peer))
		if _, err := s.Publish(ctx, peer, []store.PublishedTxn{{Txn: x}}); err != nil {
			t.Fatal(err)
		}
		return x.ID
	}
	early := publish("pa", 0, "stable") // epoch 1, finished: the stable frontier
	// pb holds epoch 2 open, then pa finishes epoch 3 above it.
	open, err := s.allocEpoch()
	if err != nil {
		t.Fatal(err)
	}
	late := publish("pa", 1, "above-stable") // epoch 3, finished but unstable
	if got := s.stableEpoch(); got != 1 {
		t.Fatalf("stable = %d, want 1 (epoch %d still open)", got, open)
	}

	epoch, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("snapshot epoch = %d, want 1", epoch)
	}
	snap, err := s.LatestSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ps := snap.Peer("pa")
	if ps == nil {
		t.Fatal("pa missing from snapshot")
	}
	for _, id := range ps.Engine.Applied {
		if id == late {
			t.Fatalf("snapshot folded a decision above its epoch: %v", ps.Engine.Applied)
		}
	}

	// The open epoch closes; pa is rebuilt from snapshot + tail and must
	// have BOTH its transactions — the one below and the one above the
	// snapshot boundary.
	xb := core.NewTransaction(core.TxnID{Origin: "pb", Seq: 0},
		core.Insert("F", core.Strs("pb", "mid", "fn"), "pb"))
	if err := s.publishWrite("pb", open, []store.PublishedTxn{{Txn: xb}}, ""); err != nil {
		t.Fatal(err)
	}
	ra, err := store.RebuildPeer(ctx, "pa", schema, storetest.TrustAll(1), s)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []core.TxnID{early, late} {
		if !ra.Engine().Applied(id) {
			t.Errorf("rebuilt pa lost its own transaction %s", id)
		}
	}
	if got := ra.Instance().Len("F"); got != 2 {
		t.Errorf("rebuilt pa instance has %d tuples, want 2: %v", got, ra.Instance().Tuples("F"))
	}
}

// TestAutoMaintenance: WithSnapshotEvery + WithCompactKeep run the
// snapshot/compaction policy from the publish path, without explicit calls.
func TestAutoMaintenance(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)

	// The policy is a pair: compaction without a snapshot cadence would
	// never run, so it is refused at open rather than silently ignored.
	for _, c := range []struct {
		name    string
		opts    []Option
		wantErr bool
	}{
		{"keep without cadence", []Option{WithCompactKeep(0)}, true},
		{"keep with zero cadence", []Option{WithSnapshotEvery(0), WithCompactKeep(3)}, true},
		{"keep off", []Option{WithCompactKeep(-1)}, false},
		{"cadence without keep", []Option{WithSnapshotEvery(2)}, false},
	} {
		s, err := Open(schema, "", c.opts...)
		if err == nil {
			s.Close()
		}
		if (err != nil) != c.wantErr {
			t.Errorf("Open(%s): err = %v, want error %v", c.name, err, c.wantErr)
		}
		node, err := OpenNode("", c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := node.OpenGroup("g", schema); (err != nil) != c.wantErr {
			t.Errorf("OpenGroup(%s): err = %v, want error %v", c.name, err, c.wantErr)
		}
		node.Close()
	}

	s, err := Open(schema, "", WithSnapshotEvery(2), WithCompactKeep(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pa, _ := store.NewPeer(ctx, "pa", schema, storetest.TrustAll(1), s)
	pb, _ := store.NewPeer(ctx, "pb", schema, storetest.TrustAll(1), s)
	for i := 0; i < 4; i++ {
		for j, p := range []*store.Peer{pa, pb} {
			if _, err := p.Edit(core.Insert("F",
				core.Strs("org", fmt.Sprintf("prot-%d-%d", i, j), "fn"), p.ID())); err != nil {
				t.Fatal(err)
			}
			if _, err := p.PublishAndReconcile(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.SnapshotEpoch() == 0 {
		t.Error("automatic snapshot never ran")
	}
	if s.CompactedBefore() == 0 {
		t.Error("automatic compaction never ran")
	}
	snap := s.Metrics().Snapshot()
	if snap.Snapshots == 0 || snap.Compactions == 0 {
		t.Errorf("maintenance counters: %+v", snap)
	}
}
