package central

import (
	"context"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
)

// candidateIDs flattens a reconciliation's candidates to their txn IDs, in
// delivery order.
func candidateIDs(r *store.Reconciliation) []core.TxnID {
	out := make([]core.TxnID, 0, len(r.Candidates))
	for _, c := range r.Candidates {
		out = append(out, c.Txn.ID)
	}
	return out
}

// wantSameIDs asserts got holds exactly the wanted IDs, ignoring order.
func wantSameIDs(t *testing.T, what string, got []core.TxnID, want ...core.TxnID) {
	t.Helper()
	g := make(map[core.TxnID]bool, len(got))
	for _, id := range got {
		g[id] = true
	}
	w := make(map[core.TxnID]bool, len(want))
	for _, id := range want {
		w[id] = true
	}
	if len(g) != len(got) || len(g) != len(w) {
		t.Errorf("%s: got %v, want %v", what, got, want)
		return
	}
	for id := range w {
		if !g[id] {
			t.Errorf("%s: got %v, want %v", what, got, want)
			return
		}
	}
}

// hasIdem reports whether the store currently holds a completed dedup
// record for key (in the entry map, which mirrors the durable table).
func hasIdem(s *Store, key store.IdempotencyKey) bool {
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	_, ok := s.idem[key]
	return ok
}

// publishOne edits one insert at p and publishes it directly through st
// (bypassing the Peer wrapper's pending queue), returning the transaction.
func publishOne(t *testing.T, st store.Store, p *store.Peer, val string) *core.Transaction {
	t.Helper()
	x, err := p.Edit(core.Insert("F", core.Strs("rat", val, "v"), p.ID()))
	if err != nil {
		t.Fatal(err)
	}
	batch := []store.PublishedTxn{{Txn: x}} // an insert of a new value has no antecedents
	if _, err := st.Publish(context.Background(), p.ID(), batch); err != nil {
		t.Fatalf("publish %s: %v", val, err)
	}
	return x
}

// TestReplayedBeginRefusesTrustlessPeer: a deduped BeginReconciliation
// replayed after a store restart must hit the same trust guard as a fresh
// begin — a recovered store knows the peer but not its in-process predicate
// policy, and replaying candidates would otherwise compute priorities
// against a nil policy (formerly a panic). Re-registering the peer makes
// the same replay succeed with the original window.
func TestReplayedBeginRefusesTrustlessPeer(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	dir := t.TempDir()

	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	// pa's policy is an in-process predicate — exactly the kind a store
	// restart cannot restore.
	if _, err := store.NewPeer(ctx, "pa", schema, core.TrustAll(1), s); err != nil {
		t.Fatal(err)
	}
	pb, err := store.NewPeer(ctx, "pb", schema, storetest.TrustAll(1), s)
	if err != nil {
		t.Fatal(err)
	}
	x := publishOne(t, s, pb, "p1")

	kctx := store.WithIdempotencyKey(ctx, "replay/begin/1")
	r1, err := s.BeginReconciliation(kctx, "pa")
	if err != nil {
		t.Fatalf("keyed begin: %v", err)
	}
	if len(r1.Candidates) != 1 {
		t.Fatalf("keyed begin candidates: %+v", candidateIDs(r1))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The duplicate delivery lands on the recovered store, whose peer row
	// survived but whose predicate trust policy could not. The replay must
	// refuse like a fresh begin would, not panic computing priorities.
	if _, err := s2.BeginReconciliation(kctx, "pa"); err == nil || !strings.Contains(err.Error(), "re-register") {
		t.Fatalf("replayed begin against trustless peer: %v, want re-register error", err)
	}

	// After re-registration the same duplicate replays the original window.
	if err := s2.RegisterPeer(ctx, "pa", storetest.TrustAll(1)); err != nil {
		t.Fatal(err)
	}
	r2, err := s2.BeginReconciliation(kctx, "pa")
	if err != nil {
		t.Fatalf("replayed begin after re-register: %v", err)
	}
	if r2.Recno != r1.Recno || r2.FromEpoch != r1.FromEpoch || r2.ToEpoch != r1.ToEpoch {
		t.Errorf("replayed window differs: %+v vs %+v", r2, r1)
	}
	if ids := candidateIDs(r2); len(ids) != 1 || ids[0] != x.ID {
		t.Errorf("replayed candidates: %v, want [%v]", ids, x.ID)
	}
}

// TestReplayedBeginSurvivesCompaction: compaction may void every epoch of a
// deduped begin's window (the begin itself advanced the peer's frontier
// past it), but the duplicate delivery must still replay the window's
// candidates — they are undecided by the replaying peer, so the snapshot
// residue keeps their payloads indexed. The former epoch-walk replay
// returned an empty candidate list here.
func TestReplayedBeginSurvivesCompaction(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	s, err := Open(schema, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := store.NewPeer(ctx, "pa", schema, storetest.TrustAll(1), s); err != nil {
		t.Fatal(err)
	}
	pb, err := store.NewPeer(ctx, "pb", schema, storetest.TrustAll(1), s)
	if err != nil {
		t.Fatal(err)
	}
	// Two single-txn publishes give the window two epochs, so the replay
	// spans several voided epoch registrations, not just one.
	x1 := publishOne(t, s, pb, "p1")
	x2 := publishOne(t, s, pb, "p2")

	kctx := store.WithIdempotencyKey(ctx, "replay/begin/compacted")
	r1, err := s.BeginReconciliation(kctx, "pa")
	if err != nil {
		t.Fatalf("keyed begin: %v", err)
	}
	wantSameIDs(t, "keyed begin candidates", candidateIDs(r1), x1.ID, x2.ID)

	// Advance pb's frontier too, then snapshot and compact through the
	// whole window. pa has not decided x1/x2, so they sit in the snapshot
	// residue and stay indexed past the compaction.
	if _, err := s.BeginReconciliation(ctx, "pb"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	h := s.CompactionHorizon()
	if h < r1.ToEpoch {
		t.Fatalf("compaction horizon %d does not cover the window through %d", h, r1.ToEpoch)
	}
	if err := s.CompactBefore(ctx, h); err != nil {
		t.Fatal(err)
	}
	if got := s.CompactedBefore(); got < r1.ToEpoch {
		t.Fatalf("compacted through %d, want at least %d — scenario not exercised", got, r1.ToEpoch)
	}

	// The duplicate delivery must replay the identical window and the
	// identical candidates, epochs voided or not.
	r2, err := s.BeginReconciliation(kctx, "pa")
	if err != nil {
		t.Fatalf("replayed begin after compaction: %v", err)
	}
	if r2.Recno != r1.Recno || r2.FromEpoch != r1.FromEpoch || r2.ToEpoch != r1.ToEpoch {
		t.Errorf("replayed window differs: %+v vs %+v", r2, r1)
	}
	wantSameIDs(t, "replayed candidates after compaction", candidateIDs(r2), candidateIDs(r1)...)
	for i, c := range r2.Candidates {
		if want := r1.Candidates[i]; c.Txn.ID != want.Txn.ID || c.Priority != want.Priority {
			t.Errorf("replayed candidate %d: %v prio %d, want %v prio %d", i, c.Txn.ID, c.Priority, want.Txn.ID, want.Priority)
		}
	}
}

// TestCompactionPrunesIdempotencyRecords: CompactBefore must delete every
// dedup record whose epoch watermark lies below the horizon — durable row
// and in-memory entry alike — while records at or above it survive (their
// retries may still be in flight). The pruning must stick across a restart.
func TestCompactionPrunesIdempotencyRecords(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	dir := t.TempDir()
	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := store.NewPeer(ctx, "pa", schema, storetest.TrustAll(1), s)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := store.NewPeer(ctx, "pb", schema, storetest.TrustAll(1), s)
	if err != nil {
		t.Fatal(err)
	}

	// Round one, all keyed: publish at epoch 1, a begin whose window ends
	// there, and a decide observing stable epoch 1. All three watermarks
	// sit at 1.
	x, err := pa.Edit(core.Insert("F", core.Strs("rat", "p1", "v"), "pa"))
	if err != nil {
		t.Fatal(err)
	}
	pubBatch := []store.PublishedTxn{{Txn: x}} // an insert of a new value has no antecedents
	if _, err := s.Publish(store.WithIdempotencyKey(ctx, "old/publish"), "pa", pubBatch); err != nil {
		t.Fatal(err)
	}
	rb, err := s.BeginReconciliation(store.WithIdempotencyKey(ctx, "old/begin"), "pb")
	if err != nil {
		t.Fatal(err)
	}
	decide := []store.DecisionBatch{{Peer: "pb", Recno: rb.Recno, Accepted: []core.TxnID{x.ID}}}
	if err := s.RecordDecisionsBatch(store.WithIdempotencyKey(ctx, "old/decide"), decide); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginReconciliation(ctx, "pa"); err != nil {
		t.Fatal(err)
	}

	// Round two pushes the stable frontier to epoch 2 and leaves one keyed
	// decide whose watermark is the new frontier.
	y := publishOne(t, s, pb, "p2")
	ra, err := s.BeginReconciliation(ctx, "pa")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginReconciliation(ctx, "pb"); err != nil {
		t.Fatal(err)
	}
	decide2 := []store.DecisionBatch{{Peer: "pa", Recno: ra.Recno, Accepted: []core.TxnID{y.ID}}}
	if err := s.RecordDecisionsBatch(store.WithIdempotencyKey(ctx, "new/decide"), decide2); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	h := s.CompactionHorizon()
	if h < 2 {
		t.Fatalf("compaction horizon %d, want at least 2 — scenario not exercised", h)
	}
	if err := s.CompactBefore(store.WithIdempotencyKey(ctx, "new/compact"), h); err != nil {
		t.Fatal(err)
	}

	old := []store.IdempotencyKey{"old/publish", "old/begin", "old/decide"}
	kept := []store.IdempotencyKey{"new/decide", "new/compact"}
	for _, k := range old {
		if hasIdem(s, k) {
			t.Errorf("dedup record %q survived compaction past its watermark", k)
		}
	}
	for _, k := range kept {
		if !hasIdem(s, k) {
			t.Errorf("dedup record %q at the horizon was pruned", k)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The durable table must agree: pruned rows stay gone after recovery,
	// kept rows reload and still dedupe.
	s2, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, k := range old {
		if hasIdem(s2, k) {
			t.Errorf("pruned dedup row %q reappeared after restart", k)
		}
	}
	for _, k := range kept {
		if !hasIdem(s2, k) {
			t.Errorf("kept dedup row %q lost across restart", k)
		}
	}
	hits := s2.Metrics().Snapshot().DedupHits
	if err := s2.CompactBefore(store.WithIdempotencyKey(ctx, "new/compact"), h); err != nil {
		t.Fatalf("redelivered keyed compact: %v", err)
	}
	if got := s2.Metrics().Snapshot().DedupHits; got != hits+1 {
		t.Errorf("redelivered compact was not a dedup hit: %d hits, want %d", got, hits+1)
	}
}
