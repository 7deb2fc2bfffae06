package central

import (
	"context"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
)

func factory(t *testing.T, schema *core.Schema) (func(core.PeerID) store.Store, func()) {
	s := MustOpenMemory(schema)
	return func(core.PeerID) store.Store { return s }, func() { s.Close() }
}

// TestConformance runs both tiers of the store contract; the watch and
// tenancy legs of tier two are the next two tests.
func TestConformance(t *testing.T) {
	storetest.RunConformance(t, factory)
	storetest.RunBackendConformance(t, factory)
}

func TestWatchConformance(t *testing.T) {
	storetest.RunWatchConformance(t, factory)
}

// TestMultiGroupConformance runs the tenancy suite over a Node hosting
// every group in one shared in-memory database.
func TestMultiGroupConformance(t *testing.T) {
	storetest.RunMultiGroupConformance(t,
		func(t *testing.T, schema *core.Schema) (func(string, core.PeerID) store.Store, func()) {
			node, err := OpenNode("")
			if err != nil {
				t.Fatal(err)
			}
			stores := make(map[string]*Store)
			return func(group string, _ core.PeerID) store.Store {
				if s, ok := stores[group]; ok {
					return s
				}
				s, err := node.OpenGroup(group, schema)
				if err != nil {
					t.Fatal(err)
				}
				stores[group] = s
				return s
			}, func() { node.Close() }
		})
}

// TestUnfinishedEpochBlocksStable: a reconciler must not see past an
// unfinished epoch, even when later epochs are complete (§5.2.1).
func TestUnfinishedEpochBlocksStable(t *testing.T) {
	schema := storetest.Schema(t)
	s := MustOpenMemory(schema)
	defer s.Close()
	ctx := context.Background()
	for _, p := range []core.PeerID{"a", "b", "c"} {
		if err := s.RegisterPeer(ctx, p, core.TrustAll(1)); err != nil {
			t.Fatal(err)
		}
	}
	// a is allocated epoch 1 but stalls before writing and finishing it.
	e1, err := s.allocEpoch()
	if err != nil {
		t.Fatal(err)
	}

	// b publishes epoch 2 completely.
	txnB := store.PublishedTxn{Txn: core.NewTransaction(
		core.TxnID{Origin: "b", Seq: 0},
		core.Insert("F", core.Strs("mouse", "p2", "vb"), "b"))}
	if _, err := s.Publish(ctx, "b", []store.PublishedTxn{txnB}); err != nil {
		t.Fatal(err)
	}

	// c reconciles: the stable epoch precedes e1, so it sees nothing.
	rec, err := s.BeginReconciliation(ctx, "c")
	if err != nil {
		t.Fatal(err)
	}
	if rec.ToEpoch != e1-1 || len(rec.Candidates) != 0 {
		t.Fatalf("rec = %+v, want empty window before epoch %d", rec, e1)
	}

	// a writes and finishes; now both epochs become visible.
	txnA := store.PublishedTxn{Txn: core.NewTransaction(
		core.TxnID{Origin: "a", Seq: 0},
		core.Insert("F", core.Strs("rat", "p1", "va"), "a"))}
	if err := s.publishWrite("a", e1, []store.PublishedTxn{txnA}, ""); err != nil {
		t.Fatal(err)
	}
	rec, err = s.BeginReconciliation(ctx, "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Candidates) != 2 {
		t.Fatalf("candidates after finish = %d, want 2", len(rec.Candidates))
	}
}

// TestDurabilityAcrossReopen: a store recovered from disk serves the same
// reconciliation state.
func TestDurabilityAcrossReopen(t *testing.T) {
	schema := storetest.Schema(t)
	dir := t.TempDir()
	ctx := context.Background()

	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := store.NewPeer(ctx, "pa", schema, core.TrustAll(1), s)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := store.NewPeer(ctx, "pb", schema, core.TrustAll(1), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pa.Edit(core.Insert("F", core.Strs("rat", "p1", "v1"), "pa")); err != nil {
		t.Fatal(err)
	}
	if _, err := pa.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: peers re-register (trust is in-memory) and resume.
	s2, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.TxnCount() != 1 {
		t.Fatalf("recovered %d txns, want 1", s2.TxnCount())
	}
	if err := s2.RegisterPeer(ctx, "pb", core.TrustAll(1)); err != nil {
		t.Fatal(err)
	}
	// pb's recno 1 survived, so its next reconciliation is number 2; pb
	// already accepted the txn, so that reconciliation is empty.
	rec, err := s2.BeginReconciliation(ctx, "pb")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Recno != 2 {
		t.Errorf("pb's first recno after recovery = %d, want 2", rec.Recno)
	}
	if len(rec.Candidates) != 0 {
		t.Errorf("candidates after recovery = %v", rec.Candidates)
	}
}

// TestCheckpointPreservesState: snapshot + WAL truncation keeps the same
// recoverable state.
func TestCheckpointPreservesState(t *testing.T) {
	schema := storetest.Schema(t)
	dir := t.TempDir()
	ctx := context.Background()
	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := store.NewPeer(ctx, "pa", schema, core.TrustAll(1), s)
	pa.Edit(core.Insert("F", core.Strs("rat", "p1", "v"), "pa"))
	pa.PublishAndReconcile(ctx)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pa.Edit(core.Insert("F", core.Strs("mouse", "p2", "w"), "pa"))
	pa.PublishAndReconcile(ctx)
	s.Close()

	s2, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.TxnCount() != 2 {
		t.Errorf("recovered %d txns, want 2", s2.TxnCount())
	}
}

func TestUnknownPeerOperations(t *testing.T) {
	schema := storetest.Schema(t)
	s := MustOpenMemory(schema)
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Publish(ctx, "ghost", nil); err == nil {
		t.Error("publish by unknown peer accepted")
	}
	if _, err := s.BeginReconciliation(ctx, "ghost"); err == nil {
		t.Error("reconciliation by unknown peer accepted")
	}
	if err := s.RecordDecisions(ctx, "ghost", 1, nil, nil); err == nil {
		t.Error("decisions by unknown peer accepted")
	}
}

func TestPublishProtocolErrors(t *testing.T) {
	schema := storetest.Schema(t)
	s := MustOpenMemory(schema)
	defer s.Close()
	ctx := context.Background()
	s.RegisterPeer(ctx, "a", core.TrustAll(1))
	if err := s.RecordDecisions(ctx, "a", 99, nil, nil); err == nil {
		t.Error("decisions for future recno accepted")
	}
}
