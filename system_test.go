package orchestra

import (
	"context"
	"fmt"
	"testing"
)

func TestSystemCentralQuickstart(t *testing.T) {
	ctx := context.Background()
	schema := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
	sys, err := NewSystem(schema)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	alice, err := sys.AddPeer("alice", TrustAll(1))
	if err != nil {
		t.Fatal(err)
	}
	bob, err := sys.AddPeer("bob", TrustOrigins(map[PeerID]int{"alice": 2}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddPeer("alice", TrustAll(1)); err == nil {
		t.Error("duplicate peer accepted")
	}

	if _, err := alice.Edit(Insert("F", Strs("rat", "prot1", "immune"), "alice")); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := bob.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 1 {
		t.Fatalf("bob accepted %v", res.Accepted)
	}
	if got, ok := bob.Instance().Lookup("F", Strs("rat", "prot1")); !ok || got[2].Str() != "immune" {
		t.Errorf("bob's instance: %v %v", got, ok)
	}

	if got := StateRatio(sys.Instances(), "F"); got != 1 {
		t.Errorf("state ratio = %v", got)
	}
	if p, ok := sys.Peer("alice"); !ok || p != alice {
		t.Error("Peer lookup")
	}
	if len(sys.Peers()) != 2 {
		t.Error("peer enumeration")
	}
	if sys.Schema() != schema {
		t.Error("Schema accessor")
	}
}

// TestSystemReconcileAllFanOut forces the parallel two-phase ReconcileAll:
// because every peer publishes before anyone reconciles, one round suffices
// for full convergence on disjoint keys.
func TestSystemReconcileAllFanOut(t *testing.T) {
	ctx := context.Background()
	t.Run("central", func(t *testing.T) {
		schema := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
		sys, err := NewSystem(schema, WithReconcileFanOut(4))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		const n = 6
		for i := 0; i < n; i++ {
			id := PeerID(fmt.Sprintf("p%d", i))
			p, err := sys.AddPeer(id, TrustAll(1))
			if err != nil {
				t.Fatal(err)
			}
			// Disjoint keys: no conflicts, everything converges.
			if _, err := p.Edit(Insert("F", Strs("org", fmt.Sprintf("prot%d", i), "v"), id)); err != nil {
				t.Fatal(err)
			}
		}
		results, err := sys.ReconcileAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != n {
			t.Fatalf("got %d results, want %d", len(results), n)
		}
		// Publish-barrier semantics: every peer imports all n-1 others'
		// transactions in this single round.
		for id, res := range results {
			if len(res.Accepted) != n-1 {
				t.Errorf("%s accepted %d txns, want %d", id, len(res.Accepted), n-1)
			}
		}
		if got := StateRatio(sys.Instances(), "F"); got != 1 {
			t.Errorf("state ratio = %v after one fan-out round", got)
		}
		snap := sys.Pipeline().Snapshot()
		if snap.Reconciles != n {
			t.Errorf("pipeline observed %d reconciles, want %d", snap.Reconciles, n)
		}
		if snap.WorkersBusy != 0 || snap.WorkersBusyPeak < 1 {
			t.Errorf("busy gauge: %+v", snap)
		}
	})
}

// TestSystemDurableFanOutRace: transactions recovered from a durable store
// are gob-decoded, so their unexported encoding caches start empty; the
// central store must re-warm them before handing the shared *Transaction
// pointers to concurrently reconciling peers. Run with -race (this was a
// reproducible data race before the ingestion-time warm-up).
func TestSystemDurableFanOutRace(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	schema := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))

	sys1, err := NewSystem(schema, WithStoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys1.AddPeer("a", TrustAll(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := a.Edit(Insert("F", Strs("org", fmt.Sprintf("p%d", i), "v"), "a")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	sys1.Close()

	// Reopen: several fresh peers reconcile the recovered history
	// concurrently.
	sys2, err := NewSystem(schema, WithStoreDir(dir), WithReconcileFanOut(4))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	for _, id := range []PeerID{"b", "c", "d", "e"} {
		if _, err := sys2.AddPeer(id, TrustAll(1)); err != nil {
			t.Fatal(err)
		}
	}
	results, err := sys2.ReconcileAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for id, res := range results {
		if len(res.Accepted) != 20 {
			t.Errorf("%s accepted %d recovered txns, want 20", id, len(res.Accepted))
		}
	}
}

func TestSystemDurableStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	schema := MustSchema(NewRelation("F", 1, "k", "v"))

	sys, err := NewSystem(schema, WithStoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sys.AddPeer("a", TrustAll(1))
	a.Edit(Insert("F", Strs("k1", "v1"), "a"))
	if _, err := a.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	sys.Close()

	// Reopen: a fresh peer imports the recovered history.
	sys2, err := NewSystem(schema, WithStoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	b, err := sys2.AddPeer("b", TrustAll(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 1 || b.Instance().Len("F") != 1 {
		t.Errorf("b after recovery: %+v, instance %v", res, b.Instance().Tuples("F"))
	}
}

// TestSystemConflictResolutionFlow exercises the full deferral/resolution
// loop through the public API.
func TestSystemConflictResolutionFlow(t *testing.T) {
	ctx := context.Background()
	schema := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
	sys, _ := NewSystem(schema)
	defer sys.Close()
	a, _ := sys.AddPeer("a", TrustAll(1))
	b, _ := sys.AddPeer("b", TrustAll(1))
	q, _ := sys.AddPeer("q", TrustAll(1))

	a.Edit(Insert("F", Strs("rat", "p1", "va"), "a"))
	a.PublishAndReconcile(ctx)
	b.Edit(Insert("F", Strs("rat", "p1", "vb"), "b"))
	b.PublishAndReconcile(ctx)

	res, err := q.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deferred) != 2 || len(q.Engine().ConflictGroups()) != 1 {
		t.Fatalf("deferral: %+v, groups %v", res, q.Engine().ConflictGroups())
	}
	g := q.Engine().ConflictGroups()[0]
	if _, err := q.Resolve(ctx, g.Conflict, 0); err != nil {
		t.Fatal(err)
	}
	if q.Instance().Len("F") != 1 {
		t.Errorf("q after resolution: %v", q.Instance().Tuples("F"))
	}
	if len(q.Engine().ConflictGroups()) != 0 {
		t.Error("groups should be cleared")
	}
}

func TestTrustPolicyIntegration(t *testing.T) {
	ctx := context.Background()
	schema := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
	policy, err := ParseTrustPolicy(`
priority 2 when origin = 'curator' and attr('organism') = 'rat'
priority 1 when origin = 'curator'
`)
	if err != nil {
		t.Fatal(err)
	}
	policy.WithSchema(schema)

	sys, _ := NewSystem(schema)
	defer sys.Close()
	curator, _ := sys.AddPeer("curator", TrustAll(1))
	outsider, _ := sys.AddPeer("outsider", TrustAll(1))
	q, err := sys.AddPeer("q", policy)
	if err != nil {
		t.Fatal(err)
	}

	curator.Edit(Insert("F", Strs("rat", "p1", "v"), "curator"))
	curator.PublishAndReconcile(ctx)
	outsider.Edit(Insert("F", Strs("mouse", "p2", "w"), "outsider"))
	outsider.PublishAndReconcile(ctx)

	res, err := q.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 1 {
		t.Fatalf("q accepted %v", res.Accepted)
	}
	if q.Instance().Len("F") != 1 {
		t.Errorf("q's instance: %v", q.Instance().Tuples("F"))
	}
}
