package storetest

import (
	"context"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/trust"
)

// testTrustUpdate pins the tier-one half of the mid-stream trust-change
// contract: a re-registered textual policy takes effect at the peer's next
// reconciliation window.
func testTrustUpdate(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()

	pa, err := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := store.NewPeer(ctx, "pb", s, TrustAll(1), clientFor("pb"))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := store.NewPeer(ctx, "pq", s, TrustOrigins(map[core.PeerID]int{"pa": 1}), clientFor("pq"))
	if err != nil {
		t.Fatal(err)
	}

	// Window 1: pb is untrusted, so its publish never reaches pq.
	xa := mustEdit(t, pa, core.Insert("F", core.Strs("rat", "p1", "va"), "pa"))
	mustCycle(t, pa)
	mustEdit(t, pb, core.Insert("F", core.Strs("mouse", "p2", "early"), "pb"))
	mustCycle(t, pb)
	res := mustCycle(t, pq)
	wantIDSet(t, "pq window 1 accepted", res.Accepted, xa.ID)
	wantTuples(t, pq.Instance(), "F", core.Strs("rat", "p1", "va"))

	// Mid-stream re-registration: the replacement policy governs the next
	// window. (The skipped window-1 publish is not replayed — relevance is
	// evaluated per window.)
	if _, err := pq.SetTrust(ctx, TrustOrigins(map[core.PeerID]int{"pa": 1, "pb": 1})); err != nil {
		t.Fatalf("re-register trust: %v", err)
	}
	yb := mustEdit(t, pb, core.Insert("F", core.Strs("dog", "p3", "late"), "pb"))
	mustCycle(t, pb)
	res = mustCycle(t, pq)
	wantIDSet(t, "pq window 2 accepted", res.Accepted, yb.ID)
	wantTuples(t, pq.Instance(), "F",
		core.Strs("rat", "p1", "va"),
		core.Strs("dog", "p3", "late"))
}

// testTrustDelegation pins the tier-two half: a delegating policy resolves
// through the store's trust graph, a delegation to an unregistered peer is
// refused without clobbering the active policy, and a rebuilt peer prices
// candidates under the same effective policy as the store.
func testTrustDelegation(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()
	stq := backendFor(t, clientFor, "pq")

	pa, err := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := store.NewPeer(ctx, "pq", s, TrustOrigins(map[core.PeerID]int{"pa": 1}), stq)
	if err != nil {
		t.Fatal(err)
	}

	// Delegating to a peer the store has never seen is a clean error...
	bogus := trust.MustParse("priority 1 when origin = 'pa'\ndelegate 'nobody' priority 5")
	if _, err := pq.SetTrust(ctx, bogus); err == nil {
		t.Fatal("delegation to unregistered peer was accepted")
	}
	// ...that leaves the previously active policy in force.
	za := mustEdit(t, pa, core.Insert("F", core.Strs("cow", "p4", "still"), "pa"))
	mustCycle(t, pa)
	res := mustCycle(t, pq)
	wantIDSet(t, "pq accepted after refused registration", res.Accepted, za.ID)

	// A valid delegation resolves transitively: pq delegates to pd, whose
	// policy trusts pz, so pz's publishes reach pq capped at the delegation
	// priority.
	pz, err := store.NewPeer(ctx, "pz", s, TrustAll(1), clientFor("pz"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.NewPeer(ctx, "pd", s, TrustOrigins(map[core.PeerID]int{"pz": 3}), clientFor("pd")); err != nil {
		t.Fatal(err)
	}
	del := trust.MustParse("priority 2 when origin = 'pa'\ndelegate 'pd' priority 1")
	if _, err := pq.SetTrust(ctx, del); err != nil {
		t.Fatalf("delegating re-register: %v", err)
	}
	wz := mustEdit(t, pz, core.Insert("F", core.Strs("cat", "p5", "viadelegate"), "pz"))
	mustCycle(t, pz)
	res = mustCycle(t, pq)
	wantIDSet(t, "pq accepted via delegation", res.Accepted, wz.ID)
	wantTuples(t, pq.Instance(), "F",
		core.Strs("cow", "p4", "still"),
		core.Strs("cat", "p5", "viadelegate"))

	// A rebuilt peer prices like the one it replaces. The registered policy
	// alone gives pz priority 0; only the resolved closure gives it 1, so
	// both rebuild paths must hand the engine the effective policy.
	if _, err := stq.Snapshot(ctx); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	snapQ, err := store.RebuildPeer(ctx, "pq", s, del, stq)
	if err != nil {
		t.Fatalf("snapshot rebuild: %v", err)
	}
	fullQ, err := store.FullReplayRebuild(ctx, "pq", s, del, stq)
	if err != nil {
		t.Fatalf("full-replay rebuild: %v", err)
	}
	vz := mustEdit(t, pz, core.Insert("F", core.Strs("emu", "p6", "afterrebuild"), "pz"))
	mustCycle(t, pz)
	rec, err := stq.BeginReconciliation(ctx, "pq")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Candidates) != 1 || rec.Candidates[0].Txn.ID != vz.ID || rec.Candidates[0].Priority != 1 {
		t.Fatalf("store shipped %+v, want %s at priority 1", rec.Candidates, vz.ID)
	}
	for what, p := range map[string]*store.Peer{"snapshot": snapQ, "full replay": fullQ} {
		if got := p.Engine().TxnPriority(rec.Candidates[0].Txn); got != 1 {
			t.Errorf("peer rebuilt by %s prices %s at %d, the store at 1", what, vz.ID, got)
		}
	}
}
