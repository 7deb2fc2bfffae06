package storetest

import (
	"context"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// testChurnRejoin is the churn conformance cell: a peer departs mid-round
// — after its publish lands but before it reconciles again — taking all
// soft state with it. The store must retain the departed peer's decisions
// verbatim while it is away, and a rejoining peer must bootstrap through
// the snapshot + tail path (store.RebuildPeer) into exactly the state it
// left plus the history it missed, then converge by ordinary
// reconciliation.
func testChurnRejoin(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()
	snapc := backendFor(t, clientFor, "pc")

	trustC := TrustOrigins(map[core.PeerID]int{"pa": 2, "pb": 1, "pc": 3})
	pa, _ := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	pb, _ := store.NewPeer(ctx, "pb", s, TrustAll(1), clientFor("pb"))
	pc, err := store.NewPeer(ctx, "pc", s, trustC, clientFor("pc"))
	if err != nil {
		t.Fatal(err)
	}
	var universe []core.TxnID
	edit := func(p *store.Peer, us ...core.Update) *core.Transaction {
		x := mustEdit(t, p, us...)
		universe = append(universe, x.ID)
		return x
	}

	// Round 1: a conflicting pair; pc accepts pa's value and rejects pb's,
	// so the retained decisions carry both verdict kinds.
	xa0 := edit(pa, core.Insert("F", core.Strs("rat", "p1", "high"), "pa"))
	mustCycle(t, pa)
	xb0 := edit(pb, core.Insert("F", core.Strs("rat", "p1", "low"), "pb"))
	mustCycle(t, pb)
	res := mustCycle(t, pc)
	wantIDSet(t, "pc round-1 accepted", res.Accepted, xa0.ID)
	wantIDSet(t, "pc round-1 rejected", res.Rejected, xb0.ID)
	const recnoAtDeparture = 1 // pc has begun once

	// Mid-round departure: pc's own edit is published (durable), but the
	// reconcile that would have followed never happens — the peer object and
	// every bit of its soft state are simply gone.
	xc0 := edit(pc, core.Insert("F", core.Strs("dog", "p3", "pc-val"), "pc"))
	if _, err := pc.Publish(ctx); err != nil {
		t.Fatalf("pc departing publish: %v", err)
	}
	pc = nil // departed

	// A snapshot lands after the departure, splitting history into a
	// snapshot the rejoin will bootstrap from and a tail it must replay.
	snapEpoch, err := snapc.Snapshot(ctx)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	// Away-time history: another conflicting pair pc has never seen.
	xa1 := edit(pa, core.Insert("F", core.Strs("mouse", "p2", "high"), "pa"))
	mustCycle(t, pa)
	xb1 := edit(pb, core.Insert("F", core.Strs("mouse", "p2", "low"), "pb"))
	mustCycle(t, pb)

	// The snapshot the rejoin will use exists.
	if snap, err := snapc.LatestSnapshot(ctx); err != nil || snap == nil || snap.Epoch < snapEpoch {
		t.Fatalf("latest snapshot = %+v, %v (want epoch >= %d)", snap, err, snapEpoch)
	}

	// Rejoin: bootstrap from snapshot + tail. Everything decided before the
	// departure — accepts, rejects, and the mid-round self-publish — must be
	// back verbatim.
	rc, err := store.RebuildPeer(ctx, "pc", s, trustC, clientFor("pc"))
	if err != nil {
		t.Fatalf("rejoin rebuild: %v", err)
	}
	for _, id := range []core.TxnID{xa0.ID, xc0.ID} {
		if !rc.Engine().Applied(id) {
			t.Errorf("rejoined pc lost accept of %s", id)
		}
	}
	if !rc.Engine().Rejected(xb0.ID) {
		t.Errorf("rejoined pc lost reject of %s", xb0.ID)
	}

	// Catch-up: one ordinary reconciliation delivers exactly the away-time
	// window — no redelivery of anything decided before the departure.
	res, err = rc.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantIDSet(t, "rejoined pc caught-up accepted", res.Accepted, xa1.ID)
	wantIDSet(t, "rejoined pc caught-up rejected", res.Rejected, xb1.ID)
	if len(res.Deferred) != 0 {
		t.Errorf("rejoined pc deferred: %v", res.Deferred)
	}
	wantTuples(t, rc.Instance(), "F",
		core.Strs("rat", "p1", "high"),
		core.Strs("mouse", "p2", "high"),
		core.Strs("dog", "p3", "pc-val"))

	// Convergence is bit-identical: a full-replay control rebuilt from the
	// same log agrees with the snapshot-bootstrapped rejoiner everywhere.
	full, err := store.FullReplayRebuild(ctx, "pc", s, trustC, clientFor("pc"))
	if err != nil {
		t.Fatalf("full-replay control: %v", err)
	}
	sameRebuiltState(t, "rejoined vs full-replay control", rc, full, universe)

	// The store retained the departed peer's progress: its recno stayed
	// where pc left it, so the catch-up was pc's second begin and this is
	// its third.
	if n := nextRecno(t, clientFor("pc"), "pc"); n != recnoAtDeparture+2 {
		t.Errorf("pc next recno = %d, want %d (frozen at %d while away)", n, recnoAtDeparture+2, recnoAtDeparture)
	}
}
