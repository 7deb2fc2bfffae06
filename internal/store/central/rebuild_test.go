package central

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
)

// TestRebuildPeerReconstructsState: after a randomized multi-peer run, a
// peer reconstructed from the store's log via RebuildPeer has exactly the
// same instance and decision sets as the original — §5.2's soft-state
// guarantee.
func TestRebuildPeerReconstructsState(t *testing.T) {
	schema := storetest.Schema(t)
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		s := MustOpenMemory(schema)
		const n = 4
		peers := make([]*store.Peer, n)
		for i := range peers {
			var err error
			peers[i], err = store.NewPeer(ctx, core.PeerID(fmt.Sprintf("p%d", i)), schema, core.TrustAll(1), s)
			if err != nil {
				t.Fatal(err)
			}
		}
		r := rand.New(rand.NewSource(seed))
		orgs := []string{"rat", "mouse"}
		for round := 0; round < 6; round++ {
			for _, p := range peers {
				org := orgs[r.Intn(2)]
				prot := fmt.Sprintf("prot%d", r.Intn(5))
				fn := fmt.Sprintf("f%d", r.Intn(3))
				key := core.Strs(org, prot)
				if cur, ok := p.Instance().Lookup("F", key); ok {
					if cur[2].Str() != fn {
						p.Edit(core.Modify("F", cur, core.Strs(org, prot, fn), p.ID()))
					}
				} else {
					p.Edit(core.Insert("F", core.Strs(org, prot, fn), p.ID()))
				}
				if _, err := p.PublishAndReconcile(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}

		for _, orig := range peers {
			rebuilt, err := store.RebuildPeer(ctx, orig.ID(), schema, core.TrustAll(1), s)
			if err != nil {
				t.Fatalf("seed %d: rebuild %s: %v", seed, orig.ID(), err)
			}
			if !rebuilt.Instance().Equal(orig.Instance()) {
				t.Fatalf("seed %d: %s rebuilt instance diverges:\norig:    %v\nrebuilt: %v",
					seed, orig.ID(), orig.Instance().Tuples("F"), rebuilt.Instance().Tuples("F"))
			}
			// Decision sets match for every published transaction.
			log, decisions, err := s.ReplayFrom(ctx, orig.ID(), 0, -1)
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range log {
				id := pt.Txn.ID
				if orig.Engine().Applied(id) != rebuilt.Engine().Applied(id) {
					t.Fatalf("seed %d: %s applied(%s) diverges", seed, orig.ID(), id)
				}
				if orig.Engine().Rejected(id) != rebuilt.Engine().Rejected(id) {
					t.Fatalf("seed %d: %s rejected(%s) diverges", seed, orig.ID(), id)
				}
				_ = decisions
			}
		}
		s.Close()
	}
}

// TestRebuiltPeerContinues: a rebuilt peer can keep editing and reconciling
// — including reconsidering transactions it had deferred before the crash,
// since those are undecided in the store.
func TestRebuiltPeerContinues(t *testing.T) {
	schema := storetest.Schema(t)
	ctx := context.Background()
	s := MustOpenMemory(schema)
	defer s.Close()

	a, _ := store.NewPeer(ctx, "a", schema, core.TrustAll(1), s)
	b, _ := store.NewPeer(ctx, "b", schema, core.TrustAll(1), s)
	q, _ := store.NewPeer(ctx, "q", schema, core.TrustAll(1), s)

	// A conflict q defers.
	a.Edit(core.Insert("F", core.Strs("rat", "p1", "va"), "a"))
	a.PublishAndReconcile(ctx)
	b.Edit(core.Insert("F", core.Strs("rat", "p1", "vb"), "b"))
	b.PublishAndReconcile(ctx)
	res, _ := q.PublishAndReconcile(ctx)
	if len(res.Deferred) != 2 {
		t.Fatalf("setup: %+v", res)
	}

	// q crashes; rebuild it from the store.
	q2, err := store.RebuildPeer(ctx, "q", schema, core.TrustAll(1), s)
	if err != nil {
		t.Fatal(err)
	}
	// The deferred conflict is soft state: the rebuilt peer has not
	// re-seen it yet (it was associated with a past reconciliation), but
	// its instance and decisions are intact and it can continue working.
	if q2.Instance().Len("F") != 0 {
		t.Fatalf("rebuilt instance: %v", q2.Instance().Tuples("F"))
	}
	if _, err := q2.Edit(core.Insert("F", core.Strs("mouse", "p2", "w"), "q")); err != nil {
		t.Fatal(err)
	}
	if _, err := q2.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if q2.Instance().Len("F") != 1 {
		t.Fatalf("rebuilt peer could not continue: %v", q2.Instance().Tuples("F"))
	}
	// Its local sequence numbers continue past the pre-crash ones: the new
	// transaction must not collide in the store.
	if rec, err := s.BeginReconciliation(ctx, "q"); err != nil || rec.Recno < 3 {
		t.Errorf("next recno = %+v, %v", rec, err)
	}
}

// TestRebuildRequiresSnapshotReplayer: a bare store.Store, which cannot
// replay, is refused cleanly by both rebuild entry points.
func TestRebuildRequiresSnapshotReplayer(t *testing.T) {
	schema := storetest.Schema(t)
	ctx := context.Background()
	if _, err := store.RebuildPeer(ctx, "x", schema, core.TrustAll(1), bareStore{}); err == nil {
		t.Error("RebuildPeer accepted a store that cannot replay")
	}
	if _, err := store.FullReplayRebuild(ctx, "x", schema, core.TrustAll(1), bareStore{}); err == nil {
		t.Error("FullReplayRebuild accepted a store that cannot replay")
	}
}

// bareStore is a five-method store.Store and nothing more.
type bareStore struct{ store.Store }
