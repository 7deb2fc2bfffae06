package storetest

import (
	"context"
	"fmt"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// MultiGroupFactory builds a fresh multi-group harness for a schema: a
// store client scoped to one group for one peer, plus a cleanup. All
// groups share the harness's backend (one node, one database, one
// transport), which is exactly what the suite stresses.
type MultiGroupFactory func(t *testing.T, schema *core.Schema) (clientFor func(group string, peer core.PeerID) store.Store, cleanup func())

// RunMultiGroupConformance runs the tenancy legs of tier two.
func RunMultiGroupConformance(t *testing.T, mg MultiGroupFactory) {
	t.Run("GroupIsolation", func(t *testing.T) { testMultiGroupIsolation(t, mg) })
	t.Run("FrontierIndependence", func(t *testing.T) { testMultiGroupFrontiers(t, mg) })
	t.Run("HostileIdentifiers", func(t *testing.T) { testMultiGroupIdentifiers(t, mg) })
}

// groupPeer builds a reconciling peer against one group's store.
func groupPeer(t *testing.T, mgClient func(string, core.PeerID) store.Store, group string, id core.PeerID) *store.Peer {
	t.Helper()
	p, err := store.NewPeer(context.Background(), id, Schema(t), TrustAll(1), mgClient(group, id))
	if err != nil {
		t.Fatalf("group %q peer %s: %v", group, id, err)
	}
	return p
}

// testMultiGroupIsolation: co-hosted groups with identical schemas and
// identical peer IDs never see each other's transactions — each group's
// reconcilers import exactly their own group's rows.
func testMultiGroupIsolation(t *testing.T, mg MultiGroupFactory) {
	clientFor, cleanup := mg(t, Schema(t))
	defer cleanup()

	groups := []string{"alpha", "beta", "gamma"}
	pubs := make(map[string]*store.Peer)
	subs := make(map[string]*store.Peer)
	for _, g := range groups {
		pubs[g] = groupPeer(t, clientFor, g, "alice")
		subs[g] = groupPeer(t, clientFor, g, "bob")
	}
	// Interleave the groups' publishes so their commits overlap in the
	// shared backend.
	for i := 0; i < 3; i++ {
		for _, g := range groups {
			mustEdit(t, pubs[g], core.Insert("F",
				core.Strs(g, fmt.Sprintf("prot%d", i), "fn-"+g), "alice"))
			mustCycle(t, pubs[g])
		}
	}
	for _, g := range groups {
		res := mustCycle(t, subs[g])
		if len(res.Accepted) != 3 {
			t.Fatalf("group %q: bob accepted %d txns, want 3", g, len(res.Accepted))
		}
		for _, tup := range subs[g].Instance().Tuples("F") {
			if tup[0].String() != g {
				t.Fatalf("group %q: bob imported foreign tuple %v", g, tup)
			}
		}
		if n := subs[g].Instance().Len("F"); n != 3 {
			t.Fatalf("group %q: bob has %d rows, want 3", g, n)
		}
	}
}

// testMultiGroupFrontiers: epoch numbering and reconciliation frontiers
// are per-group — one group's publishes never advance (or stall) a
// co-hosted group's stable frontier or recnos.
func testMultiGroupFrontiers(t *testing.T, mg MultiGroupFactory) {
	clientFor, cleanup := mg(t, Schema(t))
	defer cleanup()
	ctx := context.Background()

	busyPub := groupPeer(t, clientFor, "busy", "alice")
	busySub := groupPeer(t, clientFor, "busy", "bob")
	groupPeer(t, clientFor, "idle", "bob") // registers idle bob

	for i := 0; i < 5; i++ {
		mustEdit(t, busyPub, core.Insert("F",
			core.Strs("rat", fmt.Sprintf("p%d", i), "fn"), "alice"))
		mustCycle(t, busyPub)
	}
	// The idle group's window is empty and its epochs untouched by the
	// busy group's five.
	idleStore := clientFor("idle", "bob")
	rec, err := idleStore.BeginReconciliation(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if rec.ToEpoch != 0 || len(rec.Candidates) != 0 {
		t.Fatalf("idle group window = (%d, %d] with %d candidates, want empty at epoch 0",
			rec.FromEpoch, rec.ToEpoch, len(rec.Candidates))
	}
	if err := idleStore.RecordDecisions(ctx, "bob", rec.Recno, nil, nil); err != nil {
		t.Fatal(err)
	}
	// The busy group's frontier is exactly its own five epochs.
	res := mustCycle(t, busySub)
	if len(res.Accepted) != 5 {
		t.Fatalf("busy group: bob applied %d, want 5", len(res.Accepted))
	}
	mustCycle(t, busySub)
	// Recnos advanced independently: busy bob reconciled twice, idle bob
	// once — same peer ID, separate per-group counters.
	busyRecno := nextRecno(t, clientFor("busy", "bob"), "bob")
	idleRecno := nextRecno(t, idleStore, "bob")
	if busyRecno != 3 || idleRecno != 2 {
		t.Fatalf("recnos not independent: next busy=%d idle=%d, want 3 and 2", busyRecno, idleRecno)
	}
}

// testMultiGroupIdentifiers: group IDs that are hostile as table or
// method names (separators, spaces, non-ASCII, the escape character
// itself) route, create, and isolate correctly.
func testMultiGroupIdentifiers(t *testing.T, mg MultiGroupFactory) {
	clientFor, cleanup := mg(t, Schema(t))
	defer cleanup()

	groups := []string{"a_b", "a b", "über/group", "g_00", "UPPER.lower-dash"}
	for i, g := range groups {
		pub := groupPeer(t, clientFor, g, "alice")
		mustEdit(t, pub, core.Insert("F",
			core.Strs(fmt.Sprintf("org%d", i), "prot", "fn"), "alice"))
		mustCycle(t, pub)
	}
	for i, g := range groups {
		sub := groupPeer(t, clientFor, g, "bob")
		res := mustCycle(t, sub)
		if len(res.Accepted) != 1 {
			t.Fatalf("group %q: applied %d, want 1", g, len(res.Accepted))
		}
		tup := sub.Instance().Tuples("F")
		if len(tup) != 1 || tup[0][0].String() != fmt.Sprintf("org%d", i) {
			t.Fatalf("group %q: wrong instance %v", g, tup)
		}
	}
}
