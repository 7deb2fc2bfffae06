package orchestra

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orchestra/internal/dht"
	"orchestra/internal/store"
)

// Rebalance and placement tests: deterministic group→store mapping,
// minimal movement on membership change, the in-flight drain proof, and
// stream healing across a migration.

// stealingStoreName finds a store name whose addition to the given ring
// takes ownership of group — so a test can force a specific group to
// migrate deterministically.
func stealingStoreName(members []string, group string) string {
	scratch := dht.NewPlacement(0)
	for _, m := range members {
		scratch.AddMember(m)
	}
	for i := 0; ; i++ {
		name := fmt.Sprintf("steal%d", i)
		scratch.AddMember(name)
		if scratch.Place(group) == name {
			return name
		}
		scratch.RemoveMember(name)
	}
}

// TestFleetPlacementDeterministic: two fleets built from the same store
// and group names agree on every assignment; growing moves groups only
// onto the new store; shrinking back restores the exact prior mapping.
func TestFleetPlacementDeterministic(t *testing.T) {
	build := func() *Fleet {
		f := NewFleet()
		t.Cleanup(func() { f.Close() })
		for _, s := range []string{"s0", "s1", "s2"} {
			if err := f.AddStore(s); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			spec := GroupSpec{ID: fmt.Sprintf("g%d", i), Schema: streamSchema()}
			if _, err := f.AddGroup(spec); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	owners := func(f *Fleet) map[string]string {
		out := make(map[string]string)
		for _, g := range f.Groups() {
			name, ok := f.StoreFor(g.ID())
			if !ok {
				t.Fatalf("group %s unplaced", g.ID())
			}
			out[g.ID()] = name
		}
		return out
	}

	fa, fb := build(), build()
	before := owners(fa)
	for g, s := range owners(fb) {
		if before[g] != s {
			t.Fatalf("placement not deterministic: group %s on %s vs %s", g, before[g], s)
		}
	}

	// Grow: only groups now owned by the new store move, and only onto it.
	// The store name is chosen so it provably steals g0 — the movement
	// assertions are deterministic, not a roll of the hash.
	steal := stealingStoreName([]string{"s0", "s1", "s2"}, "g0")
	if err := fa.AddStore(steal); err != nil {
		t.Fatal(err)
	}
	grown := owners(fa)
	moved := make(map[string]bool)
	for _, ev := range fa.Migrations() {
		if ev.To != steal {
			t.Errorf("grow moved group %s to %s, want only moves onto %s", ev.Group, ev.To, steal)
		}
		moved[ev.Group] = true
	}
	if !moved["g0"] {
		t.Errorf("store %s was chosen to own g0, but g0 did not migrate", steal)
	}
	for g, s := range grown {
		if s != before[g] && !moved[g] {
			t.Errorf("group %s silently changed owner %s → %s", g, before[g], s)
		}
		if s == before[g] && moved[g] {
			t.Errorf("group %s migrated without changing owner", g)
		}
	}
	if len(moved) == len(grown) {
		t.Fatal("growing moved every group; movement is not minimal")
	}

	// Shrink back: the mapping returns to exactly the 3-store assignment.
	if err := fa.RemoveStore(steal); err != nil {
		t.Fatal(err)
	}
	for g, s := range owners(fa) {
		if before[g] != s {
			t.Errorf("after shrink, group %s on %s, want %s", g, s, before[g])
		}
	}
}

// TestFleetRebalanceDrainsInFlight: a store joins while every group is
// mid-reconciliation. Each migration's drain proof (ActiveAtMove, the
// in-flight gauge sampled after the migration took exclusive ownership)
// must be zero, and no writes or frontiers are lost: every group converges
// to exactly the rows its writer published.
func TestFleetRebalanceDrainsInFlight(t *testing.T) {
	ctx := context.Background()
	f := NewFleet()
	defer f.Close()
	for _, s := range []string{"s0", "s1"} {
		if err := f.AddStore(s); err != nil {
			t.Fatal(err)
		}
	}
	const groups = 8
	trustAll := func() *TrustPolicy { return NewTrustPolicy().MustAdd(1, "true") }
	for i := 0; i < groups; i++ {
		spec := GroupSpec{
			ID:     fmt.Sprintf("g%d", i),
			Schema: streamSchema(),
			Peers:  []GroupPeer{{ID: "w", Trust: trustAll()}, {ID: "rdr", Trust: trustAll()}},
		}
		if _, err := f.AddGroup(spec); err != nil {
			t.Fatal(err)
		}
	}
	before := make(map[string]string)
	for _, g := range f.Groups() {
		before[g.ID()], _ = f.StoreFor(g.ID())
	}

	// Per-group writer loops: edit + full reconcile rounds, running across
	// the membership change. The routed store blocks a group's calls only
	// while that group migrates, so every round must succeed.
	var wrote [groups]atomic.Int64
	stop := make(chan struct{})
	errs := make(chan error, groups)
	var wg sync.WaitGroup
	for i, g := range f.Groups() {
		wg.Add(1)
		go func(i int, g *Group) {
			defer wg.Done()
			w, _ := g.System().Peer("w")
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.Edit(Insert("F", Strs(g.ID(), fmt.Sprintf("row%d", n), "fn"), "w")); err != nil {
					errs <- fmt.Errorf("group %s edit: %w", g.ID(), err)
					return
				}
				if _, err := g.System().ReconcileAll(ctx); err != nil {
					errs <- fmt.Errorf("group %s round: %w", g.ID(), err)
					return
				}
				wrote[i].Add(1)
			}
		}(i, g)
	}
	time.Sleep(20 * time.Millisecond)                      // let the workload get in flight
	steal := stealingStoreName([]string{"s0", "s1"}, "g0") // provably moves g0
	if err := f.AddStore(steal); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // keep writing on the new layout
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	migs := f.Migrations()
	if len(migs) == 0 {
		t.Fatal("adding a third store migrated nothing; the drain path went unexercised")
	}
	for _, ev := range migs {
		if ev.ActiveAtMove != 0 {
			t.Errorf("group %s moved with %d store operations in flight", ev.Group, ev.ActiveAtMove)
		}
		if ev.To != steal {
			t.Errorf("group %s moved to %s during grow, want %s", ev.Group, ev.To, steal)
		}
		if before[ev.Group] != ev.From {
			t.Errorf("group %s moved from %s, but lived on %s", ev.Group, ev.From, before[ev.Group])
		}
	}

	// Convergence: nothing was lost or replayed across the moves. The
	// reader imports exactly the writer's rows, on migrated and unmigrated
	// groups alike.
	for i, g := range f.Groups() {
		if _, err := g.System().ReconcileAll(ctx); err != nil {
			t.Fatalf("group %s final round: %v", g.ID(), err)
		}
		want := int(wrote[i].Load())
		w, _ := g.System().Peer("w")
		rdr, _ := g.System().Peer("rdr")
		if got := rdr.Instance().Len("F"); got != want {
			t.Errorf("group %s: reader has %d rows, writer published %d", g.ID(), got, want)
		}
		if !w.Instance().Equal(rdr.Instance()) {
			t.Errorf("group %s: writer and reader instances diverge after rebalance", g.ID())
		}
	}
}

// TestFleetMigrationHealsStreams: a group's reconcile streams survive its
// migration. The move closes the tenant's watch subscriptions; the
// streaming layer resubscribes through the routing gate and lands on the
// new store, so a publish after the move still reaches every peer.
func TestFleetMigrationHealsStreams(t *testing.T) {
	ctx := context.Background()
	f := NewFleet()
	defer f.Close()
	if err := f.AddStore("s0"); err != nil {
		t.Fatal(err)
	}
	trustAll := func() *TrustPolicy { return NewTrustPolicy().MustAdd(1, "true") }
	var mu sync.Mutex
	frontier := make(map[PeerID]Epoch)
	g, err := f.AddGroup(GroupSpec{
		ID:     "G",
		Schema: streamSchema(),
		Peers:  []GroupPeer{{ID: "w", Trust: trustAll()}, {ID: "rdr", Trust: trustAll()}},
		SystemOptions: []SystemOption{
			WithStreamObserver(func(sr store.StreamResult) {
				mu.Lock()
				if sr.To > frontier[sr.Peer] {
					frontier[sr.Peer] = sr.To
				}
				mu.Unlock()
			}),
			WithStreamRetry(time.Millisecond, 20*time.Millisecond),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := g.System().Peer("w")
	rdr, _ := g.System().Peer("rdr")

	sctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- g.System().RunStreaming(sctx) }()

	publishAndWait := func(row string) {
		t.Helper()
		if _, err := w.Edit(Insert("F", Strs("org", row, "fn"), "w")); err != nil {
			t.Fatal(err)
		}
		epoch, err := w.Publish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		waitStream(t, &mu, "frontier past "+row, func() bool {
			return frontier["w"] >= epoch && frontier["rdr"] >= epoch
		})
	}
	publishAndWait("before-move")

	// Force G to migrate: add a store that the ring places G on.
	steal := stealingStoreName([]string{"s0"}, "G")
	if err := f.AddStore(steal); err != nil {
		t.Fatal(err)
	}
	migs := f.Migrations()
	if len(migs) != 1 || migs[0].Group != "G" || migs[0].To != steal {
		t.Fatalf("migrations = %+v, want G → %s", migs, steal)
	}
	if migs[0].ActiveAtMove != 0 {
		t.Fatalf("G moved with %d operations in flight", migs[0].ActiveAtMove)
	}
	if name, _ := f.StoreFor("G"); name != steal {
		t.Fatalf("G on %s after move, want %s", name, steal)
	}

	// The streams resubscribed against the new location: a fresh publish
	// still reaches the reader.
	publishAndWait("after-move")
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("RunStreaming: %v", err)
	}
	if got := rdr.Instance().Len("F"); got != 2 {
		t.Fatalf("reader has %d rows after the move, want 2: %v", got, rdr.Instance().Tuples("F"))
	}
}
