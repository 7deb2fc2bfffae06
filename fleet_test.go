package orchestra

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/store/storetest"
)

func fleetPolicy(t *testing.T) *TrustPolicy {
	t.Helper()
	p, err := ParseTrustPolicy("priority 1 when true")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Basic fleet lifecycle: groups land on ring owners, reconcile through
// the routed store, and their data stays per-group.
func TestFleetBasic(t *testing.T) {
	ctx := context.Background()
	schema := MustSchema(NewRelation("F", 1, "k", "v"))
	fleet := NewFleet()
	defer fleet.Close()
	for _, s := range []string{"s0", "s1"} {
		if err := fleet.AddStore(s); err != nil {
			t.Fatal(err)
		}
	}
	policy := fleetPolicy(t)
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("group-%d", i)
		g, err := fleet.AddGroup(GroupSpec{
			ID:     id,
			Schema: schema,
			Peers: []GroupPeer{
				{ID: "alice", Trust: policy},
				{ID: "bob", Trust: policy},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		owner, ok := fleet.StoreFor(id)
		if !ok || owner == "" {
			t.Fatalf("group %s has no owner", id)
		}
		alice, _ := g.System().Peer("alice")
		if _, err := alice.Edit(Insert("F", Strs("k-"+id, "v-"+id), "alice")); err != nil {
			t.Fatal(err)
		}
		if _, err := g.System().ReconcileAll(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := g.System().ReconcileAll(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Every group's bob imported exactly his group's row.
	for _, g := range fleet.Groups() {
		bob, _ := g.System().Peer("bob")
		inst := bob.Instance()
		tuples := inst.Tuples("F")
		if len(tuples) != 1 {
			t.Fatalf("group %s: bob has %d F rows, want 1", g.ID(), len(tuples))
		}
		if got := tuples[0][0].String(); got != "k-"+g.ID() {
			t.Fatalf("group %s: bob imported %q", g.ID(), got)
		}
	}
	if len(fleet.Groups()) != 4 {
		t.Fatalf("fleet has %d groups, want 4", len(fleet.Groups()))
	}
}

// TestFleetStoresSorted: Stores lists the stores still on the ring, by
// name, whatever order they were added in.
func TestFleetStoresSorted(t *testing.T) {
	fleet := NewFleet()
	defer fleet.Close()
	for _, s := range []string{"s2", "s0", "s1"} {
		if err := fleet.AddStore(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := fleet.RemoveStore("s1"); err != nil {
		t.Fatal(err)
	}
	if got, want := fleet.Stores(), []string{"s0", "s2"}; !slices.Equal(got, want) {
		t.Errorf("Stores() = %v, want %v", got, want)
	}
}

// fleetFactory builds a two-store fleet holding one group with no declared
// peers and hands every peer that group's routed store, the Backend a
// group's peers talk through; the suites register their own peers on it.
func fleetFactory(t *testing.T, schema *Schema) (func(PeerID) store.Store, func()) {
	fleet := NewFleet()
	for _, s := range []string{"s0", "s1"} {
		if err := fleet.AddStore(s); err != nil {
			t.Fatal(err)
		}
	}
	g, err := fleet.AddGroup(GroupSpec{ID: "conformance", Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	return func(PeerID) store.Store { return g.routed }, func() { fleet.Close() }
}

// TestFleetConformance runs both tiers of the store contract over a fleet
// group's routed store, so its forwarders run in tier-1; the watch legs are
// the next test.
func TestFleetConformance(t *testing.T) {
	storetest.RunConformance(t, fleetFactory)
	storetest.RunBackendConformance(t, fleetFactory)
}

func TestFleetWatchConformance(t *testing.T) {
	storetest.RunWatchConformance(t, fleetFactory)
}

// TestFleetCopyGroupSiblingPrefix: the migration copy must select exactly
// the group's own tables. "team" and "team-1" overlapped under the old
// single-'_' namespace terminator ('-' encodes as "_2d"), so migrating
// "team" also carried — and then detached — the sibling tenant. And a
// re-copy onto a target that kept tables from an earlier failed attempt
// must replace them rather than fail on a duplicate create, or the group
// can never migrate to that node again.
func TestFleetCopyGroupSiblingPrefix(t *testing.T) {
	schema := MustSchema(NewRelation("F", 1, "k", "v"))
	src, err := central.OpenNode("")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := central.OpenNode("")
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	for _, g := range []string{"team", "team-1"} {
		if _, err := src.OpenGroup(g, schema); err != nil {
			t.Fatal(err)
		}
		if err := src.CloseGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := copyGroupData(src.DB(), dst.DB(), "team"); err != nil {
		t.Fatal(err)
	}
	if got := dst.StoredGroups(); len(got) != 1 || got[0] != "team" {
		t.Fatalf("target stores %v after copying %q, want exactly [team]", got, "team")
	}
	if err := copyGroupData(src.DB(), dst.DB(), "team"); err != nil {
		t.Fatalf("re-copy onto leftover target tables: %v", err)
	}
	if got := src.StoredGroups(); len(got) != 2 {
		t.Fatalf("source stores %v, want both groups intact", got)
	}
}

// Scheduler rounds over seven groups: all groups converge, a round on a
// cancelled context drives none of them, and a group whose tables are
// dropped is reported as a *GroupError.
func TestSchedulerRounds(t *testing.T) {
	ctx := context.Background()
	schema := MustSchema(NewRelation("F", 1, "k", "v"))
	fleet := NewFleet()
	defer fleet.Close()
	if err := fleet.AddStore("s0"); err != nil {
		t.Fatal(err)
	}
	policy := fleetPolicy(t)
	const groups = 7
	for i := 0; i < groups; i++ {
		id := fmt.Sprintf("g%d", i)
		g, err := fleet.AddGroup(GroupSpec{
			ID:     id,
			Schema: schema,
			Peers:  []GroupPeer{{ID: "a", Trust: policy}, {ID: "b", Trust: policy}},
		})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := g.System().Peer("a")
		if _, err := a.Edit(Insert("F", Strs("k"+id, "v"), "a")); err != nil {
			t.Fatal(err)
		}
	}
	sched := NewScheduler(fleet.Groups())
	if err := sched.RunRounds(ctx, 2); err != nil {
		t.Fatal(err)
	}
	for _, g := range fleet.Groups() {
		b, _ := g.System().Peer("b")
		if n := len(b.Instance().Tuples("F")); n != 1 {
			t.Fatalf("group %s: b has %d rows after scheduled rounds, want 1", g.ID(), n)
		}
	}

	// A round that skips groups must say so: with ctx already cancelled no
	// group is driven, and RunRound returns ctx's error, not success.
	recnos := func() (out []int) {
		for _, g := range fleet.Groups() {
			b, _ := g.System().Peer("b")
			out = append(out, b.Engine().Recno())
		}
		return out
	}
	before := recnos()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := sched.RunRound(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunRound on a cancelled context = %v, want context.Canceled", err)
	}
	if after := recnos(); !slices.Equal(before, after) {
		t.Fatalf("cancelled round advanced recnos: %v -> %v", before, after)
	}

	// A group whose store is closed fails its round: the closed store
	// refuses every verb. The round's error names the group, and its
	// peers' errors are reachable through it.
	node, ok := fleet.Node("s0")
	if !ok {
		t.Fatal("no node s0")
	}
	if err := node.CloseGroup("g0"); err != nil {
		t.Fatal(err)
	}
	err := sched.RunRound(ctx)
	var ge *GroupError
	var pe *PeerError
	if !errors.As(err, &ge) || ge.Error() != "orchestra: group g0: "+ge.Err.Error() || !errors.As(ge, &pe) || !errors.Is(pe, central.ErrClosed) {
		t.Fatalf("RunRound with g0's store closed = %v, want a *GroupError for g0 wrapping its *PeerErrors over central.ErrClosed", err)
	}
}
