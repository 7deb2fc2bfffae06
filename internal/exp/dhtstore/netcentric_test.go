package dhtstore

import (
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/simnet"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
)

// netCentricFactory builds peers whose store clients use network-centric
// extension assembly; the full conformance suite must pass unchanged.
func netCentricFactory(t *testing.T, _ *core.Schema) (func(core.PeerID) store.Store, func()) {
	net := simnet.NewVirtual(simnet.DefaultLatency)
	cluster := NewCluster(net)
	clients := make(map[core.PeerID]store.Store)
	return func(p core.PeerID) store.Store {
		if c, ok := clients[p]; ok {
			return c
		}
		c, err := cluster.AddNetworkCentricNode("node-" + string(p))
		if err != nil {
			t.Fatal(err)
		}
		clients[p] = c
		return c
	}, func() {}
}

func TestNetworkCentricConformance(t *testing.T) {
	storetest.RunConformance(t, netCentricFactory)
}

// TestNetworkCentricMatchesClientCentric: both reconciliation modes produce
// identical outcomes; the difference is where the work happens.
func TestNetworkCentricMatchesClientCentric(t *testing.T) {
	schema := storetest.Schema(t)
	run := func(factory storetest.Factory) []core.Tuple {
		clientFor, cleanup := factory(t, schema)
		defer cleanup()
		p1, p2, p3 := buildFig2(t, schema, clientFor)
		_ = p2
		_ = p3
		return p1.Instance().Tuples("F")
	}
	a := run(factory)
	b := run(netCentricFactory)
	if len(a) != len(b) {
		t.Fatalf("modes diverge: %v vs %v", a, b)
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("modes diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// buildFig2 drives the Figure 2 scenario and returns the three peers.
func buildFig2(t *testing.T, schema *core.Schema, clientFor func(core.PeerID) store.Store) (p1, p2, p3 *store.Peer) {
	t.Helper()
	ctx := t.Context()
	var err error
	p1, err = store.NewPeer(ctx, "p1", schema, core.TrustOrigins(map[core.PeerID]int{"p2": 1, "p3": 1}), clientFor("p1"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err = store.NewPeer(ctx, "p2", schema, core.TrustOrigins(map[core.PeerID]int{"p1": 2, "p3": 1}), clientFor("p2"))
	if err != nil {
		t.Fatal(err)
	}
	p3, err = store.NewPeer(ctx, "p3", schema, core.TrustOrigins(map[core.PeerID]int{"p2": 1}), clientFor("p3"))
	if err != nil {
		t.Fatal(err)
	}
	edit := func(p *store.Peer, u core.Update) {
		if _, err := p.Edit(u); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func(p *store.Peer) {
		if _, err := p.PublishAndReconcile(ctx); err != nil {
			t.Fatal(err)
		}
	}
	edit(p3, core.Insert("F", core.Strs("rat", "prot1", "cell-metab"), "p3"))
	edit(p3, core.Modify("F", core.Strs("rat", "prot1", "cell-metab"), core.Strs("rat", "prot1", "immune"), "p3"))
	cycle(p3)
	edit(p2, core.Insert("F", core.Strs("mouse", "prot2", "immune"), "p2"))
	edit(p2, core.Insert("F", core.Strs("rat", "prot1", "cell-resp"), "p2"))
	cycle(p2)
	cycle(p3)
	cycle(p1)
	return p1, p2, p3
}

// TestNetworkCentricShiftsWork: controllers forward more traffic under
// network-centric assembly (the Figure 3 trade-off: work moves into the
// network).
func TestNetworkCentricShiftsWork(t *testing.T) {
	schema := storetest.Schema(t)
	ctx := t.Context()

	traffic := func(networkCentric bool) int64 {
		net := simnet.NewVirtual(simnet.DefaultLatency)
		cluster := NewCluster(net)
		for i := 0; i < 8; i++ {
			if _, err := cluster.AddNode(addrOf(i)); err != nil {
				t.Fatal(err)
			}
		}
		mk := func(id core.PeerID) *store.Peer {
			var cl store.Store
			var err error
			if networkCentric {
				cl, err = cluster.AddNetworkCentricNode("node-" + string(id))
			} else {
				cl, err = cluster.AddNode("node-" + string(id))
			}
			if err != nil {
				t.Fatal(err)
			}
			p, err := store.NewPeer(ctx, id, schema, core.TrustAll(1), cl)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		pa := mk("pa")
		pb := mk("pb")
		// A chain of 6 dependent transactions so extension gathering has
		// depth.
		if _, err := pa.Edit(core.Insert("F", core.Strs("rat", "p1", "v0"), "pa")); err != nil {
			t.Fatal(err)
		}
		if _, err := pa.PublishAndReconcile(ctx); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 6; i++ {
			if _, err := pa.Edit(core.Modify("F",
				core.Strs("rat", "p1", verOf(i-1)), core.Strs("rat", "p1", verOf(i)), "pa")); err != nil {
				t.Fatal(err)
			}
			if _, err := pa.PublishAndReconcile(ctx); err != nil {
				t.Fatal(err)
			}
		}
		net.Stats().Reset()
		if _, err := pb.PublishAndReconcile(ctx); err != nil {
			t.Fatal(err)
		}
		return net.Stats().Messages()
	}

	cc := traffic(false)
	ncTraffic := traffic(true)
	if cc <= 0 || ncTraffic <= 0 {
		t.Fatalf("no traffic measured: cc=%d nc=%d", cc, ncTraffic)
	}
	// Network-centric gathering re-fetches shared antecedents per root, so
	// it must generate at least as much traffic.
	if ncTraffic < cc {
		t.Errorf("network-centric traffic %d unexpectedly below client-centric %d", ncTraffic, cc)
	}
}

func addrOf(i int) string { return "storage-" + string(rune('a'+i)) }

func verOf(i int) string { return "v" + string(rune('0'+i)) }
