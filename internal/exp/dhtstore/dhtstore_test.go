package dhtstore

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/simnet"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/store/storetest"
)

// factory joins one DHT node per peer lazily: each peer's store client is
// backed by its own overlay node, as in an Orchestra confederation.
func factory(t *testing.T, _ *core.Schema) (func(core.PeerID) store.Store, func()) {
	net := simnet.NewVirtual(simnet.DefaultLatency)
	cluster := NewCluster(net)
	clients := make(map[core.PeerID]store.Store)
	return func(p core.PeerID) store.Store {
		if c, ok := clients[p]; ok {
			return c
		}
		c, err := cluster.AddNode("node-" + string(p))
		if err != nil {
			t.Fatal(err)
		}
		clients[p] = c
		return c
	}, func() {}
}

// TestConformance runs tier one, the whole contract the DHT store claims.
func TestConformance(t *testing.T) {
	storetest.RunConformance(t, factory)
}

// TestMessageAccounting: the DHT store generates per-transaction request
// traffic, and reconciliation traffic grows with the number of transactions
// retrieved (the effect behind Figures 10 and 12).
func TestMessageAccounting(t *testing.T) {
	net := simnet.NewVirtual(simnet.DefaultLatency)
	cluster := NewCluster(net)
	schema := storetest.Schema(t)
	ctx := context.Background()

	// Extra storage-only nodes so that most keys are owned remotely.
	for i := 0; i < 8; i++ {
		if _, err := cluster.AddNode(fmt.Sprintf("storage-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(id core.PeerID) *store.Peer {
		cl, err := cluster.AddNode("node-" + string(id))
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

	for i := 0; i < 10; i++ {
		if _, err := pa.Edit(core.Insert("F", core.Strs("org", fmt.Sprintf("prot%d", i), "fn"), "pa")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pa.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}

	net.Stats().Reset()
	res, err := pb.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 10 {
		t.Fatalf("accepted %d", len(res.Accepted))
	}
	msgs := net.Stats().Messages()
	// At minimum: one txn.get and one txn.decide per transaction, plus
	// epoch/allocator/coordinator traffic.
	if msgs < 40 {
		t.Errorf("messages = %d, expected per-transaction request traffic", msgs)
	}
	if net.VirtualLatency() <= 0 {
		t.Error("latency not charged")
	}
}

// TestEquivalenceWithCentralStore drives an identical randomized workload
// through the central store and the DHT store and requires identical final
// instances and decision sets at every peer — the two implementations
// realize the same §5.2 contract.
func TestEquivalenceWithCentralStore(t *testing.T) {
	schema := storetest.Schema(t)
	const peers = 5
	const rounds = 8

	type world struct {
		peers []*store.Peer
	}
	build := func(clientFor func(core.PeerID) store.Store) *world {
		ctx := context.Background()
		w := &world{}
		for i := 0; i < peers; i++ {
			id := core.PeerID(fmt.Sprintf("p%d", i))
			p, err := store.NewPeer(ctx, id, schema, core.TrustAll(1), clientFor(id))
			if err != nil {
				t.Fatal(err)
			}
			w.peers = append(w.peers, p)
		}
		return w
	}

	run := func(w *world, seed int64) {
		ctx := context.Background()
		r := rand.New(rand.NewSource(seed))
		orgs := []string{"rat", "mouse", "dog"}
		fns := []string{"a", "b", "c", "d"}
		for round := 0; round < rounds; round++ {
			p := w.peers[round%peers]
			// A couple of edits: inserts or modifications of existing keys.
			for k := 0; k < 2; k++ {
				org := orgs[r.Intn(len(orgs))]
				prot := fmt.Sprintf("prot%d", r.Intn(4))
				fn := fns[r.Intn(len(fns))]
				key := core.Strs(org, prot)
				if cur, ok := p.Instance().Lookup("F", key); ok {
					if _, err := p.Edit(core.Modify("F", cur, core.Strs(org, prot, fn), p.ID())); err != nil {
						continue // identity modify etc.: skip
					}
				} else {
					if _, err := p.Edit(core.Insert("F", core.Strs(org, prot, fn), p.ID())); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := p.PublishAndReconcile(ctx); err != nil {
				t.Fatal(err)
			}
		}
		// A final reconcile round for everyone.
		for _, p := range w.peers {
			if _, err := p.PublishAndReconcile(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	for seed := int64(1); seed <= 5; seed++ {
		cs := central.MustOpenMemory(schema)
		wc := build(func(core.PeerID) store.Store { return cs })
		run(wc, seed)

		clientFor, _ := factory(t, schema)
		wd := build(clientFor)
		run(wd, seed)

		for i := range wc.peers {
			pc, pd := wc.peers[i], wd.peers[i]
			if !pc.Instance().Equal(pd.Instance()) {
				t.Fatalf("seed %d: peer %s instances diverge:\ncentral: %v\ndht:     %v",
					seed, pc.ID(), pc.Instance().Tuples("F"), pd.Instance().Tuples("F"))
			}
			dc := core.NewTxnSet(pc.Engine().DeferredIDs()...)
			dd := core.NewTxnSet(pd.Engine().DeferredIDs()...)
			if len(dc) != len(dd) {
				t.Fatalf("seed %d: peer %s deferred sets diverge: %v vs %v",
					seed, pc.ID(), pc.Engine().DeferredIDs(), pd.Engine().DeferredIDs())
			}
			for id := range dc {
				if !dd.Has(id) {
					t.Fatalf("seed %d: peer %s: %s deferred only under central", seed, pc.ID(), id)
				}
			}
		}
		cs.Close()
	}
}

// TestAllocatorInformsController: the publish protocol of Figure 6 leaves
// the epoch controller knowing about an epoch before its transactions
// arrive, so an incomplete epoch is observable.
func TestAllocatorInformsController(t *testing.T) {
	net := simnet.NewVirtual(simnet.DefaultLatency)
	cluster := NewCluster(net)
	schema := storetest.Schema(t)
	ctx := context.Background()
	var clients []store.Store
	for i := 0; i < 4; i++ {
		cl, err := cluster.AddNode(fmt.Sprintf("node-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}
	pa, err := store.NewPeer(ctx, "pa", schema, core.TrustAll(1), clients[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pa.Edit(core.Insert("F", core.Strs("rat", "p1", "v"), "pa")); err != nil {
		t.Fatal(err)
	}
	if _, err := pa.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	// The epoch controller for epoch 1 must know it and see it complete.
	cl := clients[1].(*client)
	var er epochGetReply
	if err := cl.call(ctx, epochKey(1), mEpochGet, &epochGetArgs{Epoch: 1}, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Known || !er.Complete || len(er.IDs) != 1 || er.Peer != "pa" {
		t.Errorf("epoch record = %+v", er)
	}
	// An unknown epoch reports unknown (decode into a fresh struct: gob
	// omits zero fields).
	var unknown epochGetReply
	if err := cl.call(ctx, epochKey(99), mEpochGet, &epochGetArgs{Epoch: 99}, &unknown); err != nil {
		t.Fatal(err)
	}
	if unknown.Known {
		t.Error("epoch 99 should be unknown")
	}
}

// TestWorkDistribution: storage responsibilities spread across the ring.
func TestWorkDistribution(t *testing.T) {
	net := simnet.NewVirtual(simnet.DefaultLatency)
	cluster := NewCluster(net)
	schema := storetest.Schema(t)
	ctx := context.Background()
	const n = 10
	peersList := make([]*store.Peer, n)
	for i := 0; i < n; i++ {
		id := core.PeerID(fmt.Sprintf("p%02d", i))
		cl, err := cluster.AddNode("node-" + string(id))
		if err != nil {
			t.Fatal(err)
		}
		peersList[i], err = store.NewPeer(ctx, id, schema, core.TrustAll(1), cl)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range peersList {
		for j := 0; j < 5; j++ {
			if _, err := p.Edit(core.Insert("F", core.Strs(fmt.Sprintf("org%d", i), fmt.Sprintf("prot%d", j), "fn"), p.ID())); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.PublishAndReconcile(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Count how many ring nodes delivered at least one message as owner:
	// with 50 transactions, 10 epochs, 10 coordinators and the allocator,
	// responsibility must not be concentrated on one node.
	owners := 0
	for _, nd := range cluster.Ring().Nodes() {
		if nd.Delivered() > 0 {
			owners++
		}
	}
	if owners < n/2 {
		t.Errorf("only %d of %d nodes own any state", owners, n)
	}
}
