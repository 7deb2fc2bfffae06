package remote

import (
	"context"
	"strings"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/rpc"
	"orchestra/internal/simnet"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/store/storetest"
	"orchestra/internal/trust"
)

// startServer hosts a central store over TCP and returns its address.
func startServer(t *testing.T, schema *core.Schema) string {
	t.Helper()
	backend := central.MustOpenMemory(schema)
	srv := NewServer(backend, schema)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		backend.Close()
	})
	return addr
}

func policyAll(t *testing.T) *trust.Policy {
	t.Helper()
	p, err := trust.Parse("priority 1 when true")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConformance runs both tiers of the store contract over the wire:
// every peer is a TCP client of a server hosting a central backend, so the
// suite exercises the binary publish payloads, textual trust policies,
// batched decisions, keyed retries, and the replay and snapshot RPCs
// end-to-end.
func TestConformance(t *testing.T) {
	factory := func(t *testing.T, schema *core.Schema) (func(core.PeerID) store.Store, func()) {
		addr := startServer(t, schema)
		return func(p core.PeerID) store.Store { return NewClient(string(p), addr) }, func() {}
	}
	storetest.RunConformance(t, factory)
	storetest.RunBackendConformance(t, factory)
}

// TestWatchConformance runs the watch-subscription suite over TCP: the
// subscription crosses the wire as the bounded long-poll, so the cursor
// contract (contiguity, resume), the exactly-once hand-out of one begin per
// event and a watch from below the compaction horizon are all exercised
// through the proxy. A short poll keeps the suite fast.
func TestWatchConformance(t *testing.T) {
	storetest.RunWatchConformance(t, func(t *testing.T, schema *core.Schema) (func(core.PeerID) store.Store, func()) {
		addr := startServer(t, schema)
		return func(p core.PeerID) store.Store {
			return NewClient(string(p), addr, WithWatchPoll(10*time.Millisecond))
		}, func() {}
	})
}

func TestRemoteEndToEnd(t *testing.T) {
	schema := storetest.Schema(t)
	addr := startServer(t, schema)
	ctx := context.Background()

	mk := func(id core.PeerID) *store.Peer {
		p, err := store.NewPeer(ctx, id, schema, policyAll(t), NewClient(string(id), addr))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	alice := mk("alice")
	bob := mk("bob")

	if _, err := alice.Edit(core.Insert("F", core.Strs("rat", "p1", "immune"), "alice")); err != nil {
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
	if bob.Instance().Len("F") != 1 {
		t.Errorf("bob instance: %v", bob.Instance().Tuples("F"))
	}
	if rec, err := NewClient("x", addr).BeginReconciliation(ctx, "bob"); err != nil || rec.Recno != 2 {
		t.Errorf("bob's next recno over the wire: %+v %v", rec, err)
	}
}

// TestBeginAfterLostReplyReplaysItsWindow: a begin commits, moving the
// peer's frontier, and the store crashes before it replies; the client's
// retries run out while it is down. The peer's next begin must still get
// that window, not the empty one after it: it carries the failed begin's
// key, and the store replays the window.
func TestBeginAfterLostReplyReplaysItsWindow(t *testing.T) {
	schema := storetest.Schema(t)
	ctx := context.Background()
	backend := central.MustOpenMemory(schema)
	defer backend.Close()
	net := simnet.NewVirtual(time.Microsecond)
	h := NewServer(backend, schema).Handler()
	crashed := false
	net.Node("store", rpc.HandlerFunc(func(ctx context.Context, req rpc.Request) ([]byte, error) {
		resp, err := h.ServeRPC(ctx, req)
		if req.Method == mBegin && !crashed {
			crashed = true
			net.Crash("store")
		}
		return resp, err
	}))
	c := NewClientOn(net.Node("bob", nil), "store", WithRetryPolicy(rpc.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond}))
	if err := c.RegisterPeer(ctx, "bob", policyAll(t)); err != nil {
		t.Fatal(err)
	}
	alice, err := store.NewPeer(ctx, "alice", schema, policyAll(t), backend)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Edit(core.Insert("F", core.Strs("rat", "p1", "immune"), "alice")); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}

	if _, err := c.BeginReconciliation(ctx, "bob"); !store.IsTransient(err) {
		t.Fatalf("begin across the crash: %v, want a transient error", err)
	}
	net.Restart("store")
	rec, err := c.BeginReconciliation(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Recno != 1 || len(rec.Candidates) != 1 {
		t.Errorf("begin after the crash: recno %d, %d candidates; want the lost window, recno 1 with alice's transaction", rec.Recno, len(rec.Candidates))
	}
	if rec, err = c.BeginReconciliation(ctx, "bob"); err != nil || rec.Recno != 2 || len(rec.Candidates) != 0 {
		t.Errorf("the begin after it: %+v, %v; want recno 2 and no candidates", rec, err)
	}
}

func TestRemoteAntecedentChains(t *testing.T) {
	schema := storetest.Schema(t)
	addr := startServer(t, schema)
	ctx := context.Background()
	a, _ := store.NewPeer(ctx, "a", schema, policyAll(t), NewClient("a", addr))
	b, _ := store.NewPeer(ctx, "b", schema, policyAll(t), NewClient("b", addr))
	c, _ := store.NewPeer(ctx, "c", schema, policyAll(t), NewClient("c", addr))

	xa, _ := a.Edit(core.Insert("F", core.Strs("rat", "p1", "v0"), "a"))
	a.PublishAndReconcile(ctx)
	b.PublishAndReconcile(ctx)
	xb, _ := b.Edit(core.Modify("F", core.Strs("rat", "p1", "v0"), core.Strs("rat", "p1", "v1"), "b"))
	b.PublishAndReconcile(ctx)

	res, err := c.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 2 {
		t.Fatalf("c accepted %v, want chain %v+%v", res.Accepted, xa.ID, xb.ID)
	}
	got, _ := c.Instance().Lookup("F", core.Strs("rat", "p1"))
	if got[2].Str() != "v1" {
		t.Errorf("c sees %v", got)
	}
}

func TestRemotePolicyOverTheWire(t *testing.T) {
	schema := storetest.Schema(t)
	addr := startServer(t, schema)
	ctx := context.Background()

	// q trusts only the curator, via a textual policy evaluated
	// server-side.
	qPolicy, err := trust.Parse("priority 1 when origin = 'curator'")
	if err != nil {
		t.Fatal(err)
	}
	curator, _ := store.NewPeer(ctx, "curator", schema, policyAll(t), NewClient("curator", addr))
	outsider, _ := store.NewPeer(ctx, "outsider", schema, policyAll(t), NewClient("outsider", addr))
	q, err := store.NewPeer(ctx, "q", schema, qPolicy, NewClient("q", addr))
	if err != nil {
		t.Fatal(err)
	}

	curator.Edit(core.Insert("F", core.Strs("rat", "p1", "t"), "curator"))
	curator.PublishAndReconcile(ctx)
	outsider.Edit(core.Insert("F", core.Strs("mouse", "p2", "u"), "outsider"))
	outsider.PublishAndReconcile(ctx)

	res, err := q.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 1 || q.Instance().Len("F") != 1 {
		t.Fatalf("q accepted %v, instance %v", res.Accepted, q.Instance().Tuples("F"))
	}
}

func TestRemoteRejectsNonTextualPolicy(t *testing.T) {
	schema := storetest.Schema(t)
	addr := startServer(t, schema)
	cl := NewClient("x", addr)
	err := cl.RegisterPeer(context.Background(), "x", core.TrustAll(1))
	if err == nil || !strings.Contains(err.Error(), "textual") {
		t.Errorf("err = %v", err)
	}
}

func TestRemoteBadPolicyRejectedServerSide(t *testing.T) {
	schema := storetest.Schema(t)
	addr := startServer(t, schema)
	// Send a syntactically invalid policy text directly: the server must
	// reject it when compiling.
	cl := NewClient("x", addr)
	_, err := call[none](context.Background(), cl, mRegister, &registerArgs{Peer: "x", Policy: "garbage"})
	if err == nil {
		t.Error("server accepted garbage policy")
	}
}

// bareStore is a five-method store.Store and nothing more: embedding the
// interface hides every store.Backend capability of the central store
// behind it.
type bareStore struct{ store.Store }

// TestServerRefusesMissingCapability: a Server accepts any store.Store, so
// each of the six ops that need a store.Backend capability must refuse a
// backend whose type lacks it, with an error naming that type — and the
// five-method tier must keep working on the same server.
func TestServerRefusesMissingCapability(t *testing.T) {
	schema := storetest.Schema(t)
	backend := central.MustOpenMemory(schema)
	srv := NewServer(bareStore{backend}, schema)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		backend.Close()
	})
	ctx := context.Background()
	cl := NewClient("x", addr)
	if err := cl.RegisterPeer(ctx, "x", policyAll(t)); err != nil {
		t.Fatalf("five-method tier over a bare store: %v", err)
	}

	gated := map[string]func() error{
		mTakeSnapshot: func() error { _, err := cl.Snapshot(ctx); return err },
		mSnapshot:     func() error { _, err := cl.LatestSnapshot(ctx); return err },
		mReplayFrom:   func() error { _, _, err := cl.ReplayFrom(ctx, "x", 0, 0); return err },
		mCompact:      func() error { return cl.CompactBefore(ctx, 1) },
		mEffTrust:     func() error { _, err := cl.EffectiveTrust(ctx, "x"); return err },
		mWatch: func() error {
			_, err := call[watchReply](ctx, cl, mWatch, &watchArgs{From: 0, WaitNanos: int64(time.Millisecond)})
			return err
		},
	}
	for method, op := range gated {
		err := op()
		if err == nil || !strings.Contains(err.Error(), "remote.bareStore") {
			t.Errorf("%s over a bare store: err = %v, want a refusal naming remote.bareStore", method, err)
		}
	}
}

// TestBeginSharesTransactionsOverTheWire: a begin reply decoded off the
// wire shares its transactions as the in-process begin hands them out. pb
// and pc each publish a transaction whose antecedent is pa's, so a peer
// that has decided none of them gets three candidates, two of whose
// extensions need pa's transaction. Over TCP, as in process, each
// candidate's Txn is the pointer that ends its own extension, and pa's
// transaction is one pointer in every extension and as a candidate.
func TestBeginSharesTransactionsOverTheWire(t *testing.T) {
	schema := storetest.Schema(t)
	backend := central.MustOpenMemory(schema)
	srv := NewServer(backend, schema)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		backend.Close()
	})
	ctx := context.Background()
	cl := NewClient("x", addr)
	for _, p := range []core.PeerID{"pa", "pb", "pc", "wire", "local"} {
		if err := cl.RegisterPeer(ctx, p, policyAll(t)); err != nil {
			t.Fatal(err)
		}
	}
	xa := core.NewTransaction(core.TxnID{Origin: "pa", Seq: 1},
		core.Insert("F", core.Strs("rat", "p1", "f"), "pa"),
		core.Insert("F", core.Strs("rat", "p2", "f"), "pa"))
	xb := core.NewTransaction(core.TxnID{Origin: "pb", Seq: 1},
		core.Modify("F", core.Strs("rat", "p1", "f"), core.Strs("rat", "p1", "g"), "pb"))
	xc := core.NewTransaction(core.TxnID{Origin: "pc", Seq: 1},
		core.Modify("F", core.Strs("rat", "p2", "f"), core.Strs("rat", "p2", "h"), "pc"))
	for _, pub := range []store.PublishedTxn{{Txn: xa}, {Txn: xb, Antecedents: []core.TxnID{xa.ID}}, {Txn: xc, Antecedents: []core.TxnID{xa.ID}}} {
		if _, err := cl.Publish(ctx, pub.Txn.ID.Origin, []store.PublishedTxn{pub}); err != nil {
			t.Fatal(err)
		}
	}
	shared := func(via string, rec *store.Reconciliation) {
		t.Helper()
		if len(rec.Candidates) != 3 {
			t.Fatalf("%s: %d candidates, want 3", via, len(rec.Candidates))
		}
		var root *core.Transaction
		for _, c := range rec.Candidates {
			if c.Txn == nil || len(c.Ext) == 0 || c.Ext[len(c.Ext)-1] != c.Txn {
				t.Errorf("%s: candidate %v's Txn is not the pointer that ends its extension", via, c.Txn)
			}
			if c.Txn != nil && c.Txn.ID == xa.ID {
				root = c.Txn
			}
		}
		if root == nil {
			t.Fatalf("%s: %v is not a candidate", via, xa.ID)
		}
		for _, c := range rec.Candidates {
			if c.Txn.ID != xa.ID && (len(c.Ext) != 2 || c.Ext[0] != root) {
				t.Errorf("%s: %v's extension does not share %v's pointer", via, c.Txn.ID, xa.ID)
			}
		}
	}
	rec, err := NewClient("wire", addr).BeginReconciliation(ctx, "wire")
	if err != nil {
		t.Fatal(err)
	}
	shared("over TCP", rec)
	if rec, err = backend.BeginReconciliation(ctx, "local"); err != nil {
		t.Fatal(err)
	}
	shared("in process", rec)
}
