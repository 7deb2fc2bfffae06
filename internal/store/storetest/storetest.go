// Package storetest is the executable form of the two-tier store contract.
// RunConformance checks the five methods of store.Store — the paper's
// Figure 2 scenario end-to-end, trust and antecedent chasing, deferral and
// resolution, batched decisions, trust re-registration — and every store
// passes it, the DHT store of internal/exp/dhtstore included.
// RunBackendConformance, RunWatchConformance and RunMultiGroupConformance
// check what store.Backend adds — soft-state recovery by replay and by
// snapshot + tail, churn and rejoin, exactly-once keyed calls, delegation
// resolution, watch subscriptions, tenancy — and the central store passes
// them in-process and over the wire. No leg skips: a client that lacks a
// capability its tier requires fails.
//
// Trust policies are built textually (TrustAll, TrustOrigins below) so the
// identical suite drives in-process backends and wire-protocol backends,
// whose RegisterPeer only carries policies as text.
package storetest

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/trust"
)

// TrustAll returns a textual policy assigning the same priority to every
// update — core.TrustAll semantics in the form every backend can carry.
func TrustAll(priority int) core.Trust {
	p, err := trust.Parse(fmt.Sprintf("priority %d when true", priority))
	if err != nil {
		panic(err)
	}
	return p
}

// TrustOrigins returns a textual policy mapping each originating peer to a
// priority, 0 for unlisted peers — core.TrustOrigins semantics in the form
// every backend can carry.
func TrustOrigins(prio map[core.PeerID]int) core.Trust {
	ids := make([]string, 0, len(prio))
	for id := range prio {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		if prio[core.PeerID(id)] <= 0 {
			continue // priority 0 is the implicit "untrusted" default
		}
		fmt.Fprintf(&b, "priority %d when origin = '%s'\n", prio[core.PeerID(id)], id)
	}
	p, err := trust.Parse(b.String())
	if err != nil {
		panic(err)
	}
	return p
}

// Factory builds a fresh store for a schema, plus a per-peer store client
// (some implementations, like the DHT store, give each peer its own entry
// point) and a cleanup.
type Factory func(t *testing.T, schema *core.Schema) (clientFor func(peer core.PeerID) store.Store, cleanup func())

// Schema returns the paper's protein-function relation.
func Schema(t *testing.T) *core.Schema {
	t.Helper()
	s, err := core.NewSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustEdit(t *testing.T, p *store.Peer, us ...core.Update) *core.Transaction {
	t.Helper()
	x, err := p.Edit(us...)
	if err != nil {
		t.Fatalf("edit at %s: %v", p.ID(), err)
	}
	return x
}

func mustCycle(t *testing.T, p *store.Peer) *core.Result {
	t.Helper()
	res, err := p.PublishAndReconcile(context.Background())
	if err != nil {
		t.Fatalf("publish+reconcile at %s: %v", p.ID(), err)
	}
	return res
}

// nextRecno begins a reconciliation for peer directly at st and returns its
// recno: one more than the counter the store persisted at the peer's last
// begin.
func nextRecno(t *testing.T, st store.Store, peer core.PeerID) int {
	t.Helper()
	rec, err := st.BeginReconciliation(context.Background(), peer)
	if err != nil {
		t.Fatalf("begin at %s: %v", peer, err)
	}
	return rec.Recno
}

func wantTuples(t *testing.T, in *core.Instance, rel string, want ...core.Tuple) {
	t.Helper()
	got := in.Tuples(rel)
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", rel, got, want)
	}
	idx := map[string]bool{}
	for _, w := range want {
		idx[w.Encode()] = true
	}
	for _, g := range got {
		if !idx[g.Encode()] {
			t.Errorf("%s: unexpected tuple %v", rel, g)
		}
	}
}

func wantIDSet(t *testing.T, what string, got []core.TxnID, want ...core.TxnID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	set := core.NewTxnSet(want...)
	for _, id := range got {
		if !set.Has(id) {
			t.Errorf("%s: unexpected %v (want %v)", what, id, want)
		}
	}
}

// backendFor returns the peer's store client as a store.Backend. Tier two
// is not optional: a client that is only a store.Store fails the test.
func backendFor(t *testing.T, clientFor func(core.PeerID) store.Store, peer core.PeerID) store.Backend {
	t.Helper()
	st := clientFor(peer)
	b, ok := st.(store.Backend)
	if !ok {
		t.Fatalf("%T is not a store.Backend", st)
	}
	return b
}

// RunConformance runs tier one, the five-method store.Store contract.
func RunConformance(t *testing.T, factory Factory) {
	t.Run("Figure2", func(t *testing.T) { testFigure2(t, factory) })
	t.Run("Figure2Resolution", func(t *testing.T) { testFigure2Resolution(t, factory) })
	t.Run("AntecedentChasing", func(t *testing.T) { testAntecedentChasing(t, factory) })
	t.Run("UntrustedSkipped", func(t *testing.T) { testUntrustedSkipped(t, factory) })
	t.Run("EmptyPublish", func(t *testing.T) { testEmptyPublish(t, factory) })
	t.Run("RecnoAdvances", func(t *testing.T) { testRecnoAdvances(t, factory) })
	t.Run("NoRedelivery", func(t *testing.T) { testNoRedelivery(t, factory) })
	t.Run("PriorityConflict", func(t *testing.T) { testPriorityConflict(t, factory) })
	t.Run("BatchedDecisions", func(t *testing.T) { testBatchedDecisions(t, factory) })
	t.Run("TrustUpdate", func(t *testing.T) { testTrustUpdate(t, factory) })
}

// RunBackendConformance runs the recovery, retry and delegation legs of
// tier two, what store.Backend adds to store.Store; the watch and tenancy
// legs are RunWatchConformance and RunMultiGroupConformance.
func RunBackendConformance(t *testing.T, factory Factory) {
	t.Run("ReplayRebuild", func(t *testing.T) { testReplayRebuild(t, factory) })
	t.Run("SnapshotRebuild", func(t *testing.T) { testSnapshotRebuild(t, factory) })
	t.Run("ChurnRejoin", func(t *testing.T) { testChurnRejoin(t, factory) })
	t.Run("IdempotentRetry", func(t *testing.T) { testIdempotentRetry(t, factory) })
	t.Run("TrustDelegation", func(t *testing.T) { testTrustDelegation(t, factory) })
}

// testIdempotentRetry: delivering the same keyed Publish,
// BeginReconciliation, or RecordDecisionsBatch twice — what a retry after a
// lost reply does — must behave exactly like one delivery: one epoch
// allocated, the same reconciliation window replayed, decisions recorded
// once.
func testIdempotentRetry(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()
	st := backendFor(t, clientFor, "pa")
	pa, err := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.NewPeer(ctx, "pb", s, TrustAll(1), clientFor("pb")); err != nil {
		t.Fatal(err)
	}

	// A retried publish: both deliveries of the keyed call return the same
	// epoch, and the store holds the batch once.
	// An insert of a new value has no antecedents.
	x := mustEdit(t, pa, core.Insert("F", core.Strs("rat", "p1", "v"), "pa"))
	batch := []store.PublishedTxn{{Txn: x}}
	kctx := store.WithIdempotencyKey(ctx, "conformance/publish/1")
	e1, err := st.Publish(kctx, "pa", batch)
	if err != nil {
		t.Fatalf("keyed publish: %v", err)
	}
	e2, err := st.Publish(kctx, "pa", batch)
	if err != nil {
		t.Fatalf("retried publish: %v", err)
	}
	if e1 != e2 {
		t.Errorf("retried publish allocated a new epoch: %d then %d", e1, e2)
	}

	// A retried begin replays the first delivery's window and candidates
	// instead of handing out a fresh (empty) one.
	pbStore := clientFor("pb")
	bctx := store.WithIdempotencyKey(ctx, "conformance/begin/1")
	r1, err := pbStore.BeginReconciliation(bctx, "pb")
	if err != nil {
		t.Fatalf("keyed begin: %v", err)
	}
	r2, err := pbStore.BeginReconciliation(bctx, "pb")
	if err != nil {
		t.Fatalf("retried begin: %v", err)
	}
	if r1.Recno != r2.Recno || r1.FromEpoch != r2.FromEpoch || r1.ToEpoch != r2.ToEpoch {
		t.Errorf("retried begin window differs: %+v vs %+v", r1, r2)
	}
	ids := func(r *store.Reconciliation) []core.TxnID {
		out := make([]core.TxnID, 0, len(r.Candidates))
		for _, c := range r.Candidates {
			out = append(out, c.Txn.ID)
		}
		return out
	}
	wantIDSet(t, "keyed begin candidates", ids(r1), x.ID)
	wantIDSet(t, "retried begin candidates", ids(r2), ids(r1)...)

	// A retried decision batch records once; the decision sticks and the
	// transaction is never redelivered.
	dctx := store.WithIdempotencyKey(ctx, "conformance/decide/1")
	batches := []store.DecisionBatch{{Peer: "pb", Recno: r1.Recno, Accepted: []core.TxnID{x.ID}}}
	if err := pbStore.RecordDecisionsBatch(dctx, batches); err != nil {
		t.Fatalf("keyed decide: %v", err)
	}
	if err := pbStore.RecordDecisionsBatch(dctx, batches); err != nil {
		t.Fatalf("retried decide: %v", err)
	}
	r3, err := pbStore.BeginReconciliation(ctx, "pb")
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Candidates) != 0 {
		t.Errorf("decided txn redelivered: %+v", ids(r3))
	}
	if r3.Recno != r1.Recno+1 {
		t.Errorf("pb recno after the retries = %d, want %d", r3.Recno, r1.Recno+1)
	}

	// Reusing a key across operations is a protocol error, not a dedup hit.
	if _, err := st.Publish(store.WithIdempotencyKey(ctx, "conformance/begin/1"), "pa", nil); err == nil {
		t.Error("cross-operation key reuse succeeded")
	}
}

// sameRebuiltState asserts two peers hold bit-identical rebuilt state over
// the given universe of transactions: same instance, same accept/reject
// verdict for every transaction, no phantom soft state.
func sameRebuiltState(t *testing.T, what string, a, b *store.Peer, universe []core.TxnID) {
	t.Helper()
	if !a.Instance().Equal(b.Instance()) {
		t.Errorf("%s: instances differ: %v vs %v", what, a.Instance().Tuples("F"), b.Instance().Tuples("F"))
	}
	for _, id := range universe {
		if a.Engine().Applied(id) != b.Engine().Applied(id) {
			t.Errorf("%s: applied(%s) differs", what, id)
		}
		if a.Engine().Rejected(id) != b.Engine().Rejected(id) {
			t.Errorf("%s: rejected(%s) differs", what, id)
		}
	}
	if da, db := a.Engine().DeferredIDs(), b.Engine().DeferredIDs(); len(da) != len(db) {
		t.Errorf("%s: deferred %v vs %v", what, da, db)
	}
}

// testSnapshotRebuild is the snapshot leg of the recovery conformance: a
// peer rebuilt through the snapshot + tail path must be bit-identical to one
// rebuilt by full replay — instance, accepts, rejects — and keep
// reconciling; and after compaction, when full replay no longer exists,
// every registered peer must still rebuild to exactly that state.
func testSnapshotRebuild(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()
	snapc := backendFor(t, clientFor, "pq")

	trustQ := TrustOrigins(map[core.PeerID]int{"pa": 2, "pb": 1})
	pa, _ := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	pb, _ := store.NewPeer(ctx, "pb", s, TrustAll(1), clientFor("pb"))
	pq, err := store.NewPeer(ctx, "pq", s, trustQ, clientFor("pq"))
	if err != nil {
		t.Fatal(err)
	}
	var universe []core.TxnID
	edit := func(p *store.Peer, us ...core.Update) *core.Transaction {
		x := mustEdit(t, p, us...)
		universe = append(universe, x.ID)
		return x
	}

	// Pre-snapshot history with accepts and rejects: pa's chain wins over
	// pb's conflicting value at pq.
	xa0 := edit(pa, core.Insert("F", core.Strs("rat", "p1", "v0"), "pa"))
	xa1 := edit(pa, core.Modify("F", core.Strs("rat", "p1", "v0"), core.Strs("rat", "p1", "v1"), "pa"))
	mustCycle(t, pa)
	xb0 := edit(pb, core.Insert("F", core.Strs("rat", "p1", "other"), "pb"))
	mustCycle(t, pb)
	res := mustCycle(t, pq)
	wantIDSet(t, "pq pre-snapshot accepted", res.Accepted, xa0.ID, xa1.ID)
	wantIDSet(t, "pq pre-snapshot rejected", res.Rejected, xb0.ID)

	snapEpoch, err := snapc.Snapshot(ctx)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if snapEpoch <= 0 {
		t.Fatalf("snapshot covered epoch %d", snapEpoch)
	}

	// Post-snapshot tail, with another accept/reject pair so the tail
	// replay is exercised for both decision kinds.
	xa2 := edit(pa, core.Insert("F", core.Strs("mouse", "p2", "hi"), "pa"))
	mustCycle(t, pa)
	xb1 := edit(pb, core.Insert("F", core.Strs("mouse", "p2", "lo"), "pb"))
	mustCycle(t, pb)
	res = mustCycle(t, pq)
	wantIDSet(t, "pq tail accepted", res.Accepted, xa2.ID)
	wantIDSet(t, "pq tail rejected", res.Rejected, xb1.ID)

	// The two rebuild paths must agree bit-for-bit (and with the live peer).
	full, err := store.FullReplayRebuild(ctx, "pq", s, trustQ, clientFor("pq"))
	if err != nil {
		t.Fatalf("full-replay rebuild: %v", err)
	}
	snapQ, err := store.RebuildPeer(ctx, "pq", s, trustQ, clientFor("pq"))
	if err != nil {
		t.Fatalf("snapshot rebuild: %v", err)
	}
	sameRebuiltState(t, "snapshot vs full replay", snapQ, full, universe)
	sameRebuiltState(t, "snapshot vs live", snapQ, pq, universe)

	// The snapshot-rebuilt peer keeps reconciling exactly like the lost one
	// would: one fresh publish arrives exactly once, nothing is redelivered.
	xa3 := edit(pa, core.Insert("F", core.Strs("dog", "p3", "w"), "pa"))
	mustCycle(t, pa)
	mustCycle(t, pb)
	res, err = snapQ.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantIDSet(t, "rebuilt pq accepted", res.Accepted, xa3.ID)
	if len(res.Rejected)+len(res.Deferred) != 0 {
		t.Errorf("rebuilt pq redelivered decided txns: %+v", res)
	}

	// Compact behind a fresh snapshot covering everyone's frontier; the
	// compacted store must still rebuild every registered peer to the state
	// a pre-compaction rebuild produced, and the rebuilt consumer keeps
	// reconciling.
	trustFor := func(id core.PeerID) core.Trust {
		if id == "pq" {
			return trustQ
		}
		return TrustAll(1)
	}
	pre := make(map[core.PeerID]*store.Peer)
	for _, id := range []core.PeerID{"pa", "pb", "pq"} {
		p, err := store.RebuildPeer(ctx, id, s, trustFor(id), clientFor(id))
		if err != nil {
			t.Fatalf("pre-compaction rebuild %s: %v", id, err)
		}
		pre[id] = p
	}
	if _, err := snapc.Snapshot(ctx); err != nil {
		t.Fatalf("second snapshot: %v", err)
	}
	if err := snapc.CompactBefore(ctx, snapEpoch); err != nil {
		t.Fatalf("compact through %d: %v", snapEpoch, err)
	}
	for _, id := range []core.PeerID{"pa", "pb", "pq"} {
		p, err := store.RebuildPeer(ctx, id, s, trustFor(id), clientFor(id))
		if err != nil {
			t.Fatalf("post-compaction rebuild %s: %v", id, err)
		}
		sameRebuiltState(t, "post-compaction rebuild "+string(id), p, pre[id], universe)
	}
	rq, err := store.RebuildPeer(ctx, "pq", s, trustQ, clientFor("pq"))
	if err != nil {
		t.Fatal(err)
	}
	xa4 := edit(pa, core.Insert("F", core.Strs("cat", "p4", "z"), "pa"))
	mustCycle(t, pa)
	res, err = rq.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantIDSet(t, "compacted-store rebuilt pq accepted", res.Accepted, xa4.ID)
}

// testReplayRebuild round-trips publish → reconcile → recover: after a
// history with accepts and rejects, every peer is rebuilt from nothing but
// the store's replay log (store.RebuildPeer, the §5.2 soft-state
// guarantee) and must come back with an identical instance and decision
// sets — and keep reconciling from where the lost peer stopped.
func testReplayRebuild(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()

	trustQ := TrustOrigins(map[core.PeerID]int{"pa": 2, "pb": 1})
	pa, _ := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	pb, _ := store.NewPeer(ctx, "pb", s, TrustAll(1), clientFor("pb"))
	pq, err := store.NewPeer(ctx, "pq", s, trustQ, clientFor("pq"))
	if err != nil {
		t.Fatal(err)
	}

	// History: pa publishes an insert and a revision of it; pb publishes a
	// conflicting value for the same key; pq accepts pa's chain and rejects
	// pb's — so the rebuilt state must reproduce accepts *and* rejects.
	xa0 := mustEdit(t, pa, core.Insert("F", core.Strs("rat", "p1", "v0"), "pa"))
	xa1 := mustEdit(t, pa, core.Modify("F", core.Strs("rat", "p1", "v0"), core.Strs("rat", "p1", "v1"), "pa"))
	mustCycle(t, pa)
	xb := mustEdit(t, pb, core.Insert("F", core.Strs("rat", "p1", "other"), "pb"))
	mustCycle(t, pb)
	res := mustCycle(t, pq)
	wantIDSet(t, "pq accepted", res.Accepted, xa0.ID, xa1.ID)
	wantIDSet(t, "pq rejected", res.Rejected, xb.ID)

	// Recover pq from the store alone and compare against the live peer.
	rq, err := store.RebuildPeer(ctx, "pq", s, trustQ, clientFor("pq"))
	if err != nil {
		t.Fatalf("rebuild pq: %v", err)
	}
	wantTuples(t, rq.Instance(), "F", pq.Instance().Tuples("F")...)
	for _, id := range []core.TxnID{xa0.ID, xa1.ID} {
		if !rq.Engine().Applied(id) {
			t.Errorf("rebuilt pq lost accept of %s", id)
		}
	}
	if !rq.Engine().Rejected(xb.ID) {
		t.Errorf("rebuilt pq lost reject of %s", xb.ID)
	}

	// The rebuilt peer continues the protocol: a fresh publish from pa is
	// delivered to it exactly once, with no redelivery of decided history.
	xa2 := mustEdit(t, pa, core.Insert("F", core.Strs("mouse", "p2", "w"), "pa"))
	mustCycle(t, pa)
	res, err = rq.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantIDSet(t, "rebuilt pq accepted", res.Accepted, xa2.ID)
	if len(res.Rejected)+len(res.Deferred) != 0 {
		t.Errorf("rebuilt pq redelivered decided txns: %+v", res)
	}
	wantTuples(t, rq.Instance(), "F",
		core.Strs("rat", "p1", "v1"),
		core.Strs("mouse", "p2", "w"))

	// Publishers rebuild too: their self-accepts are part of the log.
	ra, err := store.RebuildPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	if err != nil {
		t.Fatalf("rebuild pa: %v", err)
	}
	wantTuples(t, ra.Instance(), "F", pa.Instance().Tuples("F")...)
}

// testBatchedDecisions: store.Settle persists several peers' owed outcomes
// in one RecordDecisionsBatch call, equivalently to each peer settling alone
// — nothing is redelivered afterwards and recnos advance normally.
func testBatchedDecisions(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()
	pa, _ := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	pq, _ := store.NewPeer(ctx, "pq", s, TrustAll(1), clientFor("pq"))
	pr, _ := store.NewPeer(ctx, "pr", s, TrustAll(1), clientFor("pr"))

	xa := mustEdit(t, pa, core.Insert("F", core.Strs("rat", "p1", "v"), "pa"))
	xb := mustEdit(t, pa, core.Insert("F", core.Strs("mouse", "p2", "w"), "pa"))
	mustCycle(t, pa)

	// Both consumers step, leaving their outcomes owed, then one Settle
	// flushes both through a single store call.
	for _, p := range []*store.Peer{pq, pr} {
		res, err := p.Step(ctx)
		if err != nil {
			t.Fatalf("step at %s: %v", p.ID(), err)
		}
		wantIDSet(t, string(p.ID())+" accepted", res.Accepted, xa.ID, xb.ID)
	}
	if owed := pq.Owed() + pr.Owed(); owed != 4 {
		t.Errorf("%d decisions owed after the steps, want 4", owed)
	}
	if err := store.Settle(ctx, pq, pr); err != nil || pq.Owed()+pr.Owed() != 0 {
		t.Fatalf("pooled settle: %v, still owed: pq %d, pr %d", err, pq.Owed(), pr.Owed())
	}

	// The recorded decisions stick: nothing is redelivered, and both
	// instances match the publisher's.
	for _, p := range []*store.Peer{pq, pr} {
		res, err := p.Reconcile(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Accepted)+len(res.Rejected)+len(res.Deferred) != 0 {
			t.Errorf("%s: redelivered after batch flush: %+v", p.ID(), res)
		}
		wantTuples(t, p.Instance(), "F",
			core.Strs("rat", "p1", "v"),
			core.Strs("mouse", "p2", "w"))
		if n := nextRecno(t, clientFor(p.ID()), p.ID()); n != 3 {
			t.Errorf("%s next recno = %d, want 3", p.ID(), n)
		}
	}
}

// figure2Peers builds the Figure 1 trust topology over the store.
func figure2Peers(t *testing.T, s *core.Schema, clientFor func(core.PeerID) store.Store) (p1, p2, p3 *store.Peer) {
	ctx := context.Background()
	var err error
	p1, err = store.NewPeer(ctx, "p1", s, TrustOrigins(map[core.PeerID]int{"p2": 1, "p3": 1}), clientFor("p1"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err = store.NewPeer(ctx, "p2", s, TrustOrigins(map[core.PeerID]int{"p1": 2, "p3": 1}), clientFor("p2"))
	if err != nil {
		t.Fatal(err)
	}
	p3, err = store.NewPeer(ctx, "p3", s, TrustOrigins(map[core.PeerID]int{"p2": 1}), clientFor("p3"))
	if err != nil {
		t.Fatal(err)
	}
	return p1, p2, p3
}

// runFigure2 drives the four epochs and returns the transactions.
func runFigure2(t *testing.T, p1, p2, p3 *store.Peer) (x30, x31, x20, x21 *core.Transaction) {
	x30 = mustEdit(t, p3, core.Insert("F", core.Strs("rat", "prot1", "cell-metab"), "p3"))
	x31 = mustEdit(t, p3, core.Modify("F", core.Strs("rat", "prot1", "cell-metab"), core.Strs("rat", "prot1", "immune"), "p3"))
	mustCycle(t, p3)
	x20 = mustEdit(t, p2, core.Insert("F", core.Strs("mouse", "prot2", "immune"), "p2"))
	x21 = mustEdit(t, p2, core.Insert("F", core.Strs("rat", "prot1", "cell-resp"), "p2"))
	mustCycle(t, p2)
	mustCycle(t, p3)
	mustCycle(t, p1)
	return
}

func testFigure2(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	p1, p2, p3 := figure2Peers(t, s, clientFor)
	x30, x31, x20, x21 := runFigure2(t, p1, p2, p3)

	wantTuples(t, p3.Instance(), "F",
		core.Strs("mouse", "prot2", "immune"),
		core.Strs("rat", "prot1", "immune"))
	wantTuples(t, p2.Instance(), "F",
		core.Strs("mouse", "prot2", "immune"),
		core.Strs("rat", "prot1", "cell-resp"))
	wantTuples(t, p1.Instance(), "F", core.Strs("mouse", "prot2", "immune"))
	wantIDSet(t, "p1 deferred", p1.Engine().DeferredIDs(), x30.ID, x31.ID, x21.ID)
	if !p1.Engine().Applied(x20.ID) {
		t.Error("p1 should have applied x20")
	}
	if !p2.Engine().Rejected(x30.ID) || !p2.Engine().Rejected(x31.ID) {
		t.Error("p2 should have rejected p3's chain")
	}
	if n := nextRecno(t, clientFor("p1"), "p1"); n != 2 {
		t.Errorf("p1 next recno = %d, want 2", n)
	}
}

func testFigure2Resolution(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	p1, p2, p3 := figure2Peers(t, s, clientFor)
	x30, x31, _, x21 := runFigure2(t, p1, p2, p3)

	groups := p1.Engine().ConflictGroups()
	if len(groups) != 1 || len(groups[0].Options) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	winner := -1
	for i, o := range groups[0].Options {
		for _, id := range o.Txns {
			if id == x31.ID {
				winner = i
			}
		}
	}
	res, err := p1.Resolve(context.Background(), groups[0].Conflict, winner)
	if err != nil {
		t.Fatal(err)
	}
	wantIDSet(t, "resolution accepted", res.Accepted, x30.ID, x31.ID)
	wantTuples(t, p1.Instance(), "F",
		core.Strs("mouse", "prot2", "immune"),
		core.Strs("rat", "prot1", "immune"))
	if !p1.Engine().Rejected(x21.ID) {
		t.Error("x21 should be rejected after resolution")
	}
}

// testAntecedentChasing verifies the §3.2 exception: p3 trusts only p2, but
// importing p2's revision pulls in p1's untrusted antecedent.
func testAntecedentChasing(t *testing.T, factory Factory) {
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
	pc, err := store.NewPeer(ctx, "pc", s, TrustOrigins(map[core.PeerID]int{"pb": 1}), clientFor("pc"))
	if err != nil {
		t.Fatal(err)
	}

	xa := mustEdit(t, pa, core.Insert("F", core.Strs("rat", "p1", "orig"), "pa"))
	mustCycle(t, pa)
	mustCycle(t, pb)
	xb := mustEdit(t, pb, core.Modify("F", core.Strs("rat", "p1", "orig"), core.Strs("rat", "p1", "revised"), "pb"))
	mustCycle(t, pb)

	res := mustCycle(t, pc)
	wantIDSet(t, "pc accepted", res.Accepted, xa.ID, xb.ID)
	wantTuples(t, pc.Instance(), "F", core.Strs("rat", "p1", "revised"))
}

func testUntrustedSkipped(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()
	pa, _ := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	pz, _ := store.NewPeer(ctx, "pz", s, TrustAll(1), clientFor("pz"))
	pq, err := store.NewPeer(ctx, "pq", s, TrustOrigins(map[core.PeerID]int{"pa": 1}), clientFor("pq"))
	if err != nil {
		t.Fatal(err)
	}
	mustEdit(t, pz, core.Insert("F", core.Strs("rat", "p1", "untrusted"), "pz"))
	mustCycle(t, pz)
	xa := mustEdit(t, pa, core.Insert("F", core.Strs("mouse", "p2", "trusted"), "pa"))
	mustCycle(t, pa)
	res := mustCycle(t, pq)
	wantIDSet(t, "pq accepted", res.Accepted, xa.ID)
	wantTuples(t, pq.Instance(), "F", core.Strs("mouse", "p2", "trusted"))
}

func testEmptyPublish(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()
	pa, err := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	if err != nil {
		t.Fatal(err)
	}
	// Publishing with nothing pending allocates no epoch.
	if _, err := pa.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := pa.Reconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted)+len(res.Rejected)+len(res.Deferred) != 0 {
		t.Errorf("empty reconcile: %+v", res)
	}
}

func testRecnoAdvances(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()
	pa, _ := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	for i := 0; i < 3; i++ {
		if _, err := pa.Reconcile(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := nextRecno(t, clientFor("pa"), "pa"); n != 4 {
		t.Errorf("next recno = %d, want 4", n)
	}
}

// testNoRedelivery: a transaction is associated with one reconciliation
// and never redelivered.
func testNoRedelivery(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()
	pa, _ := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	pb, _ := store.NewPeer(ctx, "pb", s, TrustAll(1), clientFor("pb"))
	mustEdit(t, pa, core.Insert("F", core.Strs("rat", "p1", "v"), "pa"))
	mustCycle(t, pa)
	res := mustCycle(t, pb)
	if len(res.Accepted) != 1 {
		t.Fatalf("first reconcile: %+v", res)
	}
	res = mustCycle(t, pb)
	if len(res.Accepted)+len(res.Rejected)+len(res.Deferred) != 0 {
		t.Errorf("redelivered: %+v", res)
	}
}

func testPriorityConflict(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()
	pa, _ := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	pb, _ := store.NewPeer(ctx, "pb", s, TrustAll(1), clientFor("pb"))
	pq, err := store.NewPeer(ctx, "pq", s, TrustOrigins(map[core.PeerID]int{"pa": 2, "pb": 1}), clientFor("pq"))
	if err != nil {
		t.Fatal(err)
	}
	xa := mustEdit(t, pa, core.Insert("F", core.Strs("rat", "p1", "high"), "pa"))
	mustCycle(t, pa)
	xb := mustEdit(t, pb, core.Insert("F", core.Strs("rat", "p1", "low"), "pb"))
	mustCycle(t, pb)
	res := mustCycle(t, pq)
	wantIDSet(t, "accepted", res.Accepted, xa.ID)
	wantIDSet(t, "rejected", res.Rejected, xb.ID)
	wantTuples(t, pq.Instance(), "F", core.Strs("rat", "p1", "high"))
}
