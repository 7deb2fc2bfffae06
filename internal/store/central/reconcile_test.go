package central

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
)

// oldExtension is the transaction extension as it was computed before
// candidates came in one block per begin: its own visited map, stack and
// slice per candidate, sorted with sort.Slice. It is the reference
// TestBeginWindowBlock holds the begin's candidates to.
func oldExtension(s *Store, root core.TxnID, pm *peerMeta) []*core.Transaction {
	visited := map[core.TxnID]bool{root: true}
	var out []*core.Transaction
	stack := []core.TxnID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		en := s.lookup(id)
		if en == nil {
			continue
		}
		if id != root {
			if d, _ := pm.decided.Get(id); d.Decision == core.DecisionAccept {
				continue
			}
		}
		out = append(out, en.pub.Txn)
		for _, a := range en.pub.Antecedents {
			if !visited[a] {
				visited[a] = true
				stack = append(stack, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// oldCandidates is the window's candidates for the peer, built the old way.
func oldCandidates(s *Store, peer core.PeerID, from, to core.Epoch) []*core.Candidate {
	pm, err := s.peer(peer)
	if err != nil {
		panic(err)
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	var out []*core.Candidate
	for en := range s.window(from, to) {
		x := en.pub.Txn
		if x.ID.Origin == peer {
			continue
		}
		if _, decided := pm.decided.Get(x.ID); decided {
			continue
		}
		if prio := core.TxnPriority(pm.trust, x); prio > 0 {
			out = append(out, &core.Candidate{Txn: x, Priority: prio, Ext: oldExtension(s, x.ID, pm)})
		}
	}
	return out
}

// TestBeginWindowBlock: a begin hands out its candidates as one block, each
// extension a capped window of one block of transactions, and they equal
// the old per-candidate build — order, priorities and extensions — over
// antecedent chains, a diamond, antecedents the peer accepted, rejected or
// has not seen decided, and an antecedent from before the store's history.
// An engine keeps nothing of the block: zeroing it after Reconcile leaves
// the conflict groups, and what Resolve then does, as they are for an
// engine that reconciled a copy.
func TestBeginWindowBlock(t *testing.T) {
	schema := storetest.Schema(t)
	s := MustOpenMemory(schema)
	defer s.Close()
	ctx := context.Background()
	trust := storetest.TrustOrigins(map[core.PeerID]int{"b": 2, "c": 2, "d": 1})
	for _, p := range []core.PeerID{"a", "b", "c", "d"} {
		if err := s.RegisterPeer(ctx, p, trust); err != nil {
			t.Fatal(err)
		}
	}
	seq := map[core.PeerID]uint64{}
	txn := func(peer core.PeerID, u core.Update, antes ...*core.Transaction) store.PublishedTxn {
		x := core.NewTransaction(core.TxnID{Origin: peer, Seq: seq[peer]}, u)
		seq[peer]++
		pt := store.PublishedTxn{Txn: x}
		for _, a := range antes {
			pt.Antecedents = append(pt.Antecedents, a.ID)
		}
		return pt
	}
	publish := func(peer core.PeerID, pts ...store.PublishedTxn) {
		t.Helper()
		if _, err := s.Publish(ctx, peer, pts); err != nil {
			t.Fatal(err)
		}
	}
	F := func(k, v string) core.Tuple { return core.Strs("rat", k, v) }
	e := core.NewEngine("a", schema, trust)
	begin := func() *store.Reconciliation {
		t.Helper()
		rec, err := s.BeginReconciliation(ctx, "a")
		if err != nil {
			t.Fatal(err)
		}
		want := oldCandidates(s, "a", rec.FromEpoch, rec.ToEpoch)
		if len(rec.Candidates) != len(want) {
			t.Fatalf("recno %d: %d candidates, the old build %d", rec.Recno, len(rec.Candidates), len(want))
		}
		for i, c := range rec.Candidates {
			w := want[i]
			if c.Txn != w.Txn || c.Priority != w.Priority || !slices.Equal(c.Ext, w.Ext) {
				t.Fatalf("recno %d candidate %d: %v prio %d ext %v, the old build %v prio %d ext %v",
					rec.Recno, i, c.Txn.ID, c.Priority, ids(c.Ext), w.Txn.ID, w.Priority, ids(w.Ext))
			}
			if cap(c.Ext) != len(c.Ext) {
				t.Fatalf("recno %d candidate %d: extension has room to grow into the next", rec.Recno, i)
			}
			if at := uintptr(unsafe.Pointer(c)); at != uintptr(unsafe.Pointer(rec.Candidates[0]))+uintptr(i)*unsafe.Sizeof(*c) {
				t.Fatalf("recno %d: candidate %d is not in the begin's block", rec.Recno, i)
			}
		}
		return rec
	}

	// Round 1: a accepts b0 and rejects d0 (b's key, lower priority).
	b0 := txn("b", core.Insert("F", F("k1", "v0"), "b"))
	publish("b", b0)
	d0 := txn("d", core.Insert("F", F("k1", "d"), "d"))
	publish("d", d0)
	// A twin engine reconciles copies of what a's engine reconciles.
	twin := core.NewEngine("a", schema, trust)
	twinReconcile := func(cands []*core.Candidate) *core.Result {
		t.Helper()
		var copies []*core.Candidate
		for _, c := range cands {
			copies = append(copies, &core.Candidate{Txn: c.Txn, Priority: c.Priority, Ext: slices.Clone(c.Ext)})
		}
		res, err := twin.Reconcile(copies)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rec := begin()
	twinReconcile(rec.Candidates)
	res, err := e.Reconcile(rec.Candidates)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Applied(b0.Txn.ID) || !e.Rejected(d0.Txn.ID) {
		t.Fatalf("round 1: applied %v rejected %v", res.Accepted, res.Rejected)
	}
	if err := s.RecordDecisions(ctx, "a", rec.Recno, res.Accepted, res.Rejected); err != nil {
		t.Fatal(err)
	}

	// Round 2: a chain over the accepted b0 (b1, b2), a rival of it over
	// b0 (c1), an unseen antecedent chain (c2, c3), a diamond over both
	// (b3), a txn over the rejected d0 (d1) and one over an antecedent the
	// store never saw (c4).
	b1 := txn("b", core.Modify("F", F("k1", "v0"), F("k1", "v1"), "b"), b0.Txn)
	b2 := txn("b", core.Modify("F", F("k1", "v1"), F("k1", "v2"), "b"), b1.Txn)
	publish("b", b1, b2)
	c1 := txn("c", core.Modify("F", F("k1", "v0"), F("k1", "w"), "c"), b0.Txn)
	c2 := txn("c", core.Insert("F", F("k2", "x"), "c"))
	c3 := txn("c", core.Modify("F", F("k2", "x"), F("k2", "y"), "c"), c2.Txn)
	publish("c", c1, c2, c3)
	b3 := txn("b", core.Insert("F", F("k3", "z"), "b"), b2.Txn, c3.Txn, b0.Txn)
	d1 := txn("d", core.Insert("F", F("k4", "d"), "d"), d0.Txn)
	ghost := core.NewTransaction(core.TxnID{Origin: "z", Seq: 9}, core.Insert("F", F("k9", "g"), "z"))
	c4 := txn("c", core.Insert("F", F("k5", "q"), "c"), ghost)
	publish("b", b3)
	publish("d", d1)
	publish("c", c4)
	rec = begin()
	if len(rec.Candidates) != 8 {
		t.Fatalf("round 2: %d candidates, want 8", len(rec.Candidates))
	}

	// The twin reconciles a copy; a's engine the block, then zeroed.
	want := twinReconcile(rec.Candidates)
	got, err := e.Reconcile(rec.Candidates)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "round 2", got, want)
	if len(e.ConflictGroups()) == 0 {
		t.Fatal("round 2 deferred nothing: the check below would test nothing")
	}
	for _, c := range rec.Candidates {
		clear(c.Ext)
		*c = core.Candidate{}
	}
	sameGroups(t, "after zeroing the block", e, twin)
	for len(twin.ConflictGroups()) > 0 {
		g := twin.ConflictGroups()[0]
		want, err := twin.Resolve(g.Conflict, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Resolve(g.Conflict, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "resolve "+g.Conflict.String(), got, want)
		sameGroups(t, "after resolve "+g.Conflict.String(), e, twin)
	}
	if !e.Instance().Equal(twin.Instance()) {
		t.Fatal("instances differ after the resolves")
	}
}

func ids(xs []*core.Transaction) []core.TxnID {
	out := make([]core.TxnID, len(xs))
	for i, x := range xs {
		out[i] = x.ID
	}
	return out
}

func sameResult(t *testing.T, what string, got, want *core.Result) {
	t.Helper()
	if !slices.Equal(got.Accepted, want.Accepted) || !slices.Equal(got.Rejected, want.Rejected) || !slices.Equal(got.Deferred, want.Deferred) {
		t.Fatalf("%s: accepted %v rejected %v deferred %v, twin %v %v %v",
			what, got.Accepted, got.Rejected, got.Deferred, want.Accepted, want.Rejected, want.Deferred)
	}
}

func sameGroups(t *testing.T, what string, e, twin *core.Engine) {
	t.Helper()
	got, want := e.ConflictGroups(), twin.ConflictGroups()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, twin %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("%s: group %s, twin %s", what, got[i], want[i])
		}
	}
	if !slices.Equal(e.DeferredIDs(), twin.DeferredIDs()) {
		t.Fatalf("%s: deferred %v, twin %v", what, e.DeferredIDs(), twin.DeferredIDs())
	}
}

// TestWindowMatchesIndexWalk: the two walks of the published log agree.
// window reads each epoch's own entry list, entriesIn the index;
// for every window (from, to] they must yield the same entries, the same
// pointers, in the global order — with an epoch held open (window copies
// its list under the epoch lock), after a reopen (the lists are rebuilt
// from the txns table), and above the horizon after a snapshot and a
// compaction. replayCandidatesLocked relies on it.
func TestWindowMatchesIndexWalk(t *testing.T) {
	schema := storetest.Schema(t)
	dir := t.TempDir()
	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	ctx := context.Background()
	peers := []core.PeerID{"pa", "pb", "pc"}
	register := func() {
		t.Helper()
		for _, p := range peers {
			if err := s.RegisterPeer(ctx, p, storetest.TrustAll(1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	register()
	rng := rand.New(rand.NewSource(1))
	seq := map[core.PeerID]uint64{}
	batch := func(peer core.PeerID) []store.PublishedTxn {
		pts := make([]store.PublishedTxn, 1+rng.Intn(3))
		for i := range pts {
			id := core.TxnID{Origin: peer, Seq: seq[peer]}
			seq[peer]++
			pts[i].Txn = core.NewTransaction(id,
				core.Insert("F", core.Strs(string(peer), fmt.Sprint("p", id.Seq), "fn"), peer))
		}
		return pts
	}
	publish := func(n int) {
		t.Helper()
		for range n {
			p := peers[rng.Intn(len(peers))]
			if _, err := s.Publish(ctx, p, batch(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(stage string, lo core.Epoch) {
		t.Helper()
		hi := s.maxEpoch()
		walked := 0
		for from := lo; from < hi; from++ {
			for to := from + 1; to <= hi; to++ {
				got := slices.Collect(s.window(from, to))
				want := s.entriesIn(from, to)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: window (%d, %d] yields %d entries, the index %d", stage, from, to, len(got), len(want))
				}
				walked += len(got)
			}
		}
		if walked == 0 {
			t.Fatalf("%s: no window above epoch %d holds an entry", stage, lo)
		}
	}

	publish(6)
	open, err := s.allocEpoch()
	if err != nil {
		t.Fatal(err)
	}
	publish(6)
	check("open epoch", 0)
	if err := s.publishWrite("pb", open, batch("pb"), ""); err != nil {
		t.Fatal(err)
	}
	check("closed epoch", 0)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(schema, dir); err != nil {
		t.Fatal(err)
	}
	register()
	check("reopened", 0)

	for _, p := range peers {
		if _, err := s.BeginReconciliation(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	h, err := s.Snapshot(ctx)
	if err != nil || h == 0 {
		t.Fatalf("snapshot: %d, %v", h, err)
	}
	if err := s.CompactBefore(ctx, h); err != nil {
		t.Fatal(err)
	}
	publish(8)
	check("compacted", h)
}
