package core

import (
	"reflect"
	"testing"
)

// engineStateEqual compares the durable engine state the snapshot is meant
// to carry: instance, decided sets, provenance, and the local sequence.
func engineStateEqual(t *testing.T, what string, a, b *Engine) {
	t.Helper()
	if !a.Instance().Equal(b.Instance()) {
		t.Errorf("%s: instances differ", what)
	}
	if !reflect.DeepEqual(a.applied.Sorted(), b.applied.Sorted()) {
		t.Errorf("%s: applied sets differ: %v vs %v", what, a.applied.Sorted(), b.applied.Sorted())
	}
	if !reflect.DeepEqual(a.rejected.Sorted(), b.rejected.Sorted()) {
		t.Errorf("%s: rejected sets differ: %v vs %v", what, a.rejected.Sorted(), b.rejected.Sorted())
	}
	if !reflect.DeepEqual(a.ExportSnapshot().Relations, b.ExportSnapshot().Relations) {
		t.Errorf("%s: rows or producers differ", what)
	}
	if a.nextSeq != b.nextSeq {
		t.Errorf("%s: nextSeq %d vs %d", what, a.nextSeq, b.nextSeq)
	}
}

// TestEngineSnapshotRoundTrip: exporting and re-importing an engine's
// snapshot reproduces the durable state exactly — including provenance, so
// the restored engine computes the same antecedents for new local edits.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	pa := NewEngine("a", s, TrustAll(1))
	pq := NewEngine("q", s, TrustAll(1))

	xa0 := mustLocal(t, pa, Insert("F", Strs("rat", "p1", "v0"), "a"))
	xa1 := mustLocal(t, pa, Modify("F", Strs("rat", "p1", "v0"), Strs("rat", "p1", "v1"), "a"))
	log.publish(xa0, xa1)
	log.reconcile(pq)
	xq0 := mustLocal(t, pq, Insert("F", Strs("mouse", "p2", "w"), "q"))
	log.publish(xq0)

	snap := pq.ExportSnapshot()
	back, err := NewEngineFromSnapshot(s, TrustAll(1), snap)
	if err != nil {
		t.Fatal(err)
	}
	engineStateEqual(t, "round trip", pq, back)

	// The re-exported snapshot is canonical: byte-for-byte the same value.
	if !reflect.DeepEqual(snap, back.ExportSnapshot()) {
		t.Error("re-exported snapshot differs from the original")
	}

	// Provenance round-trips: a new local edit computes the same
	// antecedents on both engines, and the local sequence continues.
	for _, e := range []*Engine{pq, back} {
		x, antes, err := e.NewLocalTransaction(Modify("F", Strs("rat", "p1", "v1"), Strs("rat", "p1", "v2"), "q"))
		if err != nil {
			t.Fatal(err)
		}
		if x.ID.Seq != xq0.ID.Seq+1 {
			t.Errorf("%p: next seq = %d, want %d", e, x.ID.Seq, xq0.ID.Seq+1)
		}
		if len(antes) != 1 || antes[0] != xa1.ID {
			t.Errorf("antecedents after restore = %v, want [%s]", antes, xa1.ID)
		}
	}

	// An unknown relation in the snapshot is rejected.
	bad := *snap
	bad.Relations = append(bad.Relations, RelationSnapshot{Name: "nope", Rows: []RowSnapshot{{Tuple: Strs("x")}}})
	if _, err := NewEngineFromSnapshot(s, TrustAll(1), &bad); err == nil {
		t.Error("snapshot with unknown relation accepted")
	}
}

// TestRestoreTailEquivalence: restoring from a snapshot of a log prefix and
// replaying only the tail must land on exactly the state a full replay
// produces — including a tail modify whose insert lives in the prefix, and
// a tail rejection.
func TestRestoreTailEquivalence(t *testing.T) {
	s := proteinSchema(t)
	x1 := NewTransaction(xid("a", 0), Insert("F", Strs("rat", "p1", "v1"), "a"))
	x1.Order = 1
	x2 := NewTransaction(xid("me", 3), Insert("F", Strs("mouse", "p2", "w"), "me"))
	x2.Order = 2
	x3 := NewTransaction(xid("b", 0), Modify("F", Strs("rat", "p1", "v1"), Strs("rat", "p1", "v2"), "b"))
	x3.Order = 3
	x4 := NewTransaction(xid("c", 0), Insert("F", Strs("rat", "p1", "zz"), "c"))
	x4.Order = 4
	x5 := NewTransaction(xid("me", 4), Insert("F", Strs("dog", "p3", "q"), "me"))
	x5.Order = 5

	full := []LoggedTxn{{Txn: x1}, {Txn: x2}, {Txn: x3, Antecedents: []TxnID{x1.ID}}, {Txn: x4}, {Txn: x5}}
	decisions := map[TxnID]RestoredDecision{
		x1.ID: {Decision: DecisionAccept, Seq: 1},
		x2.ID: {Decision: DecisionAccept, Seq: 2},
		x3.ID: {Decision: DecisionAccept, Seq: 3},
		x4.ID: {Decision: DecisionReject, Seq: 4},
		x5.ID: {Decision: DecisionAccept, Seq: 5},
	}

	fullEng := NewEngine("me", s, TrustAll(1))
	if err := fullEng.RestoreTail(full, decisions); err != nil {
		t.Fatal(err)
	}

	// Snapshot after seq 2 (x1, x2 folded in), tail = everything after.
	prefixEng := NewEngine("me", s, TrustAll(1))
	prefixDecs := map[TxnID]RestoredDecision{x1.ID: decisions[x1.ID], x2.ID: decisions[x2.ID]}
	if err := prefixEng.RestoreTail(full[:2], prefixDecs); err != nil {
		t.Fatal(err)
	}
	tailEng, err := NewEngineFromSnapshot(s, TrustAll(1), prefixEng.ExportSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	tailDecs := map[TxnID]RestoredDecision{
		x3.ID: decisions[x3.ID], x4.ID: decisions[x4.ID], x5.ID: decisions[x5.ID],
	}
	// Overlapping log entries (the full log, not just the tail) must be
	// harmless: already-decided transactions are skipped.
	if err := tailEng.RestoreTail(full, tailDecs); err != nil {
		t.Fatal(err)
	}
	engineStateEqual(t, "snapshot+tail vs full replay", fullEng, tailEng)
	wantTuples(t, tailEng.Instance(), "F",
		Strs("rat", "p1", "v2"), Strs("mouse", "p2", "w"), Strs("dog", "p3", "q"))
	if !tailEng.Rejected(x4.ID) {
		t.Error("tail rejection lost")
	}

	// Both engines keep reconciling identically.
	for _, e := range []*Engine{fullEng, tailEng} {
		x := NewTransaction(xid("d", 0), Insert("F", Strs("cat", "p4", "n"), "d"))
		x.Order = 6
		res, err := e.Reconcile([]*Candidate{{Txn: x, Priority: 1, Ext: []*Transaction{x}}})
		if err != nil {
			t.Fatal(err)
		}
		wantIDs(t, "continued accepts", res.Accepted, x.ID)
	}
	engineStateEqual(t, "after continued reconcile", fullEng, tailEng)
}
