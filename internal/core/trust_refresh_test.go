package core

import "testing"

// TestRefreshTrustRepricesDeferred: a mid-stream trust change re-prices
// the carried deferred candidates without replaying history; the next
// reconciliation resolves the conflict under the new priorities with no
// fresh candidates delivered.
func TestRefreshTrustRepricesDeferred(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	q := NewEngine("q", s, TrustAll(1))
	a := NewEngine("a", s, TrustAll(1))
	b := NewEngine("b", s, TrustAll(1))

	xa := mustLocal(t, a, Insert("F", Strs("rat", "p1", "va"), "a"))
	xb := mustLocal(t, b, Insert("F", Strs("rat", "p1", "vb"), "b"))
	log.publish(xa, xb)
	res := log.reconcile(q)
	wantIDs(t, "deferred", res.Deferred, xa.ID, xb.ID)

	// Raise a above b: xa's priority changes (1→2), xb's does not.
	if changed := q.RefreshTrust(TrustOrigins(map[PeerID]int{"a": 2, "b": 1})); changed != 1 {
		t.Fatalf("changed = %d, want 1", changed)
	}
	res = log.reconcile(q) // empty fetch: only carried candidates
	wantIDs(t, "accepted after refresh", res.Accepted, xa.ID)
	wantIDs(t, "rejected after refresh", res.Rejected, xb.ID)
	wantIDs(t, "deferred after refresh", res.Deferred)
	wantTuples(t, q.Instance(), "F", Strs("rat", "p1", "va"))
}

// TestRefreshTrustUntrustedFallsOut: a deferred candidate whose author
// becomes untrusted drops to priority 0 and silently leaves the candidate
// set at the next run — no reject is recorded, matching a candidate that
// was never relevant.
func TestRefreshTrustUntrustedFallsOut(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	q := NewEngine("q", s, TrustAll(1))
	a := NewEngine("a", s, TrustAll(1))
	b := NewEngine("b", s, TrustAll(1))

	xa := mustLocal(t, a, Insert("F", Strs("rat", "p1", "va"), "a"))
	xb := mustLocal(t, b, Insert("F", Strs("rat", "p1", "vb"), "b"))
	log.publish(xa, xb)
	log.reconcile(q) // defers both

	// b becomes untrusted entirely: xb's copy drops to 0, xa stays 1.
	if changed := q.RefreshTrust(TrustOrigins(map[PeerID]int{"a": 1})); changed != 1 {
		t.Fatalf("changed = %d, want 1", changed)
	}
	res := log.reconcile(q)
	wantIDs(t, "accepted", res.Accepted, xa.ID)
	wantIDs(t, "rejected", res.Rejected)
	wantIDs(t, "deferred", res.Deferred)
	if ids := q.DeferredIDs(); len(ids) != 0 {
		t.Errorf("untrusted candidate still carried: %v", ids)
	}
}

// TestRefreshTrustNoHistoryReplay: accepted state is immutable under a
// trust change ("once an update has been accepted ... it will not be
// rolled back") — distrusting an author does not un-apply its past
// transactions.
func TestRefreshTrustNoHistoryReplay(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	q := NewEngine("q", s, TrustAll(1))
	a := NewEngine("a", s, TrustAll(1))

	xa := mustLocal(t, a, Insert("F", Strs("rat", "p1", "va"), "a"))
	log.publish(xa)
	res := log.reconcile(q)
	wantIDs(t, "accepted", res.Accepted, xa.ID)

	if changed := q.RefreshTrust(TrustOrigins(map[PeerID]int{"z": 1})); changed != 0 {
		t.Fatalf("changed = %d, want 0 (no deferred candidates)", changed)
	}
	if !q.Applied(xa.ID) {
		t.Error("accepted transaction rolled back by trust change")
	}
	wantTuples(t, q.Instance(), "F", Strs("rat", "p1", "va"))
}

// TestSetTrustInvalidatesCache: replacing the policy takes effect on the
// next price — nothing priced under the old policy is served after it.
func TestSetTrustInvalidatesCache(t *testing.T) {
	s := proteinSchema(t)
	q := NewEngine("q", s, TrustOrigins(map[PeerID]int{"a": 1}))
	x := NewTransaction(TxnID{Origin: "a", Seq: 1}, Insert("F", Strs("r", "p", "f"), "a"))
	if got := q.TxnPriority(x); got != 1 {
		t.Fatalf("priority = %d", got)
	}
	q.SetTrust(TrustOrigins(map[PeerID]int{"a": 5}))
	if got := q.TxnPriority(x); got != 5 {
		t.Fatalf("post-SetTrust priority = %d (stale cache?)", got)
	}
	q.SetTrust(TrustOrigins(map[PeerID]int{"b": 1}))
	if got := q.TxnPriority(x); got != 0 {
		t.Fatalf("post-distrust priority = %d (stale cache?)", got)
	}
}
