package core

import "testing"

// TestPriorityResolvesConflict: conflicting updates at different priorities
// resolve automatically in favour of the higher priority.
func TestPriorityResolvesConflict(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	// q trusts a at 2, b at 1.
	q := NewEngine("q", s, TrustOrigins(map[PeerID]int{"a": 2, "b": 1}))
	a := NewEngine("a", s, TrustAll(1))
	b := NewEngine("b", s, TrustAll(1))

	xa := mustLocal(t, a, Insert("F", Strs("rat", "p1", "high"), "a"))
	xb := mustLocal(t, b, Insert("F", Strs("rat", "p1", "low"), "b"))
	log.publish(xa, xb)

	res := log.reconcile(q)
	wantIDs(t, "accepted", res.Accepted, xa.ID)
	wantIDs(t, "rejected", res.Rejected, xb.ID)
	wantIDs(t, "deferred", res.Deferred)
	wantTuples(t, q.Instance(), "F", Strs("rat", "p1", "high"))
}

// TestEqualPriorityDefers: equal-priority conflicts defer both sides and
// record a conflict group with two options.
func TestEqualPriorityDefers(t *testing.T) {
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
	if gs := q.ConflictGroups(); len(gs) != 1 || len(gs[0].Options) != 2 {
		t.Fatalf("groups = %v", gs)
	}
	if q.DirtyKeyCount() == 0 {
		t.Error("deferred conflict should mark dirty keys")
	}
}

// TestDirtyValueDefersLaterTransactions: a new transaction touching a dirty
// key is deferred even without a direct conflict among the new arrivals.
func TestDirtyValueDefersLaterTransactions(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	q := NewEngine("q", s, TrustAll(1))
	a := NewEngine("a", s, TrustAll(1))
	b := NewEngine("b", s, TrustAll(1))

	xa := mustLocal(t, a, Insert("F", Strs("rat", "p1", "va"), "a"))
	xb := mustLocal(t, b, Insert("F", Strs("rat", "p1", "vb"), "b"))
	log.publish(xa, xb)
	log.reconcile(q) // defers both

	// A later insert with the same key (and the same value as xa!) must be
	// deferred, not accepted, while the conflict is unresolved.
	c := NewEngine("c", s, TrustAll(1))
	xc := mustLocal(t, c, Insert("F", Strs("rat", "p1", "va"), "c"))
	log.publish(xc)
	res := log.reconcile(q)
	wantIDs(t, "deferred after dirty", res.Deferred, xa.ID, xb.ID, xc.ID)
	wantIDs(t, "accepted after dirty", res.Accepted)
}

// TestRejectionCascade: a transaction whose extension contains a rejected
// transaction is rejected.
func TestRejectionCascade(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	q := NewEngine("q", s, TrustAll(1))
	a := NewEngine("a", s, TrustAll(1))
	b := NewEngine("b", s, TrustAll(1))

	// q's own state claims (rat, p1) -> local.
	mustLocal(t, q, Insert("F", Strs("rat", "p1", "local"), "q"))

	// a inserts a conflicting tuple; b then modifies a's tuple.
	xa := mustLocal(t, a, Insert("F", Strs("rat", "p1", "remote"), "a"))
	log.publish(xa)
	// b imports a's tuple first (so its modify makes sense at b).
	log.reconcile(b)
	xb := mustLocal(t, b, Modify("F", Strs("rat", "p1", "remote"), Strs("rat", "p1", "remote2"), "b"))
	log.publish(xb)

	// First reconciliation: xa incompatible with q's instance -> rejected;
	// xb's extension contains xa -> rejected (possibly in the same run).
	res := log.reconcile(q)
	wantIDs(t, "rejected", res.Rejected, xa.ID, xb.ID)
	wantTuples(t, q.Instance(), "F", Strs("rat", "p1", "local"))

	// And anything later that builds on the rejected chain is rejected too.
	c := NewEngine("c", s, TrustAll(1))
	log.reconcile(c)
	xc := mustLocal(t, c, Modify("F", Strs("rat", "p1", "remote2"), Strs("rat", "p1", "remote3"), "c"))
	log.publish(xc)
	res = log.reconcile(q)
	wantIDs(t, "cascade rejected", res.Rejected, xc.ID)
}

// TestTransitiveAcceptanceOfUntrustedAntecedents: p3 only trusts p2, but
// when p2 revises data that originated at p1, p3 transitively accepts the
// p1 portion (the §3.2 exception).
func TestTransitiveAcceptanceOfUntrustedAntecedents(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	p1 := NewEngine("p1", s, TrustAll(1))
	p2 := NewEngine("p2", s, TrustAll(1))
	p3 := NewEngine("p3", s, TrustOrigins(map[PeerID]int{"p2": 1})) // does not trust p1

	x1 := mustLocal(t, p1, Insert("F", Strs("rat", "p1", "orig"), "p1"))
	log.publish(x1)
	log.reconcile(p2)
	x2 := mustLocal(t, p2, Modify("F", Strs("rat", "p1", "orig"), Strs("rat", "p1", "revised"), "p2"))
	log.publish(x2)

	res := log.reconcile(p3)
	// Both p1's insert (as antecedent) and p2's revision are applied.
	wantIDs(t, "accepted", res.Accepted, x1.ID, x2.ID)
	wantTuples(t, p3.Instance(), "F", Strs("rat", "p1", "revised"))

	// But p1's *other* unrelated transactions are not accepted.
	y1 := mustLocal(t, p1, Insert("F", Strs("mouse", "p2", "solo"), "p1"))
	log.publish(y1)
	res = log.reconcile(p3)
	wantIDs(t, "accepted unrelated", res.Accepted)
	if p3.Instance().Len("F") != 1 {
		t.Errorf("untrusted unrelated txn leaked into instance")
	}
}

// TestLeastInteraction: §3.1 — q makes a conflicting modification but
// revises it away before p imports; p must consider the sequence compatible.
func TestLeastInteraction(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	p := NewEngine("p", s, TrustAll(1))
	q := NewEngine("q", s, TrustAll(1))

	// p's local state: (mouse, prot2) -> immune (like X2:0).
	mustLocal(t, p, Insert("F", Strs("mouse", "prot2", "immune"), "p"))

	// q inserts a conflicting tuple then revises it to a different key
	// (the paper's X3:2/X3:3 example).
	x32 := mustLocal(t, q, Insert("F", Strs("mouse", "prot2", "cell-resp"), "q"))
	x33 := mustLocal(t, q, Modify("F", Strs("mouse", "prot2", "cell-resp"), Strs("mouse", "prot3", "cell-resp"), "q"))
	log.publish(x32, x33)

	res := log.reconcile(p)
	// The flattened chain +F(mouse, prot3, cell-resp) does not conflict
	// with p's state: accepted.
	wantIDs(t, "accepted", res.Accepted, x32.ID, x33.ID)
	wantTuples(t, p.Instance(), "F",
		Strs("mouse", "prot2", "immune"),
		Strs("mouse", "prot3", "cell-resp"))
}

// TestOwnDeltaWins: the reconciling participant always picks its own version
// first, even when its own update is a deletion (which leaves nothing in the
// instance for the compatibility check to trip on).
func TestOwnDeltaWins(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	p := NewEngine("p", s, TrustAll(1))
	q := NewEngine("q", s, TrustAll(1))

	// Shared history: q publishes a tuple, p imports it.
	xq := mustLocal(t, q, Insert("F", Strs("rat", "p1", "shared"), "q"))
	log.publish(xq)
	log.reconcile(p)
	wantTuples(t, p.Instance(), "F", Strs("rat", "p1", "shared"))

	// p deletes it locally; q replaces it concurrently.
	mustLocal(t, p, Delete("F", Strs("rat", "p1", "shared"), "p"))
	xq2 := mustLocal(t, q, Modify("F", Strs("rat", "p1", "shared"), Strs("rat", "p1", "replaced"), "q"))
	log.publish(xq2)

	res := log.reconcile(p)
	wantIDs(t, "rejected", res.Rejected, xq2.ID)
	if p.Instance().Len("F") != 0 {
		t.Errorf("p's deletion should win: %v", p.Instance().Tuples("F"))
	}
}

// TestMonotonicity: accepted updates are never rolled back by later
// reconciliations, even when contradicting updates arrive afterwards.
func TestMonotonicity(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	p := NewEngine("p", s, TrustAll(1))
	a := NewEngine("a", s, TrustAll(1))
	b := NewEngine("b", s, TrustAll(1))

	xa := mustLocal(t, a, Insert("F", Strs("rat", "p1", "first"), "a"))
	log.publish(xa)
	log.reconcile(p)
	wantTuples(t, p.Instance(), "F", Strs("rat", "p1", "first"))

	// A conflicting insert arrives later: rejected, not rolled back, even
	// at a higher trust priority (priorities only arbitrate conflicts
	// between candidates of the same reconciliation).
	p.SetTrust(TrustOrigins(map[PeerID]int{"a": 1, "b": 5}))
	xb := mustLocal(t, b, Insert("F", Strs("rat", "p1", "second"), "b"))
	log.publish(xb)
	res := log.reconcile(p)
	wantIDs(t, "rejected", res.Rejected, xb.ID)
	wantTuples(t, p.Instance(), "F", Strs("rat", "p1", "first"))
}

// TestHigherPriorityDeferredDefersLower: a lower-priority transaction that
// conflicts with a higher-priority *deferred* transaction is deferred, not
// rejected (DoGroup lines 8-9).
func TestHigherPriorityDeferredDefersLower(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	q := NewEngine("q", s, TrustOrigins(map[PeerID]int{"a": 2, "b": 2, "c": 1}))
	a := NewEngine("a", s, TrustAll(1))
	b := NewEngine("b", s, TrustAll(1))
	c := NewEngine("c", s, TrustAll(1))

	xa := mustLocal(t, a, Insert("F", Strs("rat", "p1", "va"), "a"))
	xb := mustLocal(t, b, Insert("F", Strs("rat", "p1", "vb"), "b"))
	xc := mustLocal(t, c, Insert("F", Strs("rat", "p1", "vc"), "c"))
	log.publish(xa, xb, xc)

	res := log.reconcile(q)
	// xa and xb (priority 2) conflict: both deferred. xc (priority 1)
	// conflicts with both deferred higher-priority txns: deferred.
	wantIDs(t, "deferred", res.Deferred, xa.ID, xb.ID, xc.ID)
	wantIDs(t, "rejected", res.Rejected)
}

// TestLowerPriorityRejectedAgainstAccepted: a lower-priority transaction
// conflicting with an accepted higher-priority one is rejected (DoGroup
// lines 6-7).
func TestLowerPriorityRejectedAgainstAccepted(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	q := NewEngine("q", s, TrustOrigins(map[PeerID]int{"a": 2, "c": 1}))
	a := NewEngine("a", s, TrustAll(1))
	c := NewEngine("c", s, TrustAll(1))

	xa := mustLocal(t, a, Insert("F", Strs("rat", "p1", "va"), "a"))
	xc := mustLocal(t, c, Insert("F", Strs("rat", "p1", "vc"), "c"))
	log.publish(xa, xc)

	res := log.reconcile(q)
	wantIDs(t, "accepted", res.Accepted, xa.ID)
	wantIDs(t, "rejected", res.Rejected, xc.ID)
	wantTuples(t, q.Instance(), "F", Strs("rat", "p1", "va"))
}

// TestUntrustedTransactionNeverConsidered: priority-0 transactions are not
// candidates and leave no trace.
func TestUntrustedTransactionNeverConsidered(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	q := NewEngine("q", s, TrustOrigins(map[PeerID]int{"a": 1}))
	a := NewEngine("a", s, TrustAll(1))
	z := NewEngine("z", s, TrustAll(1))

	xz := mustLocal(t, z, Insert("F", Strs("rat", "p1", "untrusted"), "z"))
	xa := mustLocal(t, a, Insert("F", Strs("mouse", "p2", "trusted"), "a"))
	log.publish(xz, xa)

	res := log.reconcile(q)
	wantIDs(t, "accepted", res.Accepted, xa.ID)
	if q.Applied(xz.ID) || q.Rejected(xz.ID) {
		t.Error("untrusted txn should be undecided")
	}
	wantTuples(t, q.Instance(), "F", Strs("mouse", "p2", "trusted"))
}

// TestLocalTransactionValidation: incompatible local edits are refused.
func TestLocalTransactionValidation(t *testing.T) {
	s := proteinSchema(t)
	p := NewEngine("p", s, TrustAll(1))
	mustLocal(t, p, Insert("F", Strs("rat", "p1", "a"), "p"))
	if _, _, err := p.NewLocalTransaction(Insert("F", Strs("rat", "p1", "b"), "p")); err == nil {
		t.Error("conflicting local insert should fail")
	}
	if _, _, err := p.NewLocalTransaction(Insert("F", Strs("bad"), "p")); err == nil {
		t.Error("invalid tuple should fail")
	}
	if _, _, err := p.NewLocalTransaction(); err == nil {
		t.Error("empty transaction should fail")
	}
	// Sequence numbers increase.
	x1 := mustLocal(t, p, Insert("F", Strs("a", "b", "c"), "p"))
	x2 := mustLocal(t, p, Insert("F", Strs("d", "e", "f"), "p"))
	if x2.ID.Seq != x1.ID.Seq+1 {
		t.Errorf("sequence numbers not increasing: %v %v", x1.ID, x2.ID)
	}
}

// TestStatsPopulated: reconciliation stats reflect the work done.
func TestStatsPopulated(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	q := NewEngine("q", s, TrustAll(1))
	a := NewEngine("a", s, TrustAll(1))
	b := NewEngine("b", s, TrustAll(1))
	xa := mustLocal(t, a, Insert("F", Strs("rat", "p1", "va"), "a"))
	xb := mustLocal(t, b, Insert("F", Strs("rat", "p1", "vb"), "b"))
	log.publish(xa, xb)
	res := log.reconcile(q)
	if res.Stats.Candidates != 2 || res.Stats.ConflictsFound != 1 || res.Stats.DirtyKeys == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
	res = log.reconcile(q)
	if res.Stats.DeferredCarried != 2 {
		t.Errorf("carried stats = %+v", res.Stats)
	}
}

// TestResolveErrors: resolving unknown groups or out-of-range winners fails.
func TestResolveErrors(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	q := NewEngine("q", s, TrustAll(1))
	a := NewEngine("a", s, TrustAll(1))
	b := NewEngine("b", s, TrustAll(1))
	xa := mustLocal(t, a, Insert("F", Strs("rat", "p1", "va"), "a"))
	xb := mustLocal(t, b, Insert("F", Strs("rat", "p1", "vb"), "b"))
	log.publish(xa, xb)
	log.reconcile(q)

	if _, err := q.Resolve(Conflict{Type: ConflictKeyValue, Rel: "F", Value: "nope"}, 0); err == nil {
		t.Error("unknown group should fail")
	}
	g := q.ConflictGroups()[0]
	if _, err := q.Resolve(g.Conflict, 99); err == nil {
		t.Error("out-of-range winner should fail")
	}
	if _, err := q.Resolve(g.Conflict, -2); err == nil {
		t.Error("winner below -1 should fail")
	}
}

// TestResolveAll resolves every group via a chooser.
func TestResolveAll(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	q := NewEngine("q", s, TrustAll(1))
	a := NewEngine("a", s, TrustAll(1))
	b := NewEngine("b", s, TrustAll(1))
	xa := mustLocal(t, a,
		Insert("F", Strs("rat", "p1", "va"), "a"),
		Insert("F", Strs("dog", "p3", "da"), "a"))
	xb := mustLocal(t, b,
		Insert("F", Strs("rat", "p1", "vb"), "b"),
		Insert("F", Strs("dog", "p3", "db"), "b"))
	log.publish(xa, xb)
	log.reconcile(q)

	// Two conflict groups (rat/p1 and dog/p3) between the same pair of
	// transactions. Always pick option 0.
	res, err := q.ResolveAll(func(g *ConflictGroup) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no resolution happened")
	}
	if len(q.ConflictGroups()) != 0 {
		t.Errorf("groups remain: %v", q.ConflictGroups())
	}
	// One of the two transactions won both groups (options are whole
	// transactions here); exactly 2 tuples present.
	if q.Instance().Len("F") != 2 {
		t.Errorf("instance = %v", q.Instance().Tuples("F"))
	}
}

// TestReconcileEmptyRun: reconciling with nothing published is a no-op.
func TestReconcileEmptyRun(t *testing.T) {
	s := proteinSchema(t)
	q := NewEngine("q", s, TrustAll(1))
	res, err := q.Reconcile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted)+len(res.Rejected)+len(res.Deferred) != 0 {
		t.Errorf("res = %+v", res)
	}
	if q.Recno() != 1 {
		t.Errorf("recno = %d", q.Recno())
	}
}
