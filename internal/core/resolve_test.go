package core

import (
	"testing"
)

// handTxn builds a published transaction by hand, for scenarios the
// antecedent graph of the test log cannot produce (two transactions
// consuming the same antecedent value).
func handTxn(origin PeerID, order uint64, us ...Update) *Transaction {
	x := NewTransaction(TxnID{Origin: origin, Seq: 0}, us...)
	x.Order = order
	return x
}

// handCand is a priority-1 candidate for x whose extension is the given
// unapplied antecedents followed by x.
func handCand(x *Transaction, antecedents ...*Transaction) *Candidate {
	return &Candidate{Txn: x, Priority: 1, Ext: append(antecedents, x)}
}

func fTuple(prot, fn string) Tuple { return Strs("o", prot, fn) }

// TestResolveMinusOneRejectsEveryOption pins the chooser contract of
// ResolveAll and Resolve: -1 is not "no choice", it rejects every
// transaction of every option of the group.
func TestResolveMinusOneRejectsEveryOption(t *testing.T) {
	s := proteinSchema(t)
	q := NewEngine("q", s, TrustAll(1))
	a := handTxn("a", 1, Insert("F", fTuple("k", "a"), "a"))
	b := handTxn("b", 2, Insert("F", fTuple("k", "b"), "b"))
	c := handTxn("c", 3, Insert("F", fTuple("k", "c"), "c"))
	res, err := q.Reconcile([]*Candidate{handCand(a), handCand(b), handCand(c)})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, "deferred", res.Deferred, a.ID, b.ID, c.ID)
	if gs := q.ConflictGroups(); len(gs) != 1 || len(gs[0].Options) != 3 {
		t.Fatalf("want one group of three options, got %v", gs)
	}
	chosen := 0
	res, err = q.ResolveAll(func(g *ConflictGroup) int {
		chosen++
		return -1
	})
	if err != nil {
		t.Fatal(err)
	}
	if chosen != 1 {
		t.Errorf("chooser consulted %d times, want once", chosen)
	}
	wantIDs(t, "rejected", res.Rejected, a.ID, b.ID, c.ID)
	wantIDs(t, "accepted", res.Accepted)
	wantIDs(t, "deferred after", res.Deferred)
	for _, x := range []*Transaction{a, b, c} {
		if !q.Rejected(x.ID) {
			t.Errorf("%s not rejected", x.ID)
		}
	}
	if n := len(q.ConflictGroups()); n != 0 || q.DirtyKeyCount() != 0 {
		t.Errorf("soft state not cleared: %d groups, %d dirty keys", n, q.DirtyKeyCount())
	}
	if q.Instance().TotalLen() != 0 {
		t.Errorf("instance should be empty, has %d tuples", q.Instance().TotalLen())
	}
}

// TestResolveAllStopsWhenAPassDecidesNothing: two extensions that conflict
// only over a value their shared antecedent supplies form a group of one
// option (neither flattened operation touches the value), so choosing it
// rejects no one. ResolveAll must come back instead of resolving the same
// group for ever.
func TestResolveAllStopsWhenAPassDecidesNothing(t *testing.T) {
	s := proteinSchema(t)
	q := NewEngine("q", s, TrustAll(1))
	v := fTuple("k1", "v")
	sx := handTxn("s", 1, Insert("F", v, "s"))
	a := handTxn("a", 2, Modify("F", v, fTuple("k2", "a"), "a"), Insert("F", fTuple("k4", "z"), "a"))
	b := handTxn("b", 3, Modify("F", v, fTuple("k3", "b"), "b"), Insert("F", fTuple("k4", "z"), "b"))
	res, err := q.Reconcile([]*Candidate{handCand(a, sx), handCand(b, sx)})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, "deferred", res.Deferred, a.ID, b.ID)
	if gs := q.ConflictGroups(); len(gs) != 1 || len(gs[0].Options) != 1 {
		t.Fatalf("want one group of one option, got %v", gs)
	}
	res, err = q.ResolveAll(func(*ConflictGroup) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, "still deferred", res.Deferred, a.ID, b.ID)
	if len(q.ConflictGroups()) != 1 {
		t.Fatalf("the group should remain, got %v", q.ConflictGroups())
	}
	// Rejecting the option is the way out.
	res, err = q.ResolveAll(func(*ConflictGroup) int { return -1 })
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, "rejected", res.Rejected, a.ID, b.ID)
	if len(q.ConflictGroups()) != 0 || len(q.DeferredIDs()) != 0 {
		t.Errorf("not drained: %v, deferred %v", q.ConflictGroups(), q.DeferredIDs())
	}
}

// TestResolveLeavesSettledComponentsInPlace: a resolution reconsiders the
// resolved group's component and nothing else once the others are settled.
// Its result lists what it reconsidered; DeferredIDs and ConflictGroups
// still list the rest.
func TestResolveLeavesSettledComponentsInPlace(t *testing.T) {
	s := proteinSchema(t)
	q := NewEngine("q", s, TrustAll(1))
	var cands []*Candidate
	var txns []*Transaction
	for i, prot := range []string{"k1", "k2", "k3"} {
		for j, fn := range []string{"a", "b"} {
			origin := PeerID(prot + fn)
			x := handTxn(origin, uint64(2*i+j+1), Insert("F", fTuple(prot, fn), origin))
			txns = append(txns, x)
			cands = append(cands, handCand(x))
		}
	}
	res, err := q.Reconcile(cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deferred) != 6 || len(q.ConflictGroups()) != 3 {
		t.Fatalf("want 6 deferred in 3 groups, got %v / %v", res.Deferred, q.ConflictGroups())
	}
	// Each group is an equal-priority tie in which the run decided nothing,
	// so every component is settled straight after the reconciliation: the
	// first resolution reconsiders only its own component.
	res, err = q.Resolve(q.ConflictGroups()[0].Conflict, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != 1 {
		t.Errorf("first resolution reconsidered %d candidates, want 1", res.Stats.Candidates)
	}
	wantIDs(t, "accepted", res.Accepted, txns[0].ID)
	wantIDs(t, "rejected", res.Rejected, txns[1].ID)
	wantIDs(t, "deferred by the first resolution", res.Deferred)
	wantIDs(t, "deferred", q.DeferredIDs(), txns[2].ID, txns[3].ID, txns[4].ID, txns[5].ID)
	// So does the second, and the rest stays deferred.
	res, err = q.Resolve(q.ConflictGroups()[0].Conflict, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Candidates != 1 || res.Stats.DeferredCarried != 1 {
		t.Errorf("second resolution reconsidered %d candidates (%d carried), want 1",
			res.Stats.Candidates, res.Stats.DeferredCarried)
	}
	wantIDs(t, "accepted", res.Accepted, txns[3].ID)
	wantIDs(t, "rejected", res.Rejected, txns[2].ID)
	wantIDs(t, "deferred by the second resolution", res.Deferred)
	wantIDs(t, "deferred", q.DeferredIDs(), txns[4].ID, txns[5].ID)
	if gs := q.ConflictGroups(); len(gs) != 1 || res.Stats.DirtyKeys != 1 || q.DirtyKeyCount() != 1 {
		t.Errorf("want the third group and its dirty key left, got %v, %d dirty", gs, q.DirtyKeyCount())
	}
	// A local edit unsettles everything: the own delta is checked against
	// every deferred candidate, so the untouched component is reconsidered
	// (and rejected: it conflicts with the peer's own version).
	mustLocal(t, q, Insert("F", fTuple("k3", "own"), "q"))
	other := handTxn("z", 9, Insert("F", fTuple("k9", "a"), "z"))
	res, err = q.Reconcile([]*Candidate{handCand(other)})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, "rejected against own delta", res.Rejected, txns[4].ID, txns[5].ID)
	wantIDs(t, "accepted", res.Accepted, other.ID)
}

// TestResolveReachesKeysOnlyTheRawUpdatesTouch: components are linked by the
// keys of the extensions' raw updates, not by the touched keys of their
// flattened operations, because the apply loop may apply a shorter list
// than was flattened. The case that motivated it: X and Y both build on S,
// which inserts k1's value v while q holds v as its own. When Flatten took
// S's insert for v's creation, X's delete of v and Y's move of it cancelled
// it out of their operations, so X and Y seemed to share no key with Z and
// W, which are deferred over k1, and accepting X and Y in one run consumed
// q's v behind their backs. Flattened on q's instance, S's insert changes
// nothing, and X's and Y's operations consume v: all four meet in the k1
// groups. Scoped resolution must still answer as a full re-run does.
func TestResolveReachesKeysOnlyTheRawUpdatesTouch(t *testing.T) {
	s := proteinSchema(t)
	sut := NewEngine("q", s, TrustAll(1))
	ora := NewEngine("q", s, TrustAll(1))
	sr := &scopedRun{t: t, name: "raw keys"}

	v := fTuple("k1", "v")
	sx := handTxn("s", 1, Insert("F", v, "s"))
	x := handTxn("x", 2, Delete("F", v, "x"), Insert("F", fTuple("k2", "a"), "x"))
	y := handTxn("y", 3, Modify("F", v, fTuple("k3", "b"), "y"))
	y2 := handTxn("y2", 4, Insert("F", fTuple("k3", "b2"), "y2"), Insert("F", fTuple("k2", "a2"), "y2"))
	z := handTxn("z", 5, Modify("F", v, fTuple("k1", "z"), "z"))
	w := handTxn("w", 6, Modify("F", v, fTuple("k1", "w"), "w"))
	u1 := handTxn("u1", 7, Insert("F", fTuple("k5", "a"), "u1"))
	u2 := handTxn("u2", 8, Insert("F", fTuple("k5", "b"), "u2"))
	v1 := handTxn("v1", 9, Insert("F", fTuple("k6", "a"), "v1"))
	v2 := handTxn("v2", 10, Insert("F", fTuple("k6", "b"), "v2"))
	cands := []*Candidate{
		handCand(x, sx), handCand(y, sx), handCand(y2), handCand(z), handCand(w),
		handCand(u1), handCand(u2), handCand(v1), handCand(v2),
	}
	group := func(prot string) Conflict {
		t.Helper()
		for _, g := range sut.ConflictGroups() {
			if g.Conflict.Type == ConflictKeyValue && g.Conflict.Value == s.MustRelation("F").KeyEnc(fTuple(prot, "")) {
				return g.Conflict
			}
		}
		t.Fatalf("no key-value group on %s in %v", prot, sut.ConflictGroups())
		return Conflict{}
	}
	winner := func(c Conflict, id TxnID) int {
		t.Helper()
		for i, o := range sut.groups[c].Options {
			for _, have := range o.Txns {
				if have == id {
					return i
				}
			}
		}
		t.Fatalf("no option of %s holds %s", c, id)
		return 0
	}
	resolve := func(c Conflict, w int) *Result {
		t.Helper()
		resS, errS := sut.Resolve(c, w)
		resO, errO := fullRerunResolve(ora, c, w)
		if errS != nil || errO != nil {
			t.Fatalf("resolve %s: %v / %v", c, errS, errO)
		}
		sr.compare("Resolve("+c.String()+")", true, sut, ora, resS, resO)
		return resS
	}

	// q holds k1 as its own, flushed out of the own delta.
	for _, e := range []*Engine{sut, ora} {
		mustLocal(t, e, Insert("F", v, "q"))
		if _, err := e.Reconcile(nil); err != nil {
			t.Fatal(err)
		}
	}
	resS, _ := sut.Reconcile(cands)
	resO, _ := ora.Reconcile(cands)
	sr.compare("Reconcile", false, sut, ora, resS, resO)
	if len(resS.Deferred) != 9 {
		t.Fatalf("want everything deferred, got %+v", resS)
	}

	// Settle what can be settled, then let Y win k3: X and Y stay deferred
	// with Z and W, since each consumes q's k1.
	c := group("k5")
	resolve(c, winner(c, u1.ID))
	c = group("k3")
	res := resolve(c, winner(c, y.ID))
	wantIDs(t, "accepted with Y", res.Accepted)
	wantIDs(t, "rejected with Y", res.Rejected, y2.ID)
	// Resolving the unrelated k6 group leaves k1's candidates deferred.
	c = group("k6")
	res = resolve(c, winner(c, v1.ID))
	wantIDs(t, "rejected with v1", res.Rejected, v2.ID)
	wantIDs(t, "deferred by the k6 resolution", res.Deferred)
	wantIDs(t, "deferred over k1", sut.DeferredIDs(), x.ID, y.ID, z.ID, w.ID)
	if _, held := sut.Instance().Lookup("F", Strs("o", "k1")); !held {
		t.Error("k1 gone while every candidate that consumes it is deferred")
	}
}
