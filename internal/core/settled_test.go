package core

import (
	"testing"
)

// settledTwins drives a scoped engine and a full-re-run twin (the oracle of
// TestResolveScopedMatchesFullRerun) through the same steps, holding the
// scoped one to the oracle after each.
type settledTwins struct {
	t        *testing.T
	s        *Schema
	sut, ora *Engine
	sr       *scopedRun
}

func newSettledTwins(t *testing.T, name string) *settledTwins {
	s := proteinSchema(t)
	return &settledTwins{
		t: t, s: s,
		sut: NewEngine("q", s, TrustAll(1)),
		ora: NewEngine("q", s, TrustAll(1)),
		sr:  &scopedRun{t: t, name: name},
	}
}

func (tw *settledTwins) reconcile(cands ...*Candidate) *Result {
	tw.t.Helper()
	resS, errS := tw.sut.Reconcile(cands)
	resO, errO := tw.ora.Reconcile(cands)
	if errS != nil || errO != nil {
		tw.t.Fatalf("reconcile: %v / %v", errS, errO)
	}
	tw.sr.compare("Reconcile", false, tw.sut, tw.ora, resS, resO)
	return resS
}

// resolve lets the option holding id win the key-value group on prot.
func (tw *settledTwins) resolve(prot string, id TxnID) *Result {
	tw.t.Helper()
	value := tw.s.MustRelation("F").KeyEnc(fTuple(prot, ""))
	for _, g := range tw.sut.ConflictGroups() {
		if g.Conflict.Type != ConflictKeyValue || g.Conflict.Value != value {
			continue
		}
		for w, o := range g.Options {
			for _, have := range o.Txns {
				if have != id {
					continue
				}
				resS, errS := tw.sut.Resolve(g.Conflict, w)
				resO, errO := fullRerunResolve(tw.ora, g.Conflict, w)
				if errS != nil || errO != nil {
					tw.t.Fatalf("resolve %s: %v / %v", g.Conflict, errS, errO)
				}
				tw.sr.compare("Resolve("+g.Conflict.String()+")", true, tw.sut, tw.ora, resS, resO)
				return resS
			}
		}
	}
	tw.t.Fatalf("no option holding %s in a group on %s: %v", id, prot, tw.sut.ConflictGroups())
	return nil
}

// prioCand is a candidate for x at the given priority whose extension is
// the given unapplied antecedents followed by x.
func prioCand(prio int, x *Transaction, antecedents ...*Transaction) *Candidate {
	c := handCand(x, antecedents...)
	c.Priority = prio
	return c
}

// TestSettledRuleIsExact pins when a component is left for the next
// resolution to re-run (markComponents): only when a re-run could decide
// it differently. Each case resolves a tie on k9, in a component of its
// own, and checks what else the first resolution after the reconciliation
// reconsiders, against a twin engine that re-runs every deferred candidate.
func TestSettledRuleIsExact(t *testing.T) {
	tie := func() (a, b *Transaction, cands []*Candidate) {
		a = handTxn("t1", 100, Insert("F", fTuple("k9", "a"), "t1"))
		b = handTxn("t2", 101, Insert("F", fTuple("k9", "b"), "t2"))
		return a, b, []*Candidate{handCand(a), handCand(b)}
	}

	// Two equal-priority ties the run decides nothing in: re-running
	// either with its members carried defers them again, so both are
	// settled and the resolution reconsiders only its own component.
	t.Run("tie settled", func(t *testing.T) {
		tw := newSettledTwins(t, "tie settled")
		a, _, cands := tie()
		c := handTxn("c", 1, Insert("F", fTuple("k1", "c"), "c"))
		d := handTxn("d", 2, Insert("F", fTuple("k1", "d"), "d"))
		tw.reconcile(append(cands, handCand(c), handCand(d))...)
		res := tw.resolve("k9", a.ID)
		if res.Stats.Candidates != 1 || res.Stats.DeferredCarried != 1 {
			t.Errorf("resolution reconsidered %d candidates (%d carried), want only the winner",
				res.Stats.Candidates, res.Stats.DeferredCarried)
		}
		wantIDs(t, "deferred by the resolution", res.Deferred)
		wantIDs(t, "deferred", tw.sut.DeferredIDs(), c.ID, d.ID)
	})

	// A fresh candidate deferred only because it touches a dirty key of
	// carried ones: once carried it skips that check, outranks the tie on
	// k1 and is accepted, so its component must be re-run.
	t.Run("fresh deferred on a dirty key", func(t *testing.T) {
		tw := newSettledTwins(t, "dirty key")
		a, b, cands := tie()
		c := handTxn("c", 1, Insert("F", fTuple("k1", "c"), "c"))
		d := handTxn("d", 2, Insert("F", fTuple("k1", "d"), "d"))
		tw.reconcile(append(cands, handCand(c), handCand(d))...)
		h := handTxn("h", 3, Insert("F", fTuple("k1", "h"), "h"))
		res := tw.reconcile(prioCand(2, h))
		wantIDs(t, "deferred with h", res.Deferred, a.ID, b.ID, c.ID, d.ID, h.ID)
		res = tw.resolve("k9", a.ID)
		if res.Stats.Candidates != 4 {
			t.Errorf("resolution reconsidered %d candidates, want the winner and the k1 component", res.Stats.Candidates)
		}
		wantIDs(t, "accepted", res.Accepted, a.ID, h.ID)
		wantIDs(t, "deferred", tw.sut.DeferredIDs())
	})

	// A component the reconciliation decided a member of: X is rejected
	// against H, which outranks it, while D, built on X, is deferred
	// against E. D's extension now holds a rejected transaction, so a
	// re-run rejects D and accepts E.
	t.Run("member decided", func(t *testing.T) {
		tw := newSettledTwins(t, "member decided")
		a, b, cands := tie()
		h := handTxn("h", 1, Insert("F", fTuple("k3", "h"), "h"))
		x := handTxn("x", 2, Insert("F", fTuple("k3", "x"), "x"))
		d := handTxn("d", 3, Modify("F", fTuple("k3", "x"), fTuple("k4", "d"), "d"))
		e := handTxn("e", 4, Insert("F", fTuple("k4", "e"), "e"))
		res := tw.reconcile(append(cands, prioCand(2, h), handCand(x), handCand(d, x), handCand(e))...)
		wantIDs(t, "accepted", res.Accepted, h.ID)
		wantIDs(t, "rejected", res.Rejected, x.ID)
		wantIDs(t, "deferred", res.Deferred, a.ID, b.ID, d.ID, e.ID)
		res = tw.resolve("k9", a.ID)
		wantIDs(t, "accepted", res.Accepted, a.ID, e.ID)
		wantIDs(t, "deferred", tw.sut.DeferredIDs())
	})
}
