package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestHeldInsertDeletedLiveMatchesRestore: a peer that accepts an insert of
// a value it holds and that value's delete as one extension ends where a
// Restore of its log and decisions does, and where the publisher is: the
// value is gone. Peer a inserts v, and b and q accept it; b inserts v again
// and then deletes it; q trusts b's deletes but not its inserts, so b's
// delete is q's candidate and the insert rides in its extension.
func TestHeldInsertDeletedLiveMatchesRestore(t *testing.T) {
	s := proteinSchema(t)
	log := newTestLog(t, s)
	v := Strs("rat", "p1", "v")
	pa := NewEngine("a", s, TrustAll(1))
	pb := NewEngine("b", s, TrustAll(1))
	q := NewEngine("q", s, TrustFunc(func(u Update) int {
		if u.Origin == "b" && u.Op == OpInsert {
			return 0
		}
		return 1
	}))
	xa0 := mustLocal(t, pa, Insert("F", v, "a"))
	log.publish(xa0)
	log.reconcile(pb)
	accepted := log.reconcile(q).Accepted
	xb0 := mustLocal(t, pb, Insert("F", v, "b"))
	xb1 := mustLocal(t, pb, Delete("F", v, "b"))
	log.publish(xb0, xb1)
	accepted = append(accepted, log.reconcile(q).Accepted...)
	wantIDs(t, "q accepts", accepted, xa0.ID, xb0.ID, xb1.ID)
	wantTuples(t, pb.Instance(), "F")
	wantTuples(t, q.Instance(), "F")

	var logged []LoggedTxn
	for _, x := range []*Transaction{xa0, xb0, xb1} {
		logged = append(logged, LoggedTxn{Txn: x, Antecedents: log.graph.Antecedents(x.ID)})
	}
	decisions := map[TxnID]RestoredDecision{}
	for i, id := range accepted {
		decisions[id] = RestoredDecision{Decision: DecisionAccept, Seq: int64(i + 1)}
	}
	rebuilt := NewEngine("q", s, TrustAll(1))
	if err := rebuilt.Restore(logged, decisions); err != nil {
		t.Fatal(err)
	}
	engineStateEqual(t, "held insert deleted later", q, rebuilt)
	if !reflect.DeepEqual(q.ExportSnapshot(), rebuilt.ExportSnapshot()) {
		t.Errorf("live q exports %+v, rebuilt %+v", q.ExportSnapshot(), rebuilt.ExportSnapshot())
	}
}

// TestApplyFlattensOnTheRunsInstance: the apply loop flattens a list on
// the instance as the candidates applied before it left it. Candidate A
// inserts v, which q does not hold when the run checks its candidates; B's
// extension inserts v and then deletes it, which cancels out then. Applied
// after A, B's insert changes nothing and its delete removes v, as a
// Restore of the log has it.
func TestApplyFlattensOnTheRunsInstance(t *testing.T) {
	s := proteinSchema(t)
	v := Strs("rat", "p1", "v")
	xa := NewTransaction(xid("a", 0), Insert("F", v, "a"))
	xb0 := NewTransaction(xid("b", 0), Insert("F", v, "b"))
	xb1 := NewTransaction(xid("b", 1), Delete("F", v, "b"))
	logged := []LoggedTxn{{Txn: xa}, {Txn: xb0}, {Txn: xb1}}
	decisions := map[TxnID]RestoredDecision{}
	for i, lt := range logged {
		lt.Txn.Order = uint64(i + 1)
		decisions[lt.Txn.ID] = RestoredDecision{Decision: DecisionAccept, Seq: 1}
	}
	live := NewEngine("q", s, TrustAll(1))
	res, err := live.Reconcile([]*Candidate{
		{Txn: xa, Priority: 1, Ext: []*Transaction{xa}},
		{Txn: xb1, Priority: 1, Ext: []*Transaction{xb0, xb1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, "accepted", res.Accepted, xa.ID, xb0.ID, xb1.ID)
	wantTuples(t, live.Instance(), "F")
	rebuilt := NewEngine("q", s, TrustAll(1))
	if err := rebuilt.Restore(logged, decisions); err != nil {
		t.Fatal(err)
	}
	engineStateEqual(t, "one run", live, rebuilt)
}

// TestAppliedRunsMatchRestore: a peer's state is a function of the
// transactions it accepted and their order, whichever runs it accepted them
// in. Each random list is valid applied one update at a time, over three
// keys and two functions: fresh inserts, verbatim re-inserts of held
// values, deletes, in-place and key-moving modifies (so chains return to
// their source). The list is cut at every subset of its transaction
// boundaries; each run is one candidate whose extension is the run, and the
// engine that accepted them run by run must hold the values the sequential
// model holds and export the snapshot a Restore of the whole list exports.
// So must an engine built from a snapshot of a prefix, after RestoreTail of
// the rest.
func TestAppliedRunsMatchRestore(t *testing.T) {
	s := proteinSchema(t)
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		xs, model := randomValidList(rng, 2+rng.Intn(5))

		logged := make([]LoggedTxn, len(xs))
		decisions := map[TxnID]RestoredDecision{}
		for i, x := range xs {
			logged[i] = LoggedTxn{Txn: x}
			decisions[x.ID] = RestoredDecision{Decision: DecisionAccept, Seq: int64(i + 1)}
		}
		whole := NewEngine("q", s, TrustAll(1))
		if err := whole.Restore(logged, decisions); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		wantTuples(t, whole.Instance(), "F", slices.Collect(maps.Values(model))...)

		for cuts := 0; cuts < 1<<(len(xs)-1); cuts++ {
			what := fmt.Sprintf("seed %d cuts %b", seed, cuts)
			live := NewEngine("q", s, TrustAll(1))
			from := 0
			for i := range xs {
				if i < len(xs)-1 && cuts&(1<<i) == 0 {
					continue
				}
				run := xs[from : i+1]
				from = i + 1
				res, err := live.Reconcile([]*Candidate{{Txn: run[len(run)-1], Priority: 1, Ext: run}})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Accepted) != len(run) {
					t.Fatalf("%s: run %v: accepted %v, rejected %v", what, run, res.Accepted, res.Rejected)
				}
			}
			if !reflect.DeepEqual(live.ExportSnapshot(), whole.ExportSnapshot()) {
				t.Fatalf("%s: list %v\nrun by run exports %+v\nwhole list exports %+v",
					what, xs, live.ExportSnapshot().Relations, whole.ExportSnapshot().Relations)
			}
		}

		// A snapshot of a prefix and a replay of the tail are one more
		// grouping.
		for cut := 1; cut < len(xs); cut++ {
			prefix := NewEngine("q", s, TrustAll(1))
			if err := prefix.Restore(logged[:cut], decisions); err != nil {
				t.Fatal(err)
			}
			tail, err := NewEngineFromSnapshot(s, TrustAll(1), prefix.ExportSnapshot())
			if err != nil {
				t.Fatal(err)
			}
			if err := tail.RestoreTail(logged[cut:], decisions); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tail.ExportSnapshot(), whole.ExportSnapshot()) {
				t.Fatalf("seed %d snapshot after %d: list %v\nsnapshot and tail export %+v\nwhole list exports %+v",
					seed, cut, xs, tail.ExportSnapshot().Relations, whole.ExportSnapshot().Relations)
			}
		}
	}
}

// randomValidList returns n transactions of one or two updates each, over
// relation F with three keys and two functions, such that every update is
// compatible with the state the ones before it leave; and that state, by
// key.
func randomValidList(rng *rand.Rand, n int) ([]*Transaction, map[string]Tuple) {
	state := map[string]Tuple{}
	keyOf := func(t Tuple) string { return t[0].String() }
	value := func() Tuple {
		return Strs([]string{"rat", "mouse", "dog"}[rng.Intn(3)], "p1", []string{"x", "y"}[rng.Intn(2)])
	}
	held := func() (Tuple, bool) {
		keys := slices.Sorted(maps.Keys(state))
		if len(keys) == 0 {
			return nil, false
		}
		return state[keys[rng.Intn(len(keys))]], true
	}
	var xs []*Transaction
	for len(xs) < n {
		origin := PeerID(fmt.Sprint("p", rng.Intn(3)))
		var us []Update
		for size := 1 + rng.Intn(2); len(us) < size; {
			switch rng.Intn(4) {
			case 0: // insert: fresh, or the value its key holds
				t := value()
				if cur, ok := state[keyOf(t)]; ok && !cur.Equal(t) {
					continue
				}
				state[keyOf(t)] = t
				us = append(us, Insert("F", t, origin))
			case 1: // verbatim re-insert of a held value
				if t, ok := held(); ok {
					us = append(us, Insert("F", t, origin))
				}
			case 2:
				if t, ok := held(); ok {
					delete(state, keyOf(t))
					us = append(us, Delete("F", t, origin))
				}
			case 3: // modify in place or onto a free key
				t, ok := held()
				to := value()
				if _, bound := state[keyOf(to)]; !ok || to.Equal(t) || (bound && keyOf(to) != keyOf(t)) {
					continue
				}
				delete(state, keyOf(t))
				state[keyOf(to)] = to
				us = append(us, Modify("F", t, to, origin))
			}
		}
		x := NewTransaction(xid(origin, uint64(len(xs))), us...)
		x.Order = uint64(len(xs) + 1)
		xs = append(xs, x)
	}
	return xs, state
}
