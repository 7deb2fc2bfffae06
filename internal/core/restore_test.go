package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

func TestValueGobRoundTrip(t *testing.T) {
	vals := []Value{Null(), S("hello"), I(-42), F(3.25), B(true)}
	for _, v := range vals {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
			t.Fatalf("%v: encode: %v", v, err)
		}
		var got Value
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&got); err != nil {
			t.Fatalf("%v: decode: %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip: %v != %v", got, v)
		}
	}
	// Transactions (nested tuples) survive gob too.
	x := NewTransaction(xid("p", 3),
		Modify("F", Strs("a", "b", "c"), Strs("a", "b", "d"), "p"))
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(x); err != nil {
		t.Fatal(err)
	}
	var got Transaction
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != x.ID || !got.Updates[0].Equal(x.Updates[0]) {
		t.Errorf("transaction round trip: %v", &got)
	}
	var bad Value
	if err := bad.GobDecode([]byte{1, 2}); err == nil {
		t.Error("bad gob payload accepted")
	}
	if err := bad.GobDecode(append(S("x").appendEncoded(nil), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestProducerTracking(t *testing.T) {
	s := proteinSchema(t)
	e := NewEngine("p", s, TrustAll(1))
	x1, antes1, err := e.NewLocalTransaction(Insert("F", Strs("rat", "p1", "v"), "p"))
	if err != nil {
		t.Fatal(err)
	}
	if len(antes1) != 0 {
		t.Errorf("insert antecedents = %v", antes1)
	}
	if got, ok := e.ProducerOf("F", Strs("rat", "p1", "v")); !ok || got != x1.ID {
		t.Errorf("producer = %v %v", got, ok)
	}
	x2, antes2, err := e.NewLocalTransaction(Modify("F", Strs("rat", "p1", "v"), Strs("rat", "p1", "w"), "p"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.ProducerOf("F", Strs("rat", "p1", "v")); ok {
		t.Error("consumed value still has a producer")
	}
	if got, _ := e.ProducerOf("F", Strs("rat", "p1", "w")); got != x2.ID {
		t.Errorf("producer of new value = %v", got)
	}
	if len(antes2) != 1 || antes2[0] != x1.ID {
		t.Errorf("local antecedents = %v", antes2)
	}

	// Two lists whose flattened footprint skips what their raw updates
	// record, each applied as one accepted extension: the candidate is the
	// last transaction, and the ones before it ride along.
	v, w := Strs("rat", "p1", "v"), Strs("rat", "p1", "w")
	applyExt := func(name string, e *Engine, log *testLog, xs ...*Transaction) {
		t.Helper()
		log.publish(xs...)
		root := xs[len(xs)-1]
		ext, err := log.graph.Extension(root.ID, e.Applied)
		if err != nil {
			t.Fatal(err)
		}
		if len(ext) != len(xs) {
			t.Fatalf("%s: extension %d transactions, want %d", name, len(ext), len(xs))
		}
		res, err := e.Reconcile([]*Candidate{{Txn: root, Priority: 1, Ext: ext}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Accepted) != len(xs) {
			t.Fatalf("%s: accepted %v", name, res.Accepted)
		}
	}
	wantProducer := func(name string, e *Engine, tu Tuple, want TxnID) {
		t.Helper()
		wantTuples(t, e.Instance(), "F", tu)
		if got, ok := e.ProducerOf("F", tu); !ok || got != want {
			t.Errorf("%s: producer of %v = %v %v, want %v", name, tu, got, ok, want)
		}
		_, antes, err := e.NewLocalTransaction(Delete("F", tu, e.Peer()))
		if err != nil {
			t.Fatal(err)
		}
		if len(antes) != 1 || antes[0] != want {
			t.Errorf("%s: antecedents of a delete of %v = %v, want [%v]", name, tu, antes, want)
		}
	}

	// A chain back to its source inside one extension (v→w, then w→v):
	// the flattened footprint is empty, and v goes to the transaction that
	// produced it last.
	log := newTestLog(t, s)
	q := NewEngine("q", s, TrustAll(1))
	xa0 := NewTransaction(xid("a", 0), Insert("F", v, "a"))
	log.publish(xa0)
	log.reconcile(q)
	xa1 := NewTransaction(xid("a", 1), Modify("F", v, w, "a"))
	xa2 := NewTransaction(xid("a", 2), Modify("F", w, v, "a"))
	applyExt("chain back to source", q, log, xa1, xa2)
	if _, ok := q.ProducerOf("F", w); ok {
		t.Error("chain back to source: the intermediate value has a producer")
	}
	wantProducer("chain back to source", q, v, xa2.ID)

	// An insert of a value the instance already holds, deleted later in
	// the same list: the insert changes nothing and the delete removes
	// the value, as applying the two one at a time does.
	log = newTestLog(t, s)
	q = NewEngine("q", s, TrustAll(1))
	xa0 = NewTransaction(xid("a", 0), Insert("F", v, "a"))
	log.publish(xa0)
	log.reconcile(q)
	xb0 := NewTransaction(xid("b", 0), Insert("F", v, "b"))
	xb1 := NewTransaction(xid("b", 1), Delete("F", v, "b"))
	applyExt("held insert deleted later", q, log, xb0, xb1)
	wantTuples(t, q.Instance(), "F")

	// A verbatim re-insert in a list leaves its transaction the producer,
	// as the last transaction of the list that produces the value.
	log = newTestLog(t, s)
	q = NewEngine("q", s, TrustAll(1))
	log.publish(xa0)
	log.reconcile(q)
	xb0 = NewTransaction(xid("b", 0), Insert("F", v, "b"), Insert("F", Strs("dog", "p2", "u"), "b"))
	applyExt("held insert re-produced", q, log, xb0)
	if got, ok := q.ProducerOf("F", v); !ok || got != xb0.ID {
		t.Errorf("held insert re-produced: producer of %v = %v %v, want %v", v, got, ok, xb0.ID)
	}
}

func TestRestoreDirect(t *testing.T) {
	s := proteinSchema(t)
	x1 := NewTransaction(xid("a", 0), Insert("F", Strs("rat", "p1", "v1"), "a"))
	x1.Order = 1
	x2 := NewTransaction(xid("b", 0), Modify("F", Strs("rat", "p1", "v1"), Strs("rat", "p1", "v2"), "b"))
	x2.Order = 2
	x3 := NewTransaction(xid("c", 0), Insert("F", Strs("rat", "p1", "zz"), "c"))
	x3.Order = 3
	xo := NewTransaction(xid("me", 5), Insert("F", Strs("mouse", "p2", "w"), "me"))
	xo.Order = 4

	log := []LoggedTxn{
		{Txn: x1}, {Txn: x2, Antecedents: []TxnID{x1.ID}}, {Txn: x3}, {Txn: xo},
	}
	decisions := map[TxnID]RestoredDecision{
		x1.ID: {Decision: DecisionAccept, Seq: 1},
		x2.ID: {Decision: DecisionAccept, Seq: 2},
		x3.ID: {Decision: DecisionReject, Seq: 3},
		xo.ID: {Decision: DecisionAccept, Seq: 4},
	}
	e := NewEngine("me", s, TrustAll(1))
	if err := e.RestoreTail(log, decisions); err != nil {
		t.Fatal(err)
	}
	wantTuples(t, e.Instance(), "F",
		Strs("rat", "p1", "v2"), Strs("mouse", "p2", "w"))
	if !e.Applied(x1.ID) || !e.Applied(x2.ID) || !e.Applied(xo.ID) {
		t.Error("applied set incomplete")
	}
	if !e.Rejected(x3.ID) {
		t.Error("rejected set incomplete")
	}
	// Local sequence continues after the own txn's seq.
	nxt, _, err := e.NewLocalTransaction(Insert("F", Strs("dog", "p3", "q"), "me"))
	if err != nil {
		t.Fatal(err)
	}
	if nxt.ID.Seq != 6 {
		t.Errorf("next local seq = %d, want 6", nxt.ID.Seq)
	}
}

// TestRestoreTailKeepsSeededDecisions: RestoreTail onto an engine seeded
// from a snapshot that holds only a rejection keeps that rejection and
// replays the tail's acceptance on top of it.
func TestRestoreTailKeepsSeededDecisions(t *testing.T) {
	s := proteinSchema(t)
	x := handTxn("o", 1, Insert("F", fTuple("k", "x"), "o"))
	log := []LoggedTxn{{Txn: x}}
	decisions := map[TxnID]RestoredDecision{x.ID: {Decision: DecisionAccept, Seq: 1}}

	rejecter, err := NewEngineFromSnapshot(s, TrustAll(1), &EngineSnapshot{Peer: "me", Rejected: []TxnID{xid("r", 0)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rejecter.RestoreTail(log, decisions); err != nil {
		t.Errorf("RestoreTail on a seeded engine: %v", err)
	}
	if !rejecter.Applied(x.ID) || !rejecter.Rejected(xid("r", 0)) {
		t.Error("RestoreTail lost the seeded rejection or the replayed acceptance")
	}
}

func TestRestoreAcceptanceOrderBeatsGlobalOrder(t *testing.T) {
	// The peer accepted its own modify before importing a later-published
	// identical insert; replay must follow acceptance order.
	s := proteinSchema(t)
	own0 := NewTransaction(xid("me", 0), Insert("F", Strs("rat", "p1", "f2"), "me"))
	own0.Order = 1
	own1 := NewTransaction(xid("me", 1), Modify("F", Strs("rat", "p1", "f2"), Strs("rat", "p1", "f1"), "me"))
	own1.Order = 3
	other := NewTransaction(xid("o", 0), Insert("F", Strs("rat", "p1", "f1"), "o"))
	other.Order = 2 // published between the peer's two own txns

	log := []LoggedTxn{{Txn: own0}, {Txn: other}, {Txn: own1, Antecedents: []TxnID{own0.ID}}}
	decisions := map[TxnID]RestoredDecision{
		own0.ID:  {Decision: DecisionAccept, Seq: 1},
		own1.ID:  {Decision: DecisionAccept, Seq: 2},
		other.ID: {Decision: DecisionAccept, Seq: 3}, // idempotent at acceptance time
	}
	e := NewEngine("me", s, TrustAll(1))
	if err := e.RestoreTail(log, decisions); err != nil {
		t.Fatal(err)
	}
	wantTuples(t, e.Instance(), "F", Strs("rat", "p1", "f1"))
}

func TestConflictGroupString(t *testing.T) {
	g := &ConflictGroup{
		Conflict: Conflict{Type: ConflictKeyValue, Rel: "F", Value: Strs("rat", "p1").Encode()},
		Options: []*Option{
			{Txns: []TxnID{xid("a", 0)}, effect: []Update{Insert("F", Strs("rat", "p1", "x"), "a")}},
		},
	}
	if got, want := g.String(), "conflict key-value on F(rat, p1): option[0]{[a:0] => +F(rat, p1, x; a)}"; got != want {
		t.Errorf("group string %q, want %q", got, want)
	}
	s := proteinSchema(t)
	e := NewEngine("p", s, TrustAll(1))
	if e.Instance().Schema() != s {
		t.Error("Instance.Schema accessor broken")
	}
}

// TestVerbatimReinsertLiveMatchesRestore: two peers insert the same
// referencing tuple and a third accepts both. The second insert is a no-op
// at the live engine as in the rebuilt one, so both count the reference
// once and both can delete the parent once the child is gone.
func TestVerbatimReinsertLiveMatchesRestore(t *testing.T) {
	s := fkSchema(t)
	log := newTestLog(t, s)
	pa := NewEngine("a", s, TrustAll(1))
	pb := NewEngine("b", s, TrustAll(1))
	live := NewEngine("c", s, TrustAll(1))
	parent, child := Strs("rat", "p1", "a"), Strs("rat", "p1", "genbank")
	xa0 := mustLocal(t, pa, Insert("Function", parent, "a"))
	log.publish(xa0)
	log.reconcile(pb)
	accepted := log.reconcile(live).Accepted
	xa1 := mustLocal(t, pa, Insert("XRef", child, "a"))
	xb0 := mustLocal(t, pb, Insert("XRef", child, "b"))
	log.publish(xa1, xb0)
	accepted = append(accepted, log.reconcile(live).Accepted...)
	if len(accepted) != 3 {
		t.Fatalf("accepted %v, want all three", accepted)
	}

	var logged []LoggedTxn
	for _, x := range []*Transaction{xa0, xa1, xb0} {
		logged = append(logged, LoggedTxn{Txn: x, Antecedents: log.graph.Antecedents(x.ID)})
	}
	decisions := map[TxnID]RestoredDecision{}
	for i, id := range accepted {
		decisions[id] = RestoredDecision{Decision: DecisionAccept, Seq: int64(i + 1)}
	}
	rebuilt := NewEngine("c", s, TrustAll(1))
	if err := rebuilt.RestoreTail(logged, decisions); err != nil {
		t.Fatal(err)
	}
	engineStateEqual(t, "verbatim re-insert", live, rebuilt)
	if !reflect.DeepEqual(live.inst.fkCount, rebuilt.inst.fkCount) {
		t.Errorf("reference counts: live %v, rebuilt %v", live.inst.fkCount, rebuilt.inst.fkCount)
	}
	for _, e := range []*Engine{live, rebuilt} {
		mustLocal(t, e, Delete("XRef", child, "c"))
		if _, _, err := e.NewLocalTransaction(Delete("Function", parent, "c")); err != nil {
			t.Errorf("parent delete after its one child went: %v", err)
		}
	}
}
