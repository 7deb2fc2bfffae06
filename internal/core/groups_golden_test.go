package core

import (
	"fmt"
	"strings"
	"testing"
)

// groupsGolden is ConflictGroups() rendered by ConflictGroup.String after
// each step of three scenarios: the paper's Figure 2 at p1, a peer
// resolving groups of every conflict type one at a time, and the
// one-update workload of TestReconcileSingleUpdateAllocations. The option
// order is the one Resolve's indexes name, and the effects are the text
// orchestra-demo and the examples pick options by.
const groupsGolden = `fig2 epoch 4
conflict key-value on F(rat, prot1): option[0]{[p3:0 p3:1] => +F(rat, prot1, immune; p3)} option[1]{[p2:1] => +F(rat, prot1, cell-resp; p2)} option[2]{[p3:0] => +F(rat, prot1, cell-metab; p3)}
resolve reconcile
conflict key-value on F(o, k1): option[0]{[m:0] => F(o, k1, v -> o, k1, m; m)} option[1]{[w:0 x:0] => F(o, k1, v -> o, k1, x; w)} option[2]{[m2:0 y:0] => F(o, k1, v -> o, k1, y; m2)}
conflict delete-write on F(o, k1): option[0]{[z:0] => -F(o, k1, v; z)} option[1]{[m:0] => F(o, k1, v -> o, k1, m; m)} option[2]{[w:0 x:0] => F(o, k1, v -> o, k1, x; w)} option[3]{[m2:0 y:0] => F(o, k1, v -> o, k1, y; m2)}
conflict modify-source on F(o, k1, v): option[0]{[m:0] => F(o, k1, v -> o, k1, m; m)} option[1]{[w:0 x:0] => F(o, k1, v -> o, k1, x; w)} option[2]{[m2:0 y:0] => F(o, k1, v -> o, k1, y; m2)}
conflict key-value on F(o, k2): option[0]{[k2a:0] => +F(o, k2, a; k2a)} option[1]{[k2b:0] => +F(o, k2, b; k2b)}
conflict key-value on F(o, k3): option[0]{[k3a:0] => +F(o, k3, a; k3a)} option[1]{[k3b:0] => +F(o, k3, b; k3b)}
conflict key-value on F(o, k4): option[0]{[t:0] => +F(o, k4, a; t)} option[1]{[u:0] => +F(o, k4, b; u)}
conflict key-value on F(o, k5): option[0]{[t:0] => +F(o, k5, a; t)} option[1]{[u2:0] => +F(o, k5, b; u2)}
conflict modify-source on F(o, k6, v): option[0]{[a6:0 b6:0] => (no direct effect)}
resolve 1
conflict delete-write on F(o, k1): option[0]{[z:0] => -F(o, k1, v; z)} option[1]{[m2:0 y:0] => F(o, k1, v -> o, k1, y; m2)}
conflict key-value on F(o, k2): option[0]{[k2a:0] => +F(o, k2, a; k2a)} option[1]{[k2b:0] => +F(o, k2, b; k2b)}
conflict key-value on F(o, k3): option[0]{[k3a:0] => +F(o, k3, a; k3a)} option[1]{[k3b:0] => +F(o, k3, b; k3b)}
conflict key-value on F(o, k4): option[0]{[t:0] => +F(o, k4, a; t)} option[1]{[u:0] => +F(o, k4, b; u)}
conflict key-value on F(o, k5): option[0]{[t:0] => +F(o, k5, a; t)} option[1]{[u2:0] => +F(o, k5, b; u2)}
conflict modify-source on F(o, k6, v): option[0]{[a6:0 b6:0] => (no direct effect)}
resolve 2
conflict key-value on F(o, k2): option[0]{[k2a:0] => +F(o, k2, a; k2a)} option[1]{[k2b:0] => +F(o, k2, b; k2b)}
conflict key-value on F(o, k3): option[0]{[k3a:0] => +F(o, k3, a; k3a)} option[1]{[k3b:0] => +F(o, k3, b; k3b)}
conflict key-value on F(o, k4): option[0]{[t:0] => +F(o, k4, a; t)} option[1]{[u:0] => +F(o, k4, b; u)}
conflict key-value on F(o, k5): option[0]{[t:0] => +F(o, k5, a; t)} option[1]{[u2:0] => +F(o, k5, b; u2)}
conflict modify-source on F(o, k6, v): option[0]{[a6:0 b6:0] => (no direct effect)}
resolve 3
conflict key-value on F(o, k3): option[0]{[k3a:0] => +F(o, k3, a; k3a)} option[1]{[k3b:0] => +F(o, k3, b; k3b)}
conflict key-value on F(o, k4): option[0]{[t:0] => +F(o, k4, a; t)} option[1]{[u:0] => +F(o, k4, b; u)}
conflict key-value on F(o, k5): option[0]{[t:0] => +F(o, k5, a; t)} option[1]{[u2:0] => +F(o, k5, b; u2)}
conflict modify-source on F(o, k6, v): option[0]{[a6:0 b6:0] => (no direct effect)}
resolve 4
conflict key-value on F(o, k4): option[0]{[t:0] => +F(o, k4, a; t)} option[1]{[u:0] => +F(o, k4, b; u)}
conflict key-value on F(o, k5): option[0]{[t:0] => +F(o, k5, a; t)} option[1]{[u2:0] => +F(o, k5, b; u2)}
conflict modify-source on F(o, k6, v): option[0]{[a6:0 b6:0] => (no direct effect)}
resolve 5
conflict modify-source on F(o, k6, v): option[0]{[a6:0 b6:0] => (no direct effect)}
single-update reconcile
conflict key-value on F(o, c0): option[0]{[o0:0] => +F(o, c0, o0; o0)} option[1]{[o1:0] => +F(o, c0, o1; o1)} option[2]{[o2:0] => +F(o, c0, o2; o2)}
conflict key-value on F(o, c10): option[0]{[o0:10] => +F(o, c10, o0; o0)} option[1]{[o1:10] => +F(o, c10, o1; o1)} option[2]{[o2:10] => +F(o, c10, o2; o2)}
conflict key-value on F(o, c20): option[0]{[o0:20] => +F(o, c20, o0; o0)} option[1]{[o1:20] => +F(o, c20, o1; o1)} option[2]{[o2:20] => +F(o, c20, o2; o2)}
conflict key-value on F(o, c30): option[0]{[o0:30] => +F(o, c30, o0; o0)} option[1]{[o1:30] => +F(o, c30, o1; o1)} option[2]{[o2:30] => +F(o, c30, o2; o2)}
conflict key-value on F(o, c40): option[0]{[o0:40] => +F(o, c40, o0; o0)} option[1]{[o1:40] => +F(o, c40, o1; o1)} option[2]{[o2:40] => +F(o, c40, o2; o2)}
single-update resolve
conflict key-value on F(o, c10): option[0]{[o0:10] => +F(o, c10, o0; o0)} option[1]{[o1:10] => +F(o, c10, o1; o1)} option[2]{[o2:10] => +F(o, c10, o2; o2)}
conflict key-value on F(o, c20): option[0]{[o0:20] => +F(o, c20, o0; o0)} option[1]{[o1:20] => +F(o, c20, o1; o1)} option[2]{[o2:20] => +F(o, c20, o2; o2)}
conflict key-value on F(o, c30): option[0]{[o0:30] => +F(o, c30, o0; o0)} option[1]{[o1:30] => +F(o, c30, o1; o1)} option[2]{[o2:30] => +F(o, c30, o2; o2)}
conflict key-value on F(o, c40): option[0]{[o0:40] => +F(o, c40, o0; o0)} option[1]{[o1:40] => +F(o, c40, o1; o1)} option[2]{[o2:40] => +F(o, c40, o2; o2)}
`

// TestConflictGroupsGolden pins what ConflictGroups() shows, byte for
// byte, through reconciliation and resolution.
func TestConflictGroupsGolden(t *testing.T) {
	var b strings.Builder
	section := func(name string, e *Engine) {
		fmt.Fprintln(&b, name)
		for _, g := range e.ConflictGroups() {
			fmt.Fprintln(&b, g.String())
		}
	}

	// Figure 2, epoch 4: p1 defers all three rat transactions.
	s := proteinSchema(t)
	log := newTestLog(t, s)
	p1 := NewEngine("p1", s, TrustOrigins(map[PeerID]int{"p2": 1, "p3": 1}))
	p2 := NewEngine("p2", s, TrustOrigins(map[PeerID]int{"p1": 2, "p3": 1}))
	p3 := NewEngine("p3", s, TrustOrigins(map[PeerID]int{"p2": 1}))
	log.publish(
		mustLocal(t, p3, Insert("F", Strs("rat", "prot1", "cell-metab"), "p3")),
		mustLocal(t, p3, Modify("F", Strs("rat", "prot1", "cell-metab"), Strs("rat", "prot1", "immune"), "p3")))
	log.reconcile(p3)
	log.publish(
		mustLocal(t, p2, Insert("F", Strs("mouse", "prot2", "immune"), "p2")),
		mustLocal(t, p2, Insert("F", Strs("rat", "prot1", "cell-resp"), "p2")))
	log.reconcile(p2)
	log.reconcile(p3)
	log.reconcile(p1)
	section("fig2 epoch 4", p1)

	// Every conflict type over a value q holds, compatible transactions
	// sharing an option, an option with two updates on its value, a
	// transaction in two groups, and a group whose one option has no
	// direct effect; then the groups resolved one at a time, each for its
	// last option, until only that last group is left.
	q := NewEngine("q", s, TrustAll(1))
	v := fTuple("k1", "v")
	v13 := fTuple("k13", "w")
	mustLocal(t, q, Insert("F", v, "q"), Insert("F", v13, "q"))
	if _, err := q.Reconcile(nil); err != nil {
		t.Fatal(err)
	}
	order := uint64(0)
	txn := func(origin PeerID, us ...Update) *Transaction {
		order++
		return handTxn(origin, order, us...)
	}
	var cands []*Candidate
	for _, x := range []*Transaction{
		txn("x", Modify("F", v, fTuple("k1", "x"), "x")),
		txn("y", Modify("F", v, fTuple("k1", "y"), "y")),
		txn("z", Delete("F", v, "z")),
		txn("w", Modify("F", v, fTuple("k1", "x"), "w")),
		txn("m", Modify("F", v, fTuple("k10", "m"), "m"), Insert("F", fTuple("k1", "m"), "m")),
		txn("m2", Modify("F", v, fTuple("k12", "x"), "m2"), Modify("F", v13, fTuple("k1", "y"), "m2")),
		txn("k2a", Insert("F", fTuple("k2", "a"), "k2a")),
		txn("k2b", Insert("F", fTuple("k2", "b"), "k2b")),
		txn("k3a", Insert("F", fTuple("k3", "a"), "k3a")),
		txn("k3b", Insert("F", fTuple("k3", "b"), "k3b")),
		txn("t", Insert("F", fTuple("k4", "a"), "t"), Insert("F", fTuple("k5", "a"), "t")),
		txn("u", Insert("F", fTuple("k4", "b"), "u")),
		txn("u2", Insert("F", fTuple("k5", "b"), "u2")),
	} {
		cands = append(cands, handCand(x))
	}
	base := fTuple("k6", "v")
	s6 := txn("s6", Insert("F", base, "s6"))
	cands = append(cands,
		handCand(txn("a6", Modify("F", base, fTuple("k7", "a"), "a6"), Insert("F", fTuple("k8", "z"), "a6")), s6),
		handCand(txn("b6", Modify("F", base, fTuple("k9", "b"), "b6"), Insert("F", fTuple("k8", "z"), "b6")), s6))
	if _, err := q.Reconcile(cands); err != nil {
		t.Fatal(err)
	}
	section("resolve reconcile", q)
	for n := 1; ; n++ {
		gs := q.ConflictGroups()
		res, err := q.Resolve(gs[0].Conflict, len(gs[0].Options)-1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Accepted)+len(res.Rejected) == 0 {
			break // the group with no direct effect: its one option rejects no one
		}
		section(fmt.Sprintf("resolve %d", n), q)
	}

	// The one-update workload: five three-way groups, then the first
	// resolved.
	e := NewEngine("q", s, TrustAll(1))
	if _, err := e.Reconcile(singleUpdateCands()); err != nil {
		t.Fatal(err)
	}
	section("single-update reconcile", e)
	if _, err := e.Resolve(e.ConflictGroups()[0].Conflict, 0); err != nil {
		t.Fatal(err)
	}
	section("single-update resolve", e)

	if got := b.String(); got != groupsGolden {
		t.Errorf("conflict groups differ from the golden:\n%s", got)
	}
}
