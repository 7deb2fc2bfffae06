package core

import "testing"

func TestAntecedentGraphBasics(t *testing.T) {
	s := flatSchema(t)
	g := NewAntecedentGraph(s)

	x0 := NewTransaction(xid("p1", 0), Insert("F", Strs("rat", "p1", "a"), "p1"))
	x1 := NewTransaction(xid("p2", 0), Modify("F", Strs("rat", "p1", "a"), Strs("rat", "p1", "b"), "p2"))
	x2 := NewTransaction(xid("p3", 0), Delete("F", Strs("rat", "p1", "b"), "p3"))
	for _, x := range []*Transaction{x0, x1, x2} {
		if err := g.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	if x0.Order >= x1.Order || x1.Order >= x2.Order {
		t.Error("orders not increasing")
	}
	if got := g.Antecedents(x0.ID); len(got) != 0 {
		t.Errorf("x0 antecedents = %v", got)
	}
	if got := g.Antecedents(x1.ID); len(got) != 1 || got[0] != x0.ID {
		t.Errorf("x1 antecedents = %v", got)
	}
	if got := g.Antecedents(x2.ID); len(got) != 1 || got[0] != x1.ID {
		t.Errorf("x2 antecedents = %v", got)
	}
	if err := g.Add(x0); err == nil {
		t.Error("duplicate Add should fail")
	}
	if _, ok := g.Txn(x1.ID); !ok {
		t.Error("Txn lookup failed")
	}
	if _, ok := g.Txn(xid("zz", 9)); ok {
		t.Error("unknown Txn lookup should fail")
	}
}

func TestAntecedentIntraTxnChaining(t *testing.T) {
	// A transaction that inserts and immediately modifies its own tuple has
	// no external antecedent; the producer map must chain within the txn.
	s := flatSchema(t)
	g := NewAntecedentGraph(s)
	x := NewTransaction(xid("p3", 0),
		Insert("F", Strs("rat", "p1", "a"), "p3"),
		Modify("F", Strs("rat", "p1", "a"), Strs("rat", "p1", "b"), "p3"),
	)
	if err := g.Add(x); err != nil {
		t.Fatal(err)
	}
	if got := g.Antecedents(x.ID); len(got) != 0 {
		t.Errorf("self-chaining txn has antecedents %v", got)
	}
	// A follow-up consuming the final value depends on x.
	y := NewTransaction(xid("p2", 0), Modify("F", Strs("rat", "p1", "b"), Strs("rat", "p1", "c"), "p2"))
	if err := g.Add(y); err != nil {
		t.Fatal(err)
	}
	if got := g.Antecedents(y.ID); len(got) != 1 || got[0] != x.ID {
		t.Errorf("y antecedents = %v", got)
	}
	// A transaction consuming the *intermediate* value has no producer
	// (the value was superseded); it has no antecedent edge.
	z := NewTransaction(xid("p4", 0), Delete("F", Strs("rat", "p1", "a"), "p4"))
	if err := g.Add(z); err != nil {
		t.Fatal(err)
	}
	if got := g.Antecedents(z.ID); len(got) != 0 {
		t.Errorf("z antecedents = %v (intermediate values have no producer)", got)
	}
}

func TestExtensionTransitiveClosure(t *testing.T) {
	s := flatSchema(t)
	g := NewAntecedentGraph(s)
	x0 := NewTransaction(xid("a", 0), Insert("F", Strs("rat", "p1", "v0"), "a"))
	x1 := NewTransaction(xid("b", 0), Modify("F", Strs("rat", "p1", "v0"), Strs("rat", "p1", "v1"), "b"))
	x2 := NewTransaction(xid("c", 0), Modify("F", Strs("rat", "p1", "v1"), Strs("rat", "p1", "v2"), "c"))
	for _, x := range []*Transaction{x0, x1, x2} {
		if err := g.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	ext, err := g.Extension(x2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 3 || ext[0].ID != x0.ID || ext[1].ID != x1.ID || ext[2].ID != x2.ID {
		t.Fatalf("extension = %v, want [x0 x1 x2] in order", ext)
	}

	// Excluding applied antecedents stops the closure at them.
	applied := NewTxnSet(x0.ID)
	ext, err = g.Extension(x2.ID, applied.Has)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 2 || ext[0].ID != x1.ID || ext[1].ID != x2.ID {
		t.Fatalf("extension minus applied = %v, want [x1 x2]", ext)
	}

	// A mid-chain applied transaction cuts off everything before it.
	applied = NewTxnSet(x1.ID)
	ext, err = g.Extension(x2.ID, applied.Has)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 1 || ext[0].ID != x2.ID {
		t.Fatalf("extension with applied mid-chain = %v, want [x2]", ext)
	}

	if _, err := g.Extension(xid("zz", 1), nil); err == nil {
		t.Error("extension of unpublished txn should fail")
	}
}

func TestExtensionDiamond(t *testing.T) {
	// x3 consumes values from two branches that share a common root.
	s := MustSchema(NewRelation("F", 2, "org", "prot", "fn"))
	g := NewAntecedentGraph(s)
	root := NewTransaction(xid("a", 0),
		Insert("F", Strs("rat", "p1", "v"), "a"),
		Insert("F", Strs("rat", "p2", "w"), "a"))
	l := NewTransaction(xid("b", 0), Modify("F", Strs("rat", "p1", "v"), Strs("rat", "p1", "v2"), "b"))
	r := NewTransaction(xid("c", 0), Modify("F", Strs("rat", "p2", "w"), Strs("rat", "p2", "w2"), "c"))
	top := NewTransaction(xid("d", 0),
		Delete("F", Strs("rat", "p1", "v2"), "d"),
		Delete("F", Strs("rat", "p2", "w2"), "d"))
	for _, x := range []*Transaction{root, l, r, top} {
		if err := g.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	ext, err := g.Extension(top.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 4 {
		t.Fatalf("diamond extension = %v, want all 4 (root deduplicated)", ext)
	}
	for i := 1; i < len(ext); i++ {
		if ext[i-1].Order >= ext[i].Order {
			t.Fatal("extension not sorted by order")
		}
	}
}

func TestInOrderWindow(t *testing.T) {
	s := flatSchema(t)
	g := NewAntecedentGraph(s)
	var ids []TxnID
	for i := 0; i < 5; i++ {
		x := NewTransaction(xid("p", uint64(i)), Insert("F", Strs("o", string(rune('a'+i)), "v"), "p"))
		if err := g.Add(x); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, x.ID)
	}
	got := g.InOrder(1, 4)
	if len(got) != 3 || got[0].ID != ids[1] || got[2].ID != ids[3] {
		t.Fatalf("InOrder(1,4) = %v", got)
	}
	if got := g.InOrder(5, 10); len(got) != 0 {
		t.Errorf("InOrder beyond end = %v", got)
	}
}
