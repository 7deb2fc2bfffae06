package core

import (
	"strings"
	"testing"
)

func TestTxnIDStringAndLess(t *testing.T) {
	a := xid("p1", 0)
	b := xid("p1", 1)
	c := xid("p2", 0)
	if a.String() != "p1:0" {
		t.Errorf("String = %q", a.String())
	}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Error("Less ordering broken")
	}
}

func TestNewTransactionForcesOrigin(t *testing.T) {
	x := NewTransaction(xid("p1", 0), Insert("F", Strs("a", "b", "c"), "someone-else"))
	if x.Updates[0].Origin != "p1" {
		t.Errorf("origin not forced: %s", x.Updates[0].Origin)
	}
}

func TestTransactionValidate(t *testing.T) {
	s := flatSchema(t)
	empty := &Transaction{ID: xid("p1", 0)}
	if err := empty.Validate(s); err == nil {
		t.Error("empty transaction should fail validation")
	}
	bad := NewTransaction(xid("p1", 0), Insert("F", Strs("a", "b"), "p1"))
	if err := bad.Validate(s); err == nil {
		t.Error("wrong arity should fail validation")
	}
	wrongOrigin := &Transaction{
		ID:      xid("p1", 0),
		Updates: []Update{Insert("F", Strs("a", "b", "c"), "p9")},
	}
	if err := wrongOrigin.Validate(s); err == nil {
		t.Error("mismatched origin should fail validation")
	}
	ok := NewTransaction(xid("p1", 0), Insert("F", Strs("a", "b", "c"), "p1"))
	if err := ok.Validate(s); err != nil {
		t.Errorf("valid transaction rejected: %v", err)
	}
}

func TestTransactionCloneAndString(t *testing.T) {
	x := NewTransaction(xid("p3", 0),
		Insert("F", Strs("rat", "prot1", "cell-metab"), "p3"))
	y := x.Clone()
	y.Updates[0] = Delete("F", Strs("z", "z", "z"), "p3")
	if x.Updates[0].Op != OpInsert {
		t.Error("Clone shares updates slice")
	}
	if !strings.Contains(x.String(), "Xp3:0") || !strings.Contains(x.String(), "cell-metab") {
		t.Errorf("String = %q", x.String())
	}
}

func TestUpdateFootprint(t *testing.T) {
	a := NewTransaction(xid("a", 0), Insert("F", Strs("1", "1", "1"), "a"))
	b := NewTransaction(xid("b", 0), Insert("F", Strs("2", "2", "2"), "b"), Delete("F", Strs("3", "3", "3"), "b"))
	xs := []*Transaction{b, a}
	fp := UpdateFootprint(xs)
	if len(fp) != 3 || fp[0].Op != OpInsert || fp[2].Op != OpInsert {
		t.Errorf("footprint = %v", fp)
	}
}

func TestTxnSet(t *testing.T) {
	s := NewTxnSet(xid("b", 1), xid("a", 2))
	if !s.Has(xid("a", 2)) || s.Has(xid("a", 3)) {
		t.Error("Has broken")
	}
	s.Add(xid("c", 0))
	s.AddAll([]*Transaction{NewTransaction(xid("d", 9), Insert("F", Strs("x", "y", "z"), "d"))})
	sorted := s.Sorted()
	if len(sorted) != 4 || sorted[0] != xid("a", 2) || sorted[3] != xid("d", 9) {
		t.Errorf("Sorted = %v", sorted)
	}
}

func TestUpdateStringsAndOps(t *testing.T) {
	ins := Insert("F", Strs("rat", "p1", "a"), "p3")
	if got := ins.String(); got != "+F(rat, p1, a; p3)" {
		t.Errorf("insert String = %q", got)
	}
	del := Delete("F", Strs("rat", "p1", "a"), "p3")
	if got := del.String(); got != "-F(rat, p1, a; p3)" {
		t.Errorf("delete String = %q", got)
	}
	mod := Modify("F", Strs("rat", "p1", "a"), Strs("rat", "p1", "b"), "p3")
	if got := mod.String(); got != "F(rat, p1, a -> rat, p1, b; p3)" {
		t.Errorf("modify String = %q", got)
	}
	if OpInsert.String() != "+" || OpDelete.String() != "-" || OpModify.String() != "~" {
		t.Error("Op sigils broken")
	}
	if Op(9).String() != "op(9)" {
		t.Error("unknown Op sigil broken")
	}
	if ins.Produces() == nil || ins.Consumes() != nil {
		t.Error("insert produces/consumes wrong")
	}
	if del.Produces() != nil || del.Consumes() == nil {
		t.Error("delete produces/consumes wrong")
	}
	if mod.Produces() == nil || mod.Consumes() == nil {
		t.Error("modify produces/consumes wrong")
	}
	bad := Update{Op: Op(9), Rel: "F", Tuple: Strs("a", "b", "c")}
	if bad.Produces() != nil || bad.Consumes() != nil || bad.String() == "" {
		t.Error("unknown op handling broken")
	}
}

func TestUpdateValidate(t *testing.T) {
	s := flatSchema(t)
	if err := Insert("F", Strs("a", "b", "c"), "p").Validate(s); err != nil {
		t.Errorf("valid insert rejected: %v", err)
	}
	if err := Insert("Zed", Strs("a"), "p").Validate(s); err == nil {
		t.Error("unknown relation accepted")
	}
	withNew := Update{Op: OpInsert, Rel: "F", Tuple: Strs("a", "b", "c"), New: Strs("a", "b", "d")}
	if err := withNew.Validate(s); err == nil {
		t.Error("insert with replacement tuple accepted")
	}
	if err := Modify("F", Strs("a", "b", "c"), Strs("a", "b"), "p").Validate(s); err == nil {
		t.Error("modify with bad replacement arity accepted")
	}
	if err := (Update{Op: Op(9), Rel: "F", Tuple: Strs("a", "b", "c")}).Validate(s); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{
		DecisionNone: "none", DecisionAccept: "accept",
		DecisionReject: "reject", DecisionDefer: "defer", Decision(9): "decision(9)",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), want)
		}
	}
}

func TestTxnPriority(t *testing.T) {
	x := NewTransaction(xid("p1", 0),
		Insert("F", Strs("a", "b", "c"), "p1"),
		Insert("F", Strs("d", "e", "f"), "p1"))
	if got := TxnPriority(TrustAll(3), x); got != 3 {
		t.Errorf("TrustAll priority = %d", got)
	}
	// Any untrusted update forces priority 0.
	alternating := TrustFunc(func(u Update) int {
		if u.Tuple[0].Str() == "a" {
			return 5
		}
		return 0
	})
	if got := TxnPriority(alternating, x); got != 0 {
		t.Errorf("partially untrusted txn priority = %d, want 0", got)
	}
	// Otherwise: max over updates.
	graded := TrustFunc(func(u Update) int {
		if u.Tuple[0].Str() == "a" {
			return 2
		}
		return 7
	})
	if got := TxnPriority(graded, x); got != 7 {
		t.Errorf("graded txn priority = %d, want max 7", got)
	}
	origins := TrustOrigins(map[PeerID]int{"p1": 4})
	if got := TxnPriority(origins, x); got != 4 {
		t.Errorf("origin trust priority = %d", got)
	}
	y := NewTransaction(xid("p9", 0), Insert("F", Strs("a", "b", "c"), "p9"))
	if got := TxnPriority(origins, y); got != 0 {
		t.Errorf("unlisted origin priority = %d, want 0", got)
	}
	if got := TxnPriority(nil, x); got != 0 {
		t.Errorf("nil trust priority = %d, want 0", got)
	}
}
