package core

import (
	"errors"
	"math/rand"
	"testing"
)

func TestInstanceInsertDeleteModify(t *testing.T) {
	s := flatSchema(t)
	in := NewInstance(s)
	if err := in.Apply(Insert("F", Strs("rat", "p1", "a"), "x")); err != nil {
		t.Fatal(err)
	}
	if got, ok := in.Lookup("F", Strs("rat", "p1")); !ok || !got.Equal(Strs("rat", "p1", "a")) {
		t.Fatalf("lookup after insert: %v %v", got, ok)
	}
	// Idempotent re-insert.
	if err := in.Apply(Insert("F", Strs("rat", "p1", "a"), "y")); err != nil {
		t.Errorf("identical re-insert should be compatible: %v", err)
	}
	// Key collision.
	if err := in.Apply(Insert("F", Strs("rat", "p1", "b"), "y")); err == nil {
		t.Error("conflicting insert should be incompatible")
	}
	// Modify.
	if err := in.Apply(Modify("F", Strs("rat", "p1", "a"), Strs("rat", "p1", "b"), "x")); err != nil {
		t.Fatal(err)
	}
	if got, _ := in.Lookup("F", Strs("rat", "p1")); !got.Equal(Strs("rat", "p1", "b")) {
		t.Fatalf("lookup after modify: %v", got)
	}
	// Modify with stale source.
	if err := in.Apply(Modify("F", Strs("rat", "p1", "a"), Strs("rat", "p1", "c"), "x")); err == nil {
		t.Error("modify of stale source should be incompatible")
	}
	// Delete wrong value.
	if err := in.Apply(Delete("F", Strs("rat", "p1", "a"), "x")); err == nil {
		t.Error("delete of stale value should be incompatible")
	}
	// Delete.
	if err := in.Apply(Delete("F", Strs("rat", "p1", "b"), "x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := in.Lookup("F", Strs("rat", "p1")); ok {
		t.Error("tuple should be gone")
	}
	// Delete absent.
	if err := in.Apply(Delete("F", Strs("rat", "p1", "b"), "x")); err == nil {
		t.Error("delete of absent tuple should be incompatible")
	}
	// Modify absent source.
	if err := in.Apply(Modify("F", Strs("no", "p", "a"), Strs("no", "p", "b"), "x")); err == nil {
		t.Error("modify of absent source should be incompatible")
	}
}

func TestInstanceModifyKeyMove(t *testing.T) {
	s := flatSchema(t)
	in := NewInstance(s)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(in.Apply(Insert("F", Strs("rat", "p1", "a"), "x")))
	must(in.Apply(Insert("F", Strs("rat", "p2", "b"), "x")))
	// Key move onto an occupied key.
	if err := in.Apply(Modify("F", Strs("rat", "p1", "a"), Strs("rat", "p2", "a"), "x")); err == nil {
		t.Error("key move onto occupied key should fail")
	}
	// Key move onto a free key.
	must(in.Apply(Modify("F", Strs("rat", "p1", "a"), Strs("rat", "p3", "a"), "x")))
	if _, ok := in.Lookup("F", Strs("rat", "p1")); ok {
		t.Error("old key should be vacated")
	}
	if got, ok := in.Lookup("F", Strs("rat", "p3")); !ok || !got.Equal(Strs("rat", "p3", "a")) {
		t.Errorf("new key missing: %v %v", got, ok)
	}
}

func fkSchema(t *testing.T) *Schema {
	t.Helper()
	fn := NewRelation("Function", 2, "organism", "protein", "function")
	xref := NewRelation("XRef", 3, "organism", "protein", "db")
	xref.ForeignKeys = []ForeignKey{{Attrs: []int{0, 1}, RefRel: "Function"}}
	return MustSchema(fn, xref)
}

func TestInstanceForeignKeys(t *testing.T) {
	s := fkSchema(t)
	in := NewInstance(s)
	// Dangling insert.
	if err := in.Apply(Insert("XRef", Strs("rat", "p1", "genbank"), "x")); err == nil {
		t.Error("dangling reference should be incompatible")
	}
	if err := in.Apply(Insert("Function", Strs("rat", "p1", "a"), "x")); err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(Insert("XRef", Strs("rat", "p1", "genbank"), "x")); err != nil {
		t.Fatalf("valid reference rejected: %v", err)
	}
	// Deleting a referenced key.
	if err := in.Apply(Delete("Function", Strs("rat", "p1", "a"), "x")); err == nil {
		t.Error("deleting referenced key should be incompatible")
	}
	// Non-key modify of the referenced tuple is fine.
	if err := in.Apply(Modify("Function", Strs("rat", "p1", "a"), Strs("rat", "p1", "b"), "x")); err != nil {
		t.Errorf("non-key modify of referenced tuple rejected: %v", err)
	}
	// Key-moving the referenced tuple breaks the reference.
	if err := in.Apply(Modify("Function", Strs("rat", "p1", "b"), Strs("rat", "p9", "b"), "x")); err == nil {
		t.Error("key move of referenced tuple should be incompatible")
	}
	// Remove the reference, then the key move works.
	if err := in.Apply(Delete("XRef", Strs("rat", "p1", "genbank"), "x")); err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(Modify("Function", Strs("rat", "p1", "b"), Strs("rat", "p9", "b"), "x")); err != nil {
		t.Errorf("key move after dereference rejected: %v", err)
	}
}

// TestInstanceVerbatimInsertCountsOnce: inserting a referencing tuple the
// instance already holds is a no-op, so its reference counts once and goes
// with the one delete of the tuple.
func TestInstanceVerbatimInsertCountsOnce(t *testing.T) {
	s := fkSchema(t)
	in := NewInstance(s)
	parent, child := Strs("rat", "p1", "a"), Strs("rat", "p1", "genbank")
	for _, u := range []Update{
		Insert("Function", parent, "x"),
		Insert("XRef", child, "x"),
		Insert("XRef", child, "y"), // verbatim: compatible and a no-op
	} {
		if err := in.Apply(u); err != nil {
			t.Fatalf("%s: %v", u, err)
		}
	}
	if in.Len("XRef") != 1 {
		t.Fatalf("XRef holds %d tuples", in.Len("XRef"))
	}
	if n := in.fkCount["Function"][s.MustRelation("Function").KeyEnc(parent)]; n != 1 {
		t.Fatalf("parent referenced %d times, want 1", n)
	}
	if err := in.Apply(Delete("XRef", child, "x")); err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(Delete("Function", parent, "x")); err != nil {
		t.Errorf("parent delete after its one child went: %v", err)
	}
}

func TestIncompatibleErrorType(t *testing.T) {
	s := flatSchema(t)
	in := NewInstance(s)
	err := in.Apply(Delete("F", Strs("rat", "p1", "a"), "x"))
	var ie *IncompatibleError
	if !errors.As(err, &ie) {
		t.Fatalf("error should be *IncompatibleError, got %T", err)
	}
	if ie.Error() == "" {
		t.Error("empty error message")
	}
	if err := in.Apply(Update{Op: Op(9), Rel: "F", Tuple: Strs("a", "b", "c")}); err == nil {
		t.Error("unknown op should be incompatible")
	}
	if err := in.Apply(Insert("Zed", Strs("a"), "x")); err == nil {
		t.Error("unknown relation should be incompatible")
	}
}

func TestInstanceCloneAndEqual(t *testing.T) {
	s := fkSchema(t)
	in := NewInstance(s)
	if err := in.ApplyAll([]Update{
		Insert("Function", Strs("rat", "p1", "a"), "x"),
		Insert("XRef", Strs("rat", "p1", "genbank"), "x"),
	}); err != nil {
		t.Fatal(err)
	}
	cp := in.Clone()
	if !in.Equal(cp) {
		t.Fatal("clone should equal original")
	}
	if err := cp.Apply(Insert("Function", Strs("mouse", "p2", "b"), "x")); err != nil {
		t.Fatal(err)
	}
	if in.Equal(cp) {
		t.Error("mutating clone should not affect original")
	}
	if in.Len("Function") != 1 || cp.Len("Function") != 2 {
		t.Error("Len mismatch after clone mutation")
	}
	if in.TotalLen() != 2 {
		t.Errorf("TotalLen = %d", in.TotalLen())
	}
	// FK counts must be deep-copied too.
	if err := cp.Apply(Delete("XRef", Strs("rat", "p1", "genbank"), "x")); err != nil {
		t.Fatal(err)
	}
	if err := in.Apply(Delete("Function", Strs("rat", "p1", "a"), "x")); err == nil {
		t.Error("original FK count should be unaffected by clone's delete")
	}
}

func TestInstanceTuplesAndKeysSorted(t *testing.T) {
	s := flatSchema(t)
	in := NewInstance(s)
	for _, tu := range []Tuple{Strs("z", "p", "1"), Strs("a", "p", "1"), Strs("m", "p", "1")} {
		if err := in.Apply(Insert("F", tu, "x")); err != nil {
			t.Fatal(err)
		}
	}
	ts := in.Tuples("F")
	if len(ts) != 3 || ts[0][0].Str() != "a" || ts[2][0].Str() != "z" {
		t.Errorf("Tuples not sorted: %v", ts)
	}
	ks := in.Keys("F")
	if len(ks) != 3 || ks[0] > ks[1] || ks[1] > ks[2] {
		t.Errorf("Keys not sorted: %v", ks)
	}
}

// TestOverlayMatchesClone: CompatibleAll via overlay agrees with trial
// application on a full clone, for random sequences.
func TestOverlayMatchesClone(t *testing.T) {
	s := flatSchema(t)
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 500; trial++ {
		base := NewInstance(s)
		for i := 0; i < r.Intn(5); i++ {
			org := []string{"rat", "mouse"}[r.Intn(2)]
			prot := []string{"p0", "p1"}[r.Intn(2)]
			_ = base.Apply(Insert("F", Strs(org, prot, "seed"), "x"))
		}
		seq := randomUpdateSet(r, 1+r.Intn(6))

		overlayErr := base.CompatibleAll(seq)
		clone := base.Clone()
		var cloneErr error
		for _, u := range seq {
			if cloneErr = clone.Apply(u); cloneErr != nil {
				break
			}
		}
		if (overlayErr == nil) != (cloneErr == nil) {
			t.Fatalf("trial %d: overlay=%v clone=%v seq=%v", trial, overlayErr, cloneErr, seq)
		}
		// CompatibleAll must never mutate the base.
		if overlayErr == nil && len(seq) > 0 {
			fresh := NewInstance(s)
			_ = fresh // base must be untouched regardless; check by re-running
			if err := base.CompatibleAll(seq); err != nil {
				t.Fatalf("trial %d: CompatibleAll not repeatable: %v", trial, err)
			}
		}
	}
}

func TestOverlayForeignKeys(t *testing.T) {
	s := fkSchema(t)
	in := NewInstance(s)
	// Sequence is internally consistent: insert parent then child.
	seq := []Update{
		Insert("Function", Strs("rat", "p1", "a"), "x"),
		Insert("XRef", Strs("rat", "p1", "genbank"), "x"),
	}
	if err := in.CompatibleAll(seq); err != nil {
		t.Fatalf("forward-referencing sequence should be compatible: %v", err)
	}
	// Child before parent is not.
	if err := in.CompatibleAll([]Update{seq[1], seq[0]}); err == nil {
		t.Error("child-before-parent should be incompatible")
	}
	// Delete parent while child pending in the same sequence.
	if err := in.ApplyAll(seq); err != nil {
		t.Fatal(err)
	}
	bad := []Update{Delete("Function", Strs("rat", "p1", "a"), "x")}
	if err := in.CompatibleAll(bad); err == nil {
		t.Error("deleting referenced parent should be incompatible in overlay")
	}
	good := []Update{
		Delete("XRef", Strs("rat", "p1", "genbank"), "x"),
		Delete("Function", Strs("rat", "p1", "a"), "x"),
	}
	if err := in.CompatibleAll(good); err != nil {
		t.Errorf("child-then-parent delete should be compatible: %v", err)
	}
}

// TestCompatibleAgreesWithCompatibleAll: the one-update check and the
// sequence check are one rule, so on every op against every state a key can
// be in they return the same verdict for the same reason.
func TestCompatibleAgreesWithCompatibleAll(t *testing.T) {
	s := fkSchema(t)
	in := NewInstance(s)
	for _, u := range []Update{
		Insert("Function", Strs("rat", "p1", "a"), "x"),
		Insert("Function", Strs("rat", "p2", "b"), "x"), // referenced below
		Insert("XRef", Strs("rat", "p2", "genbank"), "x"),
	} {
		if err := in.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	p1, p2, short := Strs("rat", "p1", "a"), Strs("rat", "p2", "b"), Strs("rat", "p3")
	arity := s.MustRelation("Function").Validate(short).Error()
	cases := []struct {
		name   string
		u      Update
		reason string // "" = compatible
	}{
		{"insert absent", Insert("Function", Strs("rat", "p3", "c"), "y"), ""},
		{"insert present-equal", Insert("Function", p1, "y"), ""},
		{"insert present-different", Insert("Function", Strs("rat", "p1", "z"), "y"), "key already bound to " + p1.String()},
		{"insert dangling FK", Insert("XRef", Strs("rat", "p9", "embl"), "y"), "dangling reference into Function"},
		{"insert invalid", Insert("Function", short, "y"), arity},
		{"modify to invalid", Modify("Function", p1, short, "y"), arity},
		{"delete absent", Delete("Function", Strs("rat", "p3", "c"), "y"), "tuple absent"},
		{"delete present-equal", Delete("Function", p1, "y"), ""},
		{"delete present-different", Delete("Function", Strs("rat", "p1", "z"), "y"), "key bound to different value " + p1.String()},
		{"delete referenced", Delete("Function", p2, "y"), "key referenced by 1 tuple(s)"},
		{"modify absent", Modify("Function", Strs("rat", "p3", "c"), Strs("rat", "p3", "d"), "y"), "source tuple absent"},
		{"modify present-equal", Modify("Function", p1, Strs("rat", "p1", "d"), "y"), ""},
		{"modify present-different", Modify("Function", Strs("rat", "p1", "z"), Strs("rat", "p1", "d"), "y"), "source key bound to different value " + p1.String()},
		{"modify referenced, key kept", Modify("Function", p2, Strs("rat", "p2", "d"), "y"), ""},
		{"modify key-changing", Modify("Function", p1, Strs("rat", "p3", "a"), "y"), ""},
		{"modify key-changing onto bound key", Modify("Function", p1, Strs("rat", "p2", "a"), "y"), "replacement key already bound to " + p2.String()},
		{"modify key-changing, referenced", Modify("Function", p2, Strs("rat", "p3", "b"), "y"), "key referenced by 1 tuple(s)"},
		{"modify to dangling FK", Modify("XRef", Strs("rat", "p2", "genbank"), Strs("rat", "p9", "genbank"), "y"), "dangling reference into Function"},
		{"unknown relation", Insert("Zed", Strs("a"), "y"), "unknown relation Zed"},
		{"unknown op", Update{Op: Op(9), Rel: "Function", Tuple: p1}, "unknown op"},
	}
	reasonOf := func(err error) string {
		var ie *IncompatibleError
		if err == nil {
			return ""
		}
		if !errors.As(err, &ie) {
			t.Fatalf("not an *IncompatibleError: %v", err)
		}
		return ie.Reason
	}
	for _, c := range cases {
		one, all := reasonOf(in.Compatible(c.u)), reasonOf(in.CompatibleAll([]Update{c.u}))
		if one != all {
			t.Errorf("%s: Compatible says %q, CompatibleAll says %q", c.name, one, all)
		}
		if one != c.reason {
			t.Errorf("%s: reason %q, want %q", c.name, one, c.reason)
		}
	}
}
