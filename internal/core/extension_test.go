package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func buildChain(t *testing.T, s *Schema) (*AntecedentGraph, []*Transaction) {
	t.Helper()
	g := NewAntecedentGraph(s)
	x0 := NewTransaction(xid("a", 0), Insert("F", Strs("rat", "p1", "v0"), "a"))
	x1 := NewTransaction(xid("b", 0), Modify("F", Strs("rat", "p1", "v0"), Strs("rat", "p1", "v1"), "b"))
	x2 := NewTransaction(xid("c", 0), Modify("F", Strs("rat", "p1", "v1"), Strs("rat", "p1", "v2"), "c"))
	for _, x := range []*Transaction{x0, x1, x2} {
		if err := g.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	return g, []*Transaction{x0, x1, x2}
}

func TestUpdateExtensionFlattening(t *testing.T) {
	s := flatSchema(t)
	_, xs := buildChain(t, s)
	ue := NewUpdateExtension(s, xs[2].ID, xs, 1)
	if ue.Malformed() != nil {
		t.Fatal(ue.Malformed())
	}
	if len(ue.Operation) != 1 || ue.Operation[0].Op != OpInsert ||
		!ue.Operation[0].Tuple.Equal(Strs("rat", "p1", "v2")) {
		t.Fatalf("operation = %v", ue.Operation)
	}
	if ue.Priority != 1 || ue.Root != xs[2].ID || len(ue.IDs) != 3 {
		t.Errorf("fields: %+v", ue)
	}
}

func TestUpdateExtensionSubsumption(t *testing.T) {
	s := flatSchema(t)
	_, xs := buildChain(t, s)
	full := NewUpdateExtension(s, xs[2].ID, xs, 1)
	prefix := NewUpdateExtension(s, xs[1].ID, xs[:2], 1)
	other := NewUpdateExtension(s, xid("z", 0),
		[]*Transaction{NewTransaction(xid("z", 0), Insert("F", Strs("dog", "p9", "q"), "z"))}, 1)
	if !full.Subsumes(prefix) {
		t.Error("full should subsume prefix")
	}
	if prefix.Subsumes(full) {
		t.Error("prefix should not subsume full")
	}
	if full.Subsumes(other) || other.Subsumes(full) {
		t.Error("disjoint extensions should not subsume")
	}
	if !full.Subsumes(full) {
		t.Error("subsumption is reflexive")
	}
}

func TestUpdateExtensionConflictsExcludeShared(t *testing.T) {
	s := flatSchema(t)
	g := NewAntecedentGraph(s)
	root := NewTransaction(xid("a", 0), Insert("F", Strs("rat", "p1", "v"), "a"))
	left := NewTransaction(xid("b", 0), Modify("F", Strs("rat", "p1", "v"), Strs("rat", "p1", "L"), "b"))
	right := NewTransaction(xid("c", 0), Modify("F", Strs("rat", "p1", "v"), Strs("rat", "p1", "R"), "c"))
	for _, x := range []*Transaction{root, left, right} {
		if err := g.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	ueL := NewUpdateExtension(s, left.ID, []*Transaction{root, left}, 1)
	ueR := NewUpdateExtension(s, right.ID, []*Transaction{root, right}, 1)
	cs := ueL.Conflicts(s, ueR)
	if len(cs) == 0 {
		t.Fatal("diverging branches should conflict")
	}
	// The conflict must be attributed to the diverging modifications (the
	// shared root is excluded), i.e. a modify-source conflict on value v.
	foundModSrc := false
	for _, c := range cs {
		if c.Type == ConflictModifySource {
			foundModSrc = true
		}
	}
	if !foundModSrc {
		t.Errorf("conflicts = %v, want modify-source on shared root's value", cs)
	}
	shared := ueL.SharedWith(ueR)
	if len(shared) != 1 || shared[0] != root.ID {
		t.Errorf("shared = %v", shared)
	}
}

func TestUpdateExtensionMalformed(t *testing.T) {
	s := flatSchema(t)
	// Two inserts landing on the same live value via modify: malformed.
	x := NewTransaction(xid("a", 0),
		Insert("F", Strs("rat", "p1", "v"), "a"),
		Insert("F", Strs("rat", "p2", "w"), "a"),
	)
	y := NewTransaction(xid("b", 0),
		Modify("F", Strs("rat", "p2", "w"), Strs("rat", "p1", "v"), "b"),
	)
	ue := NewUpdateExtension(s, y.ID, []*Transaction{x, y}, 1)
	if ue.Malformed() == nil {
		t.Error("colliding chain should be malformed")
	}
	// TouchedKeys falls back to the raw footprint.
	if len(ue.TouchedKeys(s)) == 0 {
		t.Error("malformed extension should still expose touched keys")
	}
}

func TestTouchedKeys(t *testing.T) {
	s := flatSchema(t)
	x := NewTransaction(xid("a", 0),
		Insert("F", Strs("rat", "p1", "v"), "a"),
		Modify("F", Strs("rat", "p1", "v"), Strs("rat", "p2", "v"), "a"),
	)
	ue := NewUpdateExtension(s, x.ID, []*Transaction{x}, 1)
	keys := ue.TouchedKeys(s)
	// Flattened to +F(rat,p2,v): touches key (rat,p2) only... but the
	// flatten keeps only the final insert, so one key.
	if len(keys) != 1 {
		t.Fatalf("touched keys = %v", keys)
	}
}

// generalExtension is what NewUpdateExtension computed before one-update
// extensions became their transaction: a map of IDs and a flattened
// footprint for every list.
type generalExtension struct {
	ids       TxnSet
	op        []Update
	malformed error
}

func newGeneralExtension(s *Schema, list []*Transaction) generalExtension {
	g := generalExtension{ids: make(TxnSet)}
	g.ids.AddAll(list)
	g.op, g.malformed = Flatten(s, UpdateFootprint(list))
	return g
}

// generalConflicts is Conflicts over a fresh index on every call, with the
// shared transactions found through the ID maps.
func generalConflicts(s *Schema, a, b *UpdateExtension) []Conflict {
	ga, gb := newGeneralExtension(s, a.Source), newGeneralExtension(s, b.Source)
	shared := make(TxnSet)
	for id := range ga.ids {
		if gb.ids.Has(id) {
			shared.Add(id)
		}
	}
	if len(shared) == 0 {
		probe, indexed := a.Operation, b.Operation
		if len(probe) > len(indexed) {
			probe, indexed = indexed, probe
		}
		return newConflictIndex(s, indexed).probeAll(probe)
	}
	opA, opB := generalFlattenMinus(s, a.Source, shared), generalFlattenMinus(s, b.Source, shared)
	if len(opA) > len(opB) {
		opA, opB = opB, opA
	}
	return newConflictIndex(s, opB).probeAll(opA)
}

func generalFlattenMinus(s *Schema, list []*Transaction, drop TxnSet) []Update {
	var kept []*Transaction
	for _, x := range list {
		if !drop.Has(x.ID) {
			kept = append(kept, x)
		}
	}
	fp := UpdateFootprint(kept)
	if op, err := Flatten(s, fp); err == nil {
		return op
	}
	return fp
}

// generalTouchedKeys is TouchedKeys deduplicating through a map.
func generalTouchedKeys(s *Schema, ue *UpdateExtension) []tupleKey {
	ops := ue.Operation
	if ue.Malformed() != nil {
		ops = UpdateFootprint(ue.Source)
	}
	seen := map[tupleKey]bool{}
	out := []tupleKey{}
	for _, u := range ops {
		rel, ok := s.Relation(u.Rel)
		if !ok {
			continue
		}
		for _, t := range []Tuple{u.Tuple, u.New} {
			if t == nil {
				continue
			}
			if k := (tupleKey{rel: u.Rel, enc: rel.KeyEnc(t)}); !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// sameUpdates compares update lists by everything but the encoding caches.
func sameUpdates(a, b []Update) bool {
	return slices.EqualFunc(a, b, func(u, v Update) bool {
		return u.Equal(v) && u.Origin == v.Origin
	})
}

// sameConflictSet reports whether two conflict lists hold the same set.
func sameConflictSet(a, b []Conflict) bool {
	for _, c := range a {
		if !slices.Contains(b, c) {
			return false
		}
	}
	for _, c := range b {
		if !slices.Contains(a, c) {
			return false
		}
	}
	return true
}

// randomExtensionPool is a pool of transactions in application order over a
// small key space: mostly one update each, some of two or three, with
// modifies back to their source, updates over an unknown relation, and
// inserts deleted within their own transaction among them.
func randomExtensionPool(r *rand.Rand, s *Schema, n int) []*Transaction {
	tuple := func() Tuple {
		return Strs("o", fmt.Sprintf("p%d", r.Intn(3)), fmt.Sprintf("f%d", r.Intn(2)))
	}
	update := func(origin PeerID) Update {
		t := tuple()
		rel := "F"
		if r.Intn(20) == 0 {
			rel = "Z" // unknown: the extension is malformed
		}
		switch r.Intn(4) {
		case 0:
			return Delete(rel, t, origin)
		case 1:
			if r.Intn(3) == 0 {
				return Modify(rel, t, t, origin) // back to its source
			}
			return Modify(rel, t, tuple(), origin)
		default:
			return Insert(rel, t, origin)
		}
	}
	pool := make([]*Transaction, n)
	for i := range pool {
		origin := PeerID(fmt.Sprintf("o%d", r.Intn(4)))
		var us []Update
		switch r.Intn(6) {
		case 0:
			us = []Update{update(origin), update(origin)}
		case 1:
			t := tuple()
			us = []Update{Insert("F", t, origin), Delete("F", t, origin)}
		case 2:
			us = []Update{update(origin), update(origin), update(origin)}
		default:
			us = []Update{update(origin)}
		}
		x := NewTransaction(TxnID{Origin: origin, Seq: uint64(i)}, us...)
		x.Order = uint64(i + 1)
		if r.Intn(2) == 0 {
			x.PrecomputeEncodings(s)
		}
		pool[i] = x
	}
	return pool
}

// TestUpdateExtensionMatchesGeneral: an update extension computed from the
// shape of its list — a one-update list as its transaction, IDs as a sorted
// slice, no index against a one-update side, touched keys deduplicated
// without a map — answers exactly as the general computation does, over
// random one- and multi-update lists, overlapping ones and ones that list
// a transaction twice included.
func TestUpdateExtensionMatchesGeneral(t *testing.T) {
	s := flatSchema(t)
	r := rand.New(rand.NewSource(1))
	var exts []*UpdateExtension
	for round := 0; round < 200; round++ {
		pool := randomExtensionPool(r, s, 6)
		exts = exts[:0]
		for k := 0; k < 8; k++ {
			// Mostly one transaction; otherwise an ordered subset of the
			// pool, which overlaps the other extensions of the round.
			var list []*Transaction
			if r.Intn(2) == 0 {
				list = []*Transaction{pool[r.Intn(len(pool))]}
			} else {
				for _, x := range pool {
					if r.Intn(3) == 0 {
						list = append(list, x)
					}
				}
				if len(list) > 0 && r.Intn(8) == 0 {
					list = append(list[:1:1], list...) // a transaction listed twice
				}
			}
			ue := NewUpdateExtension(s, TxnID{Origin: "root"}, list, 1)
			g := newGeneralExtension(s, list)
			if (ue.Malformed() == nil) != (g.malformed == nil) || !sameUpdates(ue.Operation, g.op) {
				t.Fatalf("%v: operation %v (%v), general %v (%v)", list, ue.Operation, ue.Malformed(), g.op, g.malformed)
			}
			if !slices.Equal(ue.IDs, g.ids.Sorted()) {
				t.Fatalf("%v: IDs %v, general %v", list, ue.IDs, g.ids.Sorted())
			}
			if got, want := ue.TouchedKeys(s), generalTouchedKeys(s, ue); !slices.Equal(got, want) {
				t.Fatalf("%v: touched %v, general %v", list, got, want)
			}
			exts = append(exts, ue)
		}
		for _, a := range exts {
			for _, b := range exts {
				ga, gb := newGeneralExtension(s, a.Source), newGeneralExtension(s, b.Source)
				subsumes := len(ga.ids) >= len(gb.ids)
				var shared []TxnID
				for _, id := range gb.ids.Sorted() {
					if ga.ids.Has(id) {
						shared = append(shared, id)
					} else {
						subsumes = false
					}
				}
				if a.Subsumes(b) != subsumes {
					t.Fatalf("%v ⊇ %v: %v, general %v", a.IDs, b.IDs, a.Subsumes(b), subsumes)
				}
				if got := a.SharedWith(b); !slices.Equal(got, shared) {
					t.Fatalf("%v ∩ %v: %v, general %v", a.IDs, b.IDs, got, shared)
				}
				if a.Malformed() != nil || b.Malformed() != nil {
					continue // CheckState rejects it before FindConflicts
				}
				got, want := a.Conflicts(s, b), generalConflicts(s, a, b)
				if !slices.Equal(got, want) {
					t.Fatalf("conflicts of %v and %v: %v, general %v", a.Source, b.Source, got, want)
				}
				opA, opB := a.Operation, b.Operation
				if len(shared) > 0 {
					drop := NewTxnSet(shared...)
					opA, opB = generalFlattenMinus(s, a.Source, drop), generalFlattenMinus(s, b.Source, drop)
				}
				if naive := SetsConflictNaive(s, opA, opB); !sameConflictSet(got, naive) {
					t.Fatalf("conflicts of %v and %v: %v, naive %v", a.Source, b.Source, got, naive)
				}
			}
		}
	}
}

// TestOneUpdateExtensionEdges pins the cases where a one-update list is not
// its own operation, and the one where it is.
func TestOneUpdateExtensionEdges(t *testing.T) {
	s := flatSchema(t)
	v, w := Strs("o", "p", "v"), Strs("o", "p", "w")
	rows := []struct {
		name      string
		u         Update
		ops       int
		malformed bool
	}{
		{"insert", Insert("F", v, "a"), 1, false},
		{"modify", Modify("F", v, w, "a"), 1, false},
		{"modify back to its source", Modify("F", v, v, "a"), 0, false},
		{"unknown relation", Insert("Z", v, "a"), 0, true},
		{"modify without a replacement", Update{Op: OpModify, Rel: "F", Tuple: v, Origin: "a"}, 1, false},
	}
	for _, row := range rows {
		x := NewTransaction(xid("a", 0), row.u)
		ue := NewUpdateExtension(s, x.ID, []*Transaction{x}, 1)
		want, err := Flatten(s, x.Updates)
		if (ue.Malformed() != nil) != row.malformed || (err != nil) != row.malformed ||
			len(ue.Operation) != row.ops || !sameUpdates(ue.Operation, want) {
			t.Errorf("%s: operation %v (%v), Flatten %v (%v)", row.name, ue.Operation, ue.Malformed(), want, err)
		}
		aliased := len(ue.Operation) == 1 && &ue.Operation[0] == &x.Updates[0]
		if one := row.name == "insert" || row.name == "modify"; aliased != one {
			t.Errorf("%s: operation aliases the transaction: %v", row.name, aliased)
		}
	}
}

// TestUpdateExtensionsShareRunScratch builds the extensions of a round the
// way a run does — by value, on one scratch — and interleaves their touched
// keys, indexes and conflicts, so IDs and touched keys are windows of the
// same buffers and dedup goes through the one shared map. Each answers as
// the general computation does when it is asked, and still does once every
// other extension of the round has written to the scratch. The rounds
// reuse one scratch, reset between them as a pooled one is, so its buffers
// have room and the windows are carved out of one backing array.
func TestUpdateExtensionsShareRunScratch(t *testing.T) {
	s := flatSchema(t)
	r := rand.New(rand.NewSource(2))
	rs := newRunScratch()
	for round := 0; round < 200; round++ {
		rs.reset()
		pool := randomExtensionPool(r, s, 6)
		exts := make([]UpdateExtension, 8)
		for k := range exts {
			var list []*Transaction
			if r.Intn(2) == 0 {
				list = []*Transaction{pool[r.Intn(len(pool))]}
			} else {
				for _, x := range pool {
					if r.Intn(3) == 0 {
						list = append(list, x)
					}
				}
			}
			exts[k].init(s, nil, rs, TxnID{Origin: "root"}, list, 1)
		}
		check := func(ue *UpdateExtension) {
			t.Helper()
			g := newGeneralExtension(s, ue.Source)
			if (ue.Malformed() == nil) != (g.malformed == nil) || !sameUpdates(ue.Operation, g.op) {
				t.Fatalf("%v: operation %v (%v), general %v (%v)", ue.Source, ue.Operation, ue.Malformed(), g.op, g.malformed)
			}
			if !slices.Equal(ue.IDs, g.ids.Sorted()) {
				t.Fatalf("%v: IDs %v, general %v", ue.Source, ue.IDs, g.ids.Sorted())
			}
			if got, want := ue.TouchedKeys(s), generalTouchedKeys(s, ue); !slices.Equal(got, want) {
				t.Fatalf("%v: touched %v, general %v", ue.Source, got, want)
			}
			if len(rs.seen) != 0 {
				t.Fatalf("%v: %d keys left in the dedup map", ue.Source, len(rs.seen))
			}
		}
		for _, i := range r.Perm(len(exts)) {
			check(&exts[i])
			a, b := &exts[i], &exts[r.Intn(len(exts))]
			if a.Malformed() != nil || b.Malformed() != nil {
				continue
			}
			if got, want := a.Conflicts(s, b), generalConflicts(s, a, b); !slices.Equal(got, want) {
				t.Fatalf("conflicts of %v and %v: %v, general %v", a.Source, b.Source, got, want)
			}
		}
		for i := range exts {
			check(&exts[i])
			for j := range exts {
				a, b := &exts[i], &exts[j]
				if a.Malformed() != nil || b.Malformed() != nil {
					continue
				}
				if got, want := a.Conflicts(s, b), generalConflicts(s, a, b); !slices.Equal(got, want) {
					t.Fatalf("conflicts of %v and %v: %v, general %v", a.Source, b.Source, got, want)
				}
			}
		}
	}
}
