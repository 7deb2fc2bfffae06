package workload

import (
	"math"
	"testing"

	"orchestra/internal/core"
)

func TestSchemaShape(t *testing.T) {
	s := Schema()
	fn, ok := s.Relation("Function")
	if !ok || fn.Arity() != 3 || len(fn.Key) != 2 {
		t.Fatalf("Function relation malformed: %+v", fn)
	}
	xr, ok := s.Relation("XRef")
	if !ok || xr.Arity() != 4 || len(xr.Key) != 3 {
		t.Fatalf("XRef relation malformed: %+v", xr)
	}
	if len(xr.ForeignKeys) != 1 || xr.ForeignKeys[0].RefRel != "Function" {
		t.Fatalf("XRef foreign key malformed: %+v", xr.ForeignKeys)
	}
}

func TestDeterministicStreams(t *testing.T) {
	mk := func() []core.Update {
		g := New(Config{Seed: 7, TxnSize: 3})
		inst := core.NewInstance(Schema())
		var all []core.Update
		for i := 0; i < 10; i++ {
			ups := g.NextUpdates(inst, "p")
			if err := inst.ApplyAll(ups); err != nil {
				t.Fatal(err)
			}
			all = append(all, ups...)
		}
		return all
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("streams diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestUpdatesApplyCleanly(t *testing.T) {
	g := New(Config{Seed: 1, TxnSize: 4, KeySpace: 50})
	inst := core.NewInstance(Schema())
	for i := 0; i < 200; i++ {
		ups := g.NextUpdates(inst, "p")
		if err := inst.CompatibleAll(ups); err != nil {
			t.Fatalf("round %d: generated incompatible updates: %v\n%v", i, err, ups)
		}
		if err := inst.ApplyAll(ups); err != nil {
			t.Fatal(err)
		}
	}
	if inst.Len("Function") == 0 || inst.Len("XRef") == 0 {
		t.Error("workload produced no data")
	}
}

func TestXRefMean(t *testing.T) {
	g := New(Config{Seed: 3, TxnSize: 1, KeySpace: 10_000})
	inst := core.NewInstance(Schema())
	inserts, xrefs := 0, 0
	for i := 0; i < 3000; i++ {
		ups := g.NextUpdates(inst, "p")
		for _, u := range ups {
			if u.Op != core.OpInsert {
				continue
			}
			switch u.Rel {
			case "Function":
				inserts++
			case "XRef":
				xrefs++
			}
		}
		if err := inst.ApplyAll(ups); err != nil {
			t.Fatal(err)
		}
	}
	if inserts == 0 {
		t.Fatal("no inserts generated")
	}
	mean := float64(xrefs) / float64(inserts)
	if math.Abs(mean-DefaultXRefMean) > 1.0 {
		t.Errorf("xref mean = %.2f, want ~%.1f", mean, DefaultXRefMean)
	}
}

func TestZipfSkew(t *testing.T) {
	// The most frequent function value should dominate: with s = 1.5 the
	// top rank should cover a large fraction of draws.
	g := New(Config{Seed: 11, TxnSize: 1, KeySpace: 100_000})
	counts := map[string]int{}
	const draws = 5000
	for i := 0; i < draws; i++ {
		counts[g.function()]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if frac := float64(max) / draws; frac < 0.25 {
		t.Errorf("top function covers %.2f of draws; want heavy tail", frac)
	}
	if len(counts) < 5 {
		t.Errorf("only %d distinct functions drawn", len(counts))
	}
}

func TestReplacementsChangeValues(t *testing.T) {
	g := New(Config{Seed: 5, TxnSize: 1, KeySpace: 3})
	inst := core.NewInstance(Schema())
	mods := 0
	for i := 0; i < 100; i++ {
		ups := g.NextUpdates(inst, "p")
		for _, u := range ups {
			if u.Op == core.OpModify {
				mods++
				if u.Tuple.Equal(u.New) {
					t.Fatalf("identity replacement generated: %v", u)
				}
			}
		}
		if err := inst.ApplyAll(ups); err != nil {
			t.Fatal(err)
		}
	}
	if mods == 0 {
		t.Error("tiny key space should force replacements")
	}
}

func TestDeterministicXRefsAcrossPeers(t *testing.T) {
	// Two peers creating the same key must generate the same references.
	ga := New(Config{Seed: 100, TxnSize: 1, KeySpace: 1})
	gb := New(Config{Seed: 200, TxnSize: 1, KeySpace: 1})
	ia := core.NewInstance(Schema())
	ib := core.NewInstance(Schema())
	ua := ga.NextUpdates(ia, "a")
	ub := gb.NextUpdates(ib, "b")
	xa := map[string]bool{}
	for _, u := range ua {
		if u.Rel == "XRef" {
			xa[u.Tuple.Encode()] = true
		}
	}
	for _, u := range ub {
		if u.Rel == "XRef" && !xa[u.Tuple.Encode()] {
			t.Fatalf("peer b generated xref %v not generated by a", u.Tuple)
		}
	}
}
