package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func flatSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(NewRelation("F", 2, "org", "prot", "fn"))
}

func mustFlat(t *testing.T, s *Schema, us ...Update) []Update {
	t.Helper()
	out, err := Flatten(s, us)
	if err != nil {
		t.Fatalf("Flatten: %v", err)
	}
	return out
}

func TestFlattenInsertModifyChain(t *testing.T) {
	s := flatSchema(t)
	got := mustFlat(t, s,
		Insert("F", Strs("rat", "p1", "a"), "x"),
		Modify("F", Strs("rat", "p1", "a"), Strs("rat", "p1", "b"), "x"),
		Modify("F", Strs("rat", "p1", "b"), Strs("rat", "p1", "c"), "x"),
	)
	if len(got) != 1 || got[0].Op != OpInsert || !got[0].Tuple.Equal(Strs("rat", "p1", "c")) {
		t.Fatalf("got %v, want single +F(rat,p1,c)", got)
	}
}

func TestFlattenModifyChainCollapses(t *testing.T) {
	s := flatSchema(t)
	got := mustFlat(t, s,
		Modify("F", Strs("rat", "p1", "a"), Strs("rat", "p1", "b"), "x"),
		Modify("F", Strs("rat", "p1", "b"), Strs("rat", "p1", "c"), "x"),
	)
	if len(got) != 1 || got[0].Op != OpModify ||
		!got[0].Tuple.Equal(Strs("rat", "p1", "a")) || !got[0].New.Equal(Strs("rat", "p1", "c")) {
		t.Fatalf("got %v, want F(a->c)", got)
	}
}

func TestFlattenInsertDeleteVanishes(t *testing.T) {
	s := flatSchema(t)
	got := mustFlat(t, s,
		Insert("F", Strs("rat", "p1", "a"), "x"),
		Delete("F", Strs("rat", "p1", "a"), "x"),
	)
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestFlattenInsertModifyDelete(t *testing.T) {
	s := flatSchema(t)
	got := mustFlat(t, s,
		Insert("F", Strs("rat", "p1", "a"), "x"),
		Modify("F", Strs("rat", "p1", "a"), Strs("rat", "p1", "b"), "x"),
		Delete("F", Strs("rat", "p1", "b"), "x"),
	)
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestFlattenModifyDeleteBecomesDelete(t *testing.T) {
	s := flatSchema(t)
	got := mustFlat(t, s,
		Modify("F", Strs("rat", "p1", "a"), Strs("rat", "p1", "b"), "x"),
		Delete("F", Strs("rat", "p1", "b"), "x"),
	)
	if len(got) != 1 || got[0].Op != OpDelete || !got[0].Tuple.Equal(Strs("rat", "p1", "a")) {
		t.Fatalf("got %v, want -F(rat,p1,a)", got)
	}
}

func TestFlattenDeleteInsertSameKeyBecomesModify(t *testing.T) {
	s := flatSchema(t)
	got := mustFlat(t, s,
		Delete("F", Strs("rat", "p1", "a"), "x"),
		Insert("F", Strs("rat", "p1", "b"), "x"),
	)
	if len(got) != 1 || got[0].Op != OpModify ||
		!got[0].Tuple.Equal(Strs("rat", "p1", "a")) || !got[0].New.Equal(Strs("rat", "p1", "b")) {
		t.Fatalf("got %v, want F(a->b)", got)
	}
}

func TestFlattenDeleteInsertSameValueVanishes(t *testing.T) {
	s := flatSchema(t)
	got := mustFlat(t, s,
		Delete("F", Strs("rat", "p1", "a"), "x"),
		Insert("F", Strs("rat", "p1", "a"), "x"),
	)
	if len(got) != 0 {
		t.Fatalf("got %v, want empty (chain returns to source)", got)
	}
}

func TestFlattenModifyBackToSourceVanishes(t *testing.T) {
	s := flatSchema(t)
	got := mustFlat(t, s,
		Modify("F", Strs("rat", "p1", "a"), Strs("rat", "p1", "b"), "x"),
		Modify("F", Strs("rat", "p1", "b"), Strs("rat", "p1", "a"), "x"),
	)
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestFlattenPaperExample(t *testing.T) {
	// §4.2: [X3:2, X3:3] = [+F(mouse,prot2,cell-resp),
	// F((mouse,prot2,cell-resp)→(mouse,prot3,cell-resp))] minimizes to
	// {+F(mouse,prot3,cell-resp)} (the paper text has a typo; the
	// replacement changes prot2→prot3, so the flattened insert carries the
	// final tuple).
	s := flatSchema(t)
	got := mustFlat(t, s,
		Insert("F", Strs("mouse", "prot2", "cell-resp"), "p3"),
		Modify("F", Strs("mouse", "prot2", "cell-resp"), Strs("mouse", "prot3", "cell-resp"), "p3"),
	)
	if len(got) != 1 || got[0].Op != OpInsert || !got[0].Tuple.Equal(Strs("mouse", "prot3", "cell-resp")) {
		t.Fatalf("got %v", got)
	}
}

func TestFlattenIndependentChains(t *testing.T) {
	s := flatSchema(t)
	got := mustFlat(t, s,
		Insert("F", Strs("rat", "p1", "a"), "x"),
		Insert("F", Strs("mouse", "p2", "b"), "x"),
		Modify("F", Strs("mouse", "p2", "b"), Strs("mouse", "p2", "c"), "x"),
		Delete("F", Strs("dog", "p3", "d"), "x"),
	)
	if len(got) != 3 {
		t.Fatalf("got %v, want 3 independent updates", got)
	}
}

func TestFlattenIdempotentOps(t *testing.T) {
	s := flatSchema(t)
	got := mustFlat(t, s,
		Insert("F", Strs("rat", "p1", "a"), "x"),
		Insert("F", Strs("rat", "p1", "a"), "y"),
	)
	if len(got) != 1 {
		t.Fatalf("duplicate insert not collapsed: %v", got)
	}
	got = mustFlat(t, s,
		Delete("F", Strs("rat", "p1", "a"), "x"),
		Delete("F", Strs("rat", "p1", "a"), "y"),
	)
	if len(got) != 1 {
		t.Fatalf("duplicate delete not collapsed: %v", got)
	}
	got = mustFlat(t, s,
		Modify("F", Strs("rat", "p1", "a"), Strs("rat", "p1", "a"), "x"),
	)
	if len(got) != 0 {
		t.Fatalf("identity modify not dropped: %v", got)
	}
}

func TestFlattenErrors(t *testing.T) {
	s := flatSchema(t)
	if _, err := Flatten(s, []Update{Insert("Z", Strs("a", "b", "c"), "x")}); err == nil {
		t.Error("unknown relation should fail")
	}
	if _, err := Flatten(s, []Update{{Op: Op(9), Rel: "F", Tuple: Strs("a", "b", "c")}}); err == nil {
		t.Error("unknown op should fail")
	}
	// Two live chains colliding on the same value.
	_, err := Flatten(s, []Update{
		Insert("F", Strs("rat", "p1", "a"), "x"),
		Modify("F", Strs("rat", "p2", "b"), Strs("rat", "p1", "a"), "x"),
	})
	if err == nil {
		t.Error("live-value collision should fail")
	}
}

// genUpdateSeq produces a random well-formed update sequence against a
// scratch instance, so that the sequence is applicable from the base state.
func genUpdateSeq(r *rand.Rand, s *Schema, base *Instance, n int) []Update {
	inst := base.Clone()
	var seq []Update
	orgs := []string{"rat", "mouse", "dog", "cat"}
	fns := []string{"a", "b", "c", "d", "e"}
	for len(seq) < n {
		org := orgs[r.Intn(len(orgs))]
		prot := []string{"p0", "p1", "p2"}[r.Intn(3)]
		fn := fns[r.Intn(len(fns))]
		key := Strs(org, prot)
		cur, exists := inst.Lookup("F", key)
		var u Update
		switch {
		case !exists:
			u = Insert("F", Strs(org, prot, fn), "x")
		case r.Intn(3) == 0:
			u = Delete("F", cur, "x")
		default:
			u = Modify("F", cur, Strs(org, prot, fn), "x")
		}
		if inst.Apply(u) != nil {
			continue
		}
		seq = append(seq, u)
	}
	return seq
}

// TestFlattenEquivalence is the core flatten property: applying the
// flattened set to any instance where the original sequence applies yields
// the same final instance.
func TestFlattenEquivalence(t *testing.T) {
	s := flatSchema(t)
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		base := NewInstance(s)
		// Seed some tuples so deletes/modifies of pre-existing state occur.
		for i := 0; i < r.Intn(6); i++ {
			org := []string{"rat", "mouse", "dog", "cat"}[r.Intn(4)]
			prot := []string{"p0", "p1", "p2"}[r.Intn(3)]
			_ = base.Apply(Insert("F", Strs(org, prot, "seed"), "x"))
		}
		seq := genUpdateSeq(r, s, base, 1+r.Intn(12))

		direct := base.Clone()
		if err := direct.ApplyAll(seq); err != nil {
			t.Fatalf("trial %d: direct apply: %v", trial, err)
		}
		flat, err := Flatten(s, seq)
		if err != nil {
			t.Fatalf("trial %d: flatten: %v", trial, err)
		}
		viaFlat := base.Clone()
		if err := viaFlat.ApplyAll(flat); err != nil {
			t.Fatalf("trial %d: flattened apply: %v (seq=%v flat=%v)", trial, err, seq, flat)
		}
		if !direct.Equal(viaFlat) {
			t.Fatalf("trial %d: instances diverge\nseq:  %v\nflat: %v", trial, seq, flat)
		}
	}
}

// TestFlattenIdempotent checks Flatten(Flatten(s)) == Flatten(s).
func TestFlattenIdempotent(t *testing.T) {
	s := flatSchema(t)
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		base := NewInstance(s)
		seq := genUpdateSeq(r, s, base, 1+r.Intn(10))
		once, err := Flatten(s, seq)
		if err != nil {
			t.Fatal(err)
		}
		twice, err := Flatten(s, once)
		if err != nil {
			t.Fatalf("re-flatten failed: %v (once=%v)", err, once)
		}
		if len(once) != len(twice) {
			t.Fatalf("not idempotent: %v vs %v", once, twice)
		}
		for i := range once {
			if !once[i].Equal(twice[i]) {
				t.Fatalf("not idempotent at %d: %v vs %v", i, once, twice)
			}
		}
	}
}

// TestFlattenOutputDeterministic ensures sorted output regardless of
// insertion order of independent chains.
func TestFlattenOutputDeterministic(t *testing.T) {
	s := flatSchema(t)
	a := mustFlat(t, s,
		Insert("F", Strs("x", "p", "1"), "o"),
		Insert("F", Strs("a", "p", "1"), "o"),
	)
	b := mustFlat(t, s,
		Insert("F", Strs("a", "p", "1"), "o"),
		Insert("F", Strs("x", "p", "1"), "o"),
	)
	if len(a) != 2 || len(b) != 2 || !a[0].Equal(b[0]) || !a[1].Equal(b[1]) {
		t.Fatalf("non-deterministic output: %v vs %v", a, b)
	}
}

func TestFlattenQuickNeverPanics(t *testing.T) {
	s := flatSchema(t)
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		base := NewInstance(s)
		seq := genUpdateSeq(r, s, base, int(n%16)+1)
		_, err := Flatten(s, seq)
		return err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFlattenScratchForgetsItsKeys runs Flatten's body on one explicit
// scratch over the update sequences of the tests above, error returns
// included, then over random ones, and checks that deleting the keys the
// chains wrote empties both maps — so release never has to sweep a map's
// whole capacity.
func TestFlattenScratchForgetsItsKeys(t *testing.T) {
	s := flatSchema(t)
	a, b, c := Strs("rat", "p1", "a"), Strs("rat", "p1", "b"), Strs("rat", "p1", "c")
	seqs := [][]Update{
		{Insert("F", a, "x"), Modify("F", a, b, "x"), Modify("F", b, c, "x")},
		{Modify("F", a, b, "x"), Modify("F", b, c, "x")},
		{Insert("F", a, "x"), Delete("F", a, "x")},
		{Insert("F", a, "x"), Modify("F", a, b, "x"), Delete("F", b, "x")},
		{Modify("F", a, b, "x"), Delete("F", b, "x")},
		{Delete("F", a, "x"), Insert("F", b, "x")},
		{Delete("F", a, "x"), Insert("F", a, "x")},
		{Modify("F", a, b, "x"), Modify("F", b, a, "x")},
		{
			Insert("F", Strs("mouse", "prot2", "cell-resp"), "p3"),
			Modify("F", Strs("mouse", "prot2", "cell-resp"), Strs("mouse", "prot3", "cell-resp"), "p3"),
		},
		{
			Insert("F", a, "x"),
			Insert("F", Strs("mouse", "p2", "b"), "x"),
			Modify("F", Strs("mouse", "p2", "b"), Strs("mouse", "p2", "c"), "x"),
			Delete("F", Strs("dog", "p3", "d"), "x"),
		},
		{Insert("F", a, "x"), Insert("F", a, "y")},
		{Delete("F", a, "x"), Delete("F", a, "y")},
		{Modify("F", a, a, "x")},
		{Insert("F", Strs("x", "p", "1"), "o"), Insert("F", Strs("a", "p", "1"), "o")},
		// The error returns of TestFlattenErrors.
		{Insert("Z", Strs("a", "b", "c"), "x")},
		{{Op: Op(9), Rel: "F", Tuple: Strs("a", "b", "c")}},
		{Insert("F", a, "x"), Modify("F", Strs("rat", "p2", "b"), a, "x")},
		{Insert("F", a, "x"), Delete("F", Strs("dog", "p3", "d"), "x"), {Op: Op(9), Rel: "F", Tuple: b}},
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		base := NewInstance(s)
		for i := 0; i < r.Intn(6); i++ {
			org := []string{"rat", "mouse", "dog", "cat"}[r.Intn(4)]
			prot := []string{"p0", "p1", "p2"}[r.Intn(3)]
			_ = base.Apply(Insert("F", Strs(org, prot, "seed"), "x"))
		}
		seqs = append(seqs, genUpdateSeq(r, s, base, 1+r.Intn(24)))
	}
	fs := &flattenScratch{live: make(map[tupleKey]*flattenChain), left: make(map[tupleKey]*flattenChain)}
	for i, seq := range seqs {
		fs.flatten(s, nil, seq)
		if !fs.forget() || len(fs.live) != 0 || len(fs.left) != 0 {
			t.Fatalf("sequence %d %v: %d live and %d left keys left after forget", i, seq, len(fs.live), len(fs.left))
		}
		fs.reset()
	}
}
