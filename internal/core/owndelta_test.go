package core

import (
	"fmt"
	"testing"
)

// TestCheckStateOwnDeltaSharedIndex: CheckState line 7 probes one index over
// the peer's own delta with every candidate's flattened operation. Each row
// is judged against an instance that already holds what the foreign
// operation needs (so line 5 passes and line 7 decides), and must agree with
// the quadratic reference.
func TestCheckStateOwnDeltaSharedIndex(t *testing.T) {
	f := NewRelation("F", 2, "organism", "protein", "function")
	g := NewRelation("G", 2, "organism", "protein", "function")
	s, err := NewSchema(f, g)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := fTuple("k", "a"), fTuple("k", "b")
	rows := []struct {
		name    string
		held    []Tuple  // F tuples the instance holds before the own delta
		own     []Update // the own delta, not applied to the instance
		foreign []Update
		reject  bool
	}{
		{"own insert vs foreign insert of the same key",
			nil, []Update{Insert("F", ka, "q")}, []Update{Insert("F", kb, "p")}, true},
		{"own modify vs foreign delete of the same tuple",
			[]Tuple{ka}, []Update{Modify("F", ka, kb, "q")}, []Update{Delete("F", ka, "p")}, true},
		{"conflict only on the second op",
			nil, []Update{Insert("F", ka, "q")},
			[]Update{Insert("F", fTuple("j", "x"), "p"), Insert("F", kb, "p")}, true},
		{"identical foreign update",
			nil, []Update{Insert("F", ka, "q")}, []Update{Insert("F", ka, "p")}, false},
		{"different relation",
			nil, []Update{Insert("F", ka, "q")}, []Update{Insert("G", kb, "p")}, false},
		{"empty own delta",
			nil, nil, []Update{Insert("F", kb, "p")}, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e := NewEngine("q", s, TrustAll(1))
			for _, tu := range row.held {
				mustLocal(t, e, Insert("F", tu, "q"))
			}
			own, err := Flatten(s, row.own)
			if err != nil {
				t.Fatal(err)
			}
			// Reconcile builds the index only for a non-empty delta.
			var idx *conflictIndex
			if len(own) > 0 {
				idx = newConflictIndex(s, own)
			}
			x := NewTransaction(TxnID{Origin: "p"}, row.foreign...)
			upEx := NewUpdateExtension(s, x.ID, []*Transaction{x}, 1)
			want := DecisionAccept
			if row.reject {
				want = DecisionReject
			}
			// The index is shared: probing it twice gives the same answer.
			for i := 0; i < 2; i++ {
				if got := e.checkState(upEx, idx, false); got != want {
					t.Errorf("checkState = %s, want %s", got, want)
				}
			}
			if naive := len(SetsConflictNaive(s, upEx.Operation, own)) > 0; naive != row.reject {
				t.Errorf("SetsConflictNaive finds a conflict: %v, want %v", naive, row.reject)
			}
			if fast := len(SetsConflict(s, upEx.Operation, own)) > 0; fast != row.reject {
				t.Errorf("SetsConflict finds a conflict: %v, want %v", fast, row.reject)
			}
		})
	}
}

// ownDeltaWorkload is an engine that has made d own edits since its last
// reconciliation, and n foreign single-insert candidates that conflict
// neither with them nor with each other.
func ownDeltaWorkload(tb testing.TB, s *Schema, n, d int) (*Engine, []*Candidate) {
	tb.Helper()
	e := NewEngine("q", s, TrustAll(1))
	for i := 0; i < d; i++ {
		if _, err := e.NewLocalTransaction(Insert("F", fTuple(fmt.Sprintf("own%d", i), "v"), "q")); err != nil {
			tb.Fatal(err)
		}
	}
	cands := make([]*Candidate, n)
	for i := range cands {
		x := handTxn("p", uint64(i+1), Insert("F", fTuple(fmt.Sprintf("far%d", i), "v"), "p"))
		x.ID.Seq = uint64(i)
		cands[i] = handCand(x)
	}
	return e, cands
}

// TestReconcileOwnDeltaAllocations: reconciling N candidates against a
// D-update own delta allocates O(N + D) — one index over the delta, probed N
// times — not O(N·D), an index per candidate. The budget is about twice
// what the run allocates today (~12.5k, building the engine and its delta
// included); with an index per candidate it is over 43k.
func TestReconcileOwnDeltaAllocations(t *testing.T) {
	const n, d, budget = 400, 64, 25000
	s := proteinSchema(t)
	_, cands := ownDeltaWorkload(t, s, n, d)
	allocs := testing.AllocsPerRun(5, func() {
		e, _ := ownDeltaWorkload(t, s, 0, d)
		res, err := e.Reconcile(cands)
		if err != nil || len(res.Accepted) != n {
			t.Fatalf("reconcile: %v, %d accepted", err, len(res.Accepted))
		}
	})
	t.Logf("%.0f allocations for %d candidates against a %d-update own delta", allocs, n, d)
	if allocs > budget {
		t.Errorf("%.0f allocations, budget %d", allocs, budget)
	}
}

// BenchmarkReconcileOwnDelta: one reconciliation of 400 non-conflicting
// candidates against a 64-update own delta.
func BenchmarkReconcileOwnDelta(b *testing.B) {
	s := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
	_, cands := ownDeltaWorkload(b, s, 400, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, _ := ownDeltaWorkload(b, s, 0, 64)
		b.StartTimer()
		if _, err := e.Reconcile(cands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveDrain: 64 independent two-way conflicts deferred by one
// reconciliation, then resolved one group at a time.
func BenchmarkResolveDrain(b *testing.B) {
	s := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
	var cands []*Candidate
	for i := 0; i < 64; i++ {
		for j, origin := range []PeerID{"a", "b"} {
			x := handTxn(origin, uint64(2*i+j+1), Insert("F", fTuple(fmt.Sprintf("k%d", i), string(origin)), origin))
			x.ID.Seq = uint64(i)
			cands = append(cands, handCand(x))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine("q", s, TrustAll(1))
		if res, err := e.Reconcile(cands); err != nil || len(res.Groups) != 64 {
			b.Fatalf("reconcile: %v, %d groups", err, len(res.Groups))
		}
		b.StartTimer()
		if _, err := e.ResolveAll(func(*ConflictGroup) int { return 0 }); err != nil {
			b.Fatal(err)
		}
		if n := len(e.DeferredIDs()); n != 0 {
			b.Fatalf("%d still deferred", n)
		}
	}
}
