package core

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
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
		if _, _, err := e.NewLocalTransaction(Insert("F", fTuple(fmt.Sprintf("own%d", i), "v"), "q")); err != nil {
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
// times — not O(N·D), an index per candidate, and nothing per candidate
// beyond its decision. The run allocates ~0.9k times (building the engine
// and its delta included), ~1.0k under the race detector with a scratch
// that is never pooled; with a state, an extension and touched keys per
// candidate it is over 2.5k, with an index per candidate over 30k.
func TestReconcileOwnDeltaAllocations(t *testing.T) {
	const n, d, budget = 400, 64, 1150
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

// drainCands is n independent two-way conflicts: origins a and b insert
// different values for key k<i>, one component per key.
func drainCands(n int) []*Candidate {
	var cands []*Candidate
	for i := 0; i < n; i++ {
		for j, origin := range []PeerID{"a", "b"} {
			x := handTxn(origin, uint64(2*i+j+1), Insert("F", fTuple(fmt.Sprintf("k%d", i), string(origin)), origin))
			x.ID.Seq = uint64(i)
			cands = append(cands, handCand(x))
		}
	}
	return cands
}

// drainBytes defers n two-way groups in one reconciliation, then resolves
// them one at a time, and returns the bytes the resolutions allocated per
// resolve, the least of several warm runs (under the race detector
// sync.Pool drops some of what it is given).
func drainBytes(t *testing.T, s *Schema, n int) uint64 {
	cands := drainCands(n)
	least := uint64(math.MaxUint64)
	for range 5 {
		e := NewEngine("q", s, TrustAll(1))
		if _, err := e.Reconcile(cands); err != nil || len(e.ConflictGroups()) != n {
			t.Fatalf("reconcile: %v, %d groups", err, len(e.ConflictGroups()))
		}
		bytes := allocatedBy(func() {
			if _, err := e.ResolveAll(func(*ConflictGroup) int { return 0 }); err != nil {
				t.Fatal(err)
			}
		})
		if d := len(e.DeferredIDs()); d != 0 {
			t.Fatalf("%d still deferred", d)
		}
		least = min(least, bytes/uint64(n))
	}
	return least
}

// allocatedBy returns the bytes f allocates. The collector is held off
// meanwhile: a cycle empties the pooled run scratch, and the runs after it
// would count building it again.
func allocatedBy(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestResolveDrainAllocations: a resolve re-runs its own component, and
// what it allocates does not grow with the deferred set it leaves alone.
// Draining 64 and then 256 independent groups costs ~0.5 KB per resolve
// either way (~1.1 KB under the race detector; ~1.3 KB while a run rebuilt
// the soft state it reproduced); when every run listed the whole deferred
// set and its groups in its Result, it was ~3.3 KB among 64 groups and
// ~9 KB among 256.
func TestResolveDrainAllocations(t *testing.T) {
	s := proteinSchema(t)
	small, large := drainBytes(t, s, 64), drainBytes(t, s, 256)
	t.Logf("%d bytes per resolve draining 64 groups, %d draining 256", small, large)
	if large > small+small/4 {
		t.Errorf("a resolve allocates %d bytes among 256 groups, %d among 64: it grows with the deferred set", large, small)
	}
}

// BenchmarkResolveDrain: 64 independent two-way conflicts deferred by one
// reconciliation, then resolved one group at a time.
func BenchmarkResolveDrain(b *testing.B) {
	s := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
	cands := drainCands(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine("q", s, TrustAll(1))
		if _, err := e.Reconcile(cands); err != nil || len(e.ConflictGroups()) != 64 {
			b.Fatalf("reconcile: %v, %d groups", err, len(e.ConflictGroups()))
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
