package core

import (
	"fmt"
	"math"
	"testing"
)

// singleUpdateCands is a run's worth of one-update candidates from 8
// origins, 50 each, the shape of a contended workload: most insert a key of
// their own and are accepted, every tenth of origins o0–o2 inserts a value
// for a key the other two also write (a three-way conflict: all three
// deferred, one group), and every tenth from offset 5 modifies a tuple the
// instance does not hold (rejected).
func singleUpdateCands() []*Candidate {
	const origins, per = 8, 50
	var cands []*Candidate
	order := uint64(0)
	for i := 0; i < per; i++ {
		for o := 0; o < origins; o++ {
			origin := PeerID(fmt.Sprintf("o%d", o))
			var u Update
			switch {
			case i%10 == 0 && o < 3:
				u = Insert("F", fTuple(fmt.Sprintf("c%d", i), string(origin)), origin)
			case i%10 == 5:
				u = Modify("F", fTuple(fmt.Sprintf("gone%d-%d", o, i), "x"), fTuple(fmt.Sprintf("gone%d-%d", o, i), "y"), origin)
			default:
				u = Insert("F", fTuple(fmt.Sprintf("u%d-%d", o, i), "v"), origin)
			}
			order++
			x := handTxn(origin, order, u)
			x.ID.Seq = uint64(i)
			cands = append(cands, handCand(x))
		}
	}
	return cands
}

// reconcileSingleUpdate reconciles the candidates on a new engine and
// resolves the first conflict group, checking the decisions' shape.
func reconcileSingleUpdate(tb testing.TB, s *Schema, cands []*Candidate) {
	e := NewEngine("q", s, TrustAll(1))
	res, err := e.Reconcile(cands)
	if err != nil {
		tb.Fatal(err)
	}
	// 5 contended keys × 3 writers deferred; 8 origins × 5 modifies rejected.
	groups := e.ConflictGroups()
	if len(res.Deferred) != 15 || len(groups) != 5 || len(res.Rejected) != 40 ||
		len(res.Accepted) != len(cands)-55 {
		tb.Fatalf("reconcile: %d accepted, %d rejected, %d deferred, %d groups",
			len(res.Accepted), len(res.Rejected), len(res.Deferred), len(groups))
	}
	res, err = e.Resolve(groups[0].Conflict, 0)
	if err != nil {
		tb.Fatal(err)
	}
	// The other four groups are equal-priority ties in which the run
	// decided nothing, so they are settled: the resolution re-runs only
	// the resolved group's component and lists none of the twelve left
	// deferred.
	if len(res.Accepted) != 1 || len(res.Rejected) != 2 || len(res.Deferred) != 0 || len(e.DeferredIDs()) != 12 {
		tb.Fatalf("resolve: %d accepted, %d rejected, %d deferred (%d in all)",
			len(res.Accepted), len(res.Rejected), len(res.Deferred), len(e.DeferredIDs()))
	}
}

// TestReconcileSingleUpdateAllocations: a run whose candidates are all one
// update each allocates per candidate only what its shape needs — no ID
// map, footprint, flatten or conflict index — and its scratch comes from
// the pooled run scratch. The reconcile and resolve allocate ~0.31k times
// (building the engine included), ~0.5k under the race detector (~0.55k
// and ~0.7k while a run rebuilt the soft state it reproduced and every
// incompatible check made its error); with each option's Effect formatted and
// every Result listing the whole deferred set and its groups it was ~0.77k
// (~1.0k), with a state, an extension and touched keys per candidate over
// 2.5k, with the general path for every candidate over 8.3k.
func TestReconcileSingleUpdateAllocations(t *testing.T) {
	const budget = 850
	s := proteinSchema(t)
	cands := singleUpdateCands()
	allocs := testing.AllocsPerRun(5, func() { reconcileSingleUpdate(t, s, cands) })
	t.Logf("%.0f allocations for %d one-update candidates and a resolve", allocs, len(cands))
	if allocs > budget {
		t.Errorf("%.0f allocations, budget %d", allocs, budget)
	}
}

// TestReconcileSingleUpdateBytes: a warm run — the run scratch pool filled
// by a run of the same shape — allocates what outlives it (the engine and
// its instance, the results, the deferred candidates and their groups) and
// little else. The least of several runs is the warm one: under the race
// detector sync.Pool drops some of what it is given.
func TestReconcileSingleUpdateBytes(t *testing.T) {
	// ~89 KB today, ~90 KB under the race detector (~100 KB while a run
	// rebuilt the soft state it reproduced, ~102 KB with each option's
	// Effect formatted and every Result listing the whole deferred set and
	// its groups); ~0.39 MB with a state, an
	// extension and touched keys per candidate, and ~0.52 MB if the run
	// scratch is never pooled.
	const runs, budget = 10, 130_000
	s := proteinSchema(t)
	cands := singleUpdateCands()
	reconcileSingleUpdate(t, s, cands)
	least := uint64(math.MaxUint64)
	for range runs {
		least = min(least, allocatedBy(func() { reconcileSingleUpdate(t, s, cands) }))
	}
	t.Logf("%d bytes for a warm run of %d one-update candidates and a resolve", least, len(cands))
	if least > budget {
		t.Errorf("%d bytes, budget %d", least, budget)
	}
}

// BenchmarkReconcileSingleUpdate: one reconciliation of 400 one-update
// candidates from 8 origins, with conflicts, deferrals and a resolve.
func BenchmarkReconcileSingleUpdate(b *testing.B) {
	s := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
	cands := singleUpdateCands()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reconcileSingleUpdate(b, s, cands)
	}
}
