package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomCDSSRun drives a randomized multi-peer share/reconcile scenario
// through the test log and returns the engines for invariant checks.
func randomCDSSRun(t *testing.T, seed int64, peers, rounds, editsPerRound int) (*testLog, []*Engine) {
	t.Helper()
	s := proteinSchema(t)
	log := newTestLog(t, s)
	r := rand.New(rand.NewSource(seed))
	engines := make([]*Engine, peers)
	for i := range engines {
		engines[i] = NewEngine(PeerID(fmt.Sprintf("p%d", i)), s, TrustAll(1))
	}
	orgs := []string{"rat", "mouse", "dog"}
	fns := []string{"a", "b", "c", "d"}
	for round := 0; round < rounds; round++ {
		for _, e := range engines {
			for k := 0; k < editsPerRound; k++ {
				org := orgs[r.Intn(len(orgs))]
				prot := fmt.Sprintf("prot%d", r.Intn(6))
				fn := fns[r.Intn(len(fns))]
				key := Strs(org, prot)
				var u Update
				if cur, ok := e.Instance().Lookup("F", key); ok {
					switch r.Intn(4) {
					case 0:
						u = Delete("F", cur, e.Peer())
					default:
						if cur[2].Str() == fn {
							continue
						}
						u = Modify("F", cur, Strs(org, prot, fn), e.Peer())
					}
				} else {
					u = Insert("F", Strs(org, prot, fn), e.Peer())
				}
				x, _, err := e.NewLocalTransaction(u)
				if err != nil {
					continue // local conflict with a dirty shadow etc.
				}
				log.publish(x)
			}
			log.reconcile(e)
			checkProducers(t, log, e, fmt.Sprintf("seed %d round %d", seed, round))
		}
	}
	return log, engines
}

// checkProducers asserts the provenance invariant: every value the
// engine's instance holds has a producer that the engine applied and whose
// raw updates produce the value. The producer lives in the value's row, so
// no producer can outlive its value; what can go wrong is a value with no
// producer, or with one that never wrote it.
func checkProducers(t *testing.T, log *testLog, e *Engine, what string) {
	t.Helper()
	for _, rel := range e.Schema().Names() {
		for _, tu := range e.Instance().Tuples(rel) {
			p, ok := e.ProducerOf(rel, tu)
			if !ok {
				t.Fatalf("%s: %s%v in %s's instance has no producer", what, rel, tu, e.Peer())
			}
			x, ok := log.graph.Txn(p)
			if !ok || !e.Applied(p) {
				t.Fatalf("%s: producer %s of %s%v at %s is not an applied transaction", what, p, rel, tu, e.Peer())
			}
			if !slices.ContainsFunc(x.Updates, func(u Update) bool {
				return u.Rel == rel && u.Produces().Equal(tu)
			}) {
				t.Fatalf("%s: producer %s of %s%v at %s does not produce it", what, p, rel, tu, e.Peer())
			}
		}
	}
}

// TestInvariantDecisionSetsDisjoint: applied, rejected, and deferred are
// pairwise disjoint at every peer after arbitrary runs. The decided table
// holds one decision per id, so applied and rejected are disjoint by type;
// no deferred id may be decided.
func TestInvariantDecisionSetsDisjoint(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		_, engines := randomCDSSRun(t, seed, 4, 5, 3)
		for _, e := range engines {
			for _, id := range e.DeferredIDs() {
				if d := e.decided.get(id); d != DecisionNone {
					t.Fatalf("seed %d: %s both deferred and decided (%v) at %s", seed, id, d, e.Peer())
				}
			}
		}
	}
}

// TestInvariantReconcileIdempotent: idle reconciliations (nothing new
// published) may make progress on carried deferred transactions — their
// decisions are monotone — but must reach a fixpoint, after which another
// idle run changes nothing.
func TestInvariantReconcileIdempotent(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		log, engines := randomCDSSRun(t, seed, 4, 4, 3)
		for _, e := range engines {
			// Drain to the fixpoint: decisions only grow, so this
			// terminates.
			for i := 0; ; i++ {
				res := log.reconcile(e)
				checkProducers(t, log, e, fmt.Sprintf("seed %d idle run %d", seed, i))
				if len(res.Accepted) == 0 && len(res.Rejected) == 0 {
					break
				}
				if i > 50 {
					t.Fatalf("seed %d: no fixpoint after 50 idle reconciles at %s", seed, e.Peer())
				}
			}
			before := e.Instance().Clone()
			defBefore := NewTxnSet(e.DeferredIDs()...)
			res := log.reconcile(e)
			if len(res.Accepted) != 0 || len(res.Rejected) != 0 {
				t.Fatalf("seed %d: idle reconcile decided %+v at %s", seed, res, e.Peer())
			}
			if !e.Instance().Equal(before) {
				t.Fatalf("seed %d: idle reconcile changed %s's instance", seed, e.Peer())
			}
			defAfter := NewTxnSet(e.DeferredIDs()...)
			if len(defBefore) != len(defAfter) {
				t.Fatalf("seed %d: idle reconcile changed deferred set at %s: %v -> %v",
					seed, e.Peer(), defBefore.Sorted(), defAfter.Sorted())
			}
		}
	}
}

// TestInvariantInstanceConsistency: every engine's instance satisfies key
// uniqueness by construction; verify each tuple round-trips through its key
// and validates against the schema.
func TestInvariantInstanceConsistency(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		_, engines := randomCDSSRun(t, seed, 4, 5, 3)
		for _, e := range engines {
			s := e.Schema()
			rel := s.MustRelation("F")
			for _, tu := range e.Instance().Tuples("F") {
				if err := rel.Validate(tu); err != nil {
					t.Fatalf("seed %d: invalid tuple %v at %s: %v", seed, tu, e.Peer(), err)
				}
				got, ok := e.Instance().Lookup("F", rel.KeyOf(tu))
				if !ok || !got.Equal(tu) {
					t.Fatalf("seed %d: key index broken for %v at %s", seed, tu, e.Peer())
				}
			}
		}
	}
}

// TestProposition1: a trusted transaction with no directly conflicting,
// non-subsumed transaction of equal or higher priority is always accepted
// (when compatible with the instance and not behind dirty keys).
func TestProposition1(t *testing.T) {
	s := proteinSchema(t)
	for seed := int64(1); seed <= 20; seed++ {
		log := newTestLog(t, s)
		q := NewEngine("q", s, TrustAll(1))
		r := rand.New(rand.NewSource(seed))
		// Publish transactions with unique keys (never conflicting) mixed
		// with contended ones.
		var unique []TxnID
		for i := 0; i < 10; i++ {
			p := PeerID(fmt.Sprintf("u%d", i))
			e := NewEngine(p, s, TrustAll(1))
			var x *Transaction
			if r.Intn(2) == 0 {
				x = mustLocal(t, e, Insert("F", Strs("solo", fmt.Sprintf("prot%d", i), "v"), p))
				unique = append(unique, x.ID)
			} else {
				x = mustLocal(t, e, Insert("F", Strs("contended", "prot0", fmt.Sprintf("v%d", i)), p))
			}
			log.publish(x)
		}
		log.reconcile(q)
		for _, id := range unique {
			if !q.Applied(id) {
				t.Fatalf("seed %d: uncontended %s not accepted", seed, id)
			}
		}
	}
}

// TestConvergenceUnderResolution: if users resolve every conflict (always
// picking option 0) and peers keep reconciling, all deferred sets drain.
func TestConvergenceUnderResolution(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		log, engines := randomCDSSRun(t, seed, 4, 4, 3)
		for pass := 0; pass < 10; pass++ {
			pendingWork := false
			for _, e := range engines {
				log.reconcile(e)
				checkProducers(t, log, e, fmt.Sprintf("seed %d pass %d", seed, pass))
				for len(e.ConflictGroups()) > 0 {
					pendingWork = true
					g := e.ConflictGroups()[0]
					if _, err := e.Resolve(g.Conflict, 0); err != nil {
						t.Fatalf("seed %d: resolve: %v", seed, err)
					}
					checkProducers(t, log, e, fmt.Sprintf("seed %d pass %d resolve", seed, pass))
				}
				if len(e.DeferredIDs()) > 0 {
					// Deferred without a group: blocked on upstream
					// conflicts that later passes resolve.
					pendingWork = true
				}
			}
			if !pendingWork {
				break
			}
		}
		for _, e := range engines {
			if n := len(e.ConflictGroups()); n != 0 {
				t.Errorf("seed %d: %s still has %d conflict groups", seed, e.Peer(), n)
			}
		}
	}
}

// TestInvariantSoftStateRebuilds: the soft state the engine keeps is the
// soft state its deferred set stands for, however much of it runs kept
// rather than rebuilt. After every run and resolve of scripted sequences
// of reconciles, resolves and local edits, the dirty keys, each deferred
// entry (its candidate, dirty keys and groups) and the conflict groups
// (their options and effects, as String renders them) equal those built
// from nothing by rebuiltSoftState.
func TestInvariantSoftStateRebuilds(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		tl, _ := randomCDSSRun(t, seed, 4, 5, 3)
		log := tl.graph.InOrder(0, uint64(tl.graph.Len()))
		trusts := []Trust{
			TrustAll(1),
			TrustOrigins(map[PeerID]int{"p0": 3, "p1": 2, "p2": 1, "p3": 1}),
		}
		for i, trust := range trusts {
			p := &scriptedPeer{e: NewEngine("q", tl.schema, trust), log: log, graph: tl.graph, seed: seed*10 + int64(i)}
			var before *EngineSnapshot
			p.beforeRun = func() { before = p.e.ExportSnapshot() }
			for p.steps < 80 {
				p.step(t)
				checkSoftStateRebuilds(t, fmt.Sprintf("seed %d trust %d step %d", seed, i, p.steps), before, p.e)
			}
		}
	}
}

// rebuiltSoftState returns an engine with e's instance and decided sets
// whose soft state is built from nothing for e's deferred candidates: one
// UpdateSoftState with every one of them a candidate the run left
// deferred. A run flattens its candidates' extensions before it applies
// anything, so each is flattened as the run that last considered it did:
// on the instance and applied set before it began (before). A deferred
// candidate a run did not consider is in a component whose keys nothing
// touched since, so before serves it too.
func rebuiltSoftState(t *testing.T, before *EngineSnapshot, e *Engine) *Engine {
	t.Helper()
	f, err := NewEngineFromSnapshot(e.schema, e.trust, e.ExportSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	then, err := NewEngineFromSnapshot(e.schema, e.trust, before)
	if err != nil {
		t.Fatal(err)
	}
	f.recno = e.recno
	rs := newRunScratch()
	ids := e.DeferredIDs()
	rs.states = make([]candidateState, len(ids))
	order := make([]*candidateState, len(ids))
	for i, id := range ids {
		c := e.deferredCands[id].cand
		st := &rs.states[i]
		st.cand = &c
		st.upEx.init(f.schema, then.inst, rs, id, then.filterApplied(c.Ext, c.Txn), c.Priority)
		st.deferred = true
		order[i] = st
	}
	slices.SortFunc(order, func(a, b *candidateState) int {
		if c := cmp.Compare(a.cand.Txn.Order, b.cand.Txn.Order); c != 0 {
			return c
		}
		return compareTxnIDs(a.cand.Txn.ID, b.cand.Txn.ID)
	})
	f.updateSoftState(rs, order, nil, f.findConflicts(rs, order, new(ReconcileStats)))
	return f
}

// checkSoftStateRebuilds fails unless e's soft state equals
// rebuiltSoftState's.
func checkSoftStateRebuilds(t *testing.T, what string, before *EngineSnapshot, e *Engine) {
	t.Helper()
	f := rebuiltSoftState(t, before, e)
	if got, want := sortedKeys(e.dirty), sortedKeys(f.dirty); !slices.Equal(got, want) {
		t.Fatalf("%s: dirty keys %v, rebuilt %v", what, got, want)
	}
	if got, want := e.DeferredIDs(), f.DeferredIDs(); !slices.Equal(got, want) {
		t.Fatalf("%s: deferred %v, rebuilt %v", what, got, want)
	}
	for id, d := range e.deferredCands {
		r := f.deferredCands[id]
		switch {
		case d.cand.Txn != r.cand.Txn || d.cand.Priority != r.cand.Priority || !slices.Equal(d.cand.Ext, r.cand.Ext):
			t.Fatalf("%s: %v's candidate %+v, rebuilt %+v", what, id, d.cand, r.cand)
		case !slices.Equal(d.dirty, r.dirty):
			t.Fatalf("%s: %v keeps %v dirty, rebuilt %v", what, id, d.dirty, r.dirty)
		case !slices.Equal(d.groups, r.groups):
			t.Fatalf("%s: %v is in groups %v, rebuilt %v", what, id, d.groups, r.groups)
		}
	}
	got, want := e.ConflictGroups(), f.ConflictGroups()
	if len(got) != len(want) {
		t.Fatalf("%s: %d conflict groups, rebuilt %d", what, len(got), len(want))
	}
	for i := range got {
		if g, w := got[i].String(), want[i].String(); g != w {
			t.Fatalf("%s: group\n%s\nrebuilt\n%s", what, g, w)
		}
	}
}
