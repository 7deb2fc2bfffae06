package core

import (
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
// pairwise disjoint at every peer after arbitrary runs.
func TestInvariantDecisionSetsDisjoint(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		_, engines := randomCDSSRun(t, seed, 4, 5, 3)
		for _, e := range engines {
			for _, id := range e.DeferredIDs() {
				if e.Applied(id) {
					t.Fatalf("seed %d: %s both deferred and applied at %s", seed, id, e.Peer())
				}
				if e.Rejected(id) {
					t.Fatalf("seed %d: %s both deferred and rejected at %s", seed, id, e.Peer())
				}
			}
			for _, id := range e.applied.Sorted() {
				if e.rejected.Has(id) {
					t.Fatalf("seed %d: %s both applied and rejected at %s", seed, id, e.Peer())
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
