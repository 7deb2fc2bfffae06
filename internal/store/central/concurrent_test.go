package central

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// TestConcurrentPublishReconcileStress drives the sharded store from many
// goroutines at once — publishers racing into epochs while reconcilers
// consume — and asserts the §5.2.1 invariants hold under -race:
//
//   - epochs are allocated densely, each to exactly one publisher, and the
//     epochs one publisher observes are strictly monotonic;
//   - no transaction is lost: every published transaction is indexed,
//     delivered to every reconciler exactly once (no redelivery), and
//     present in the replay log;
//   - the stable-epoch rule holds: a reconciliation's window never skips an
//     epoch.
func TestConcurrentPublishReconcileStress(t *testing.T) {
	const (
		publishers = 4
		recons     = 3
		rounds     = 20
		perBatch   = 3
	)
	schema := core.MustSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	s := MustOpenMemory(schema)
	defer s.Close()
	ctx := context.Background()

	pubIDs := make([]core.PeerID, publishers)
	for i := range pubIDs {
		pubIDs[i] = core.PeerID(fmt.Sprintf("pub%d", i))
		if err := s.RegisterPeer(ctx, pubIDs[i], core.TrustAll(1)); err != nil {
			t.Fatal(err)
		}
	}
	recIDs := make([]core.PeerID, recons)
	for i := range recIDs {
		recIDs[i] = core.PeerID(fmt.Sprintf("rec%d", i))
		if err := s.RegisterPeer(ctx, recIDs[i], core.TrustAll(1)); err != nil {
			t.Fatal(err)
		}
	}

	var (
		mu        sync.Mutex
		allEpochs = make(map[core.Epoch]core.PeerID)
		published = make(map[core.TxnID]bool)
		errs      []error
	)
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}

	// Publishers: each runs its own engine and ships `rounds` batches,
	// checking per-publisher epoch monotonicity as it goes.
	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			eng := core.NewEngine(pubIDs[p], schema, core.TrustAll(1))
			var last core.Epoch
			for r := 0; r < rounds; r++ {
				batch := make([]store.PublishedTxn, 0, perBatch)
				ids := make([]core.TxnID, 0, perBatch)
				for k := 0; k < perBatch; k++ {
					x, antes, err := eng.NewLocalTransaction(core.Insert("F",
						core.Strs(fmt.Sprintf("org%d", p), fmt.Sprintf("prot-%d-%d", r, k), "fn"),
						pubIDs[p]))
					if err != nil {
						fail(err)
						return
					}
					batch = append(batch, store.PublishedTxn{Txn: x, Antecedents: antes})
					ids = append(ids, x.ID)
				}
				epoch, err := s.Publish(ctx, pubIDs[p], batch)
				if err != nil {
					fail(err)
					return
				}
				if epoch <= last {
					fail(fmt.Errorf("publisher %d: epoch %d not after %d", p, epoch, last))
					return
				}
				last = epoch
				mu.Lock()
				if owner, dup := allEpochs[epoch]; dup {
					fail(fmt.Errorf("epoch %d allocated to both %s and %s", epoch, owner, pubIDs[p]))
				}
				allEpochs[epoch] = pubIDs[p]
				for _, id := range ids {
					published[id] = true
				}
				mu.Unlock()
			}
		}(p)
	}

	// Reconcilers: poll BeginReconciliation while publishing is in flight,
	// accepting everything; every candidate must be new (the store never
	// redelivers) and the epoch window must advance without gaps.
	stop := make(chan struct{})
	var recWG sync.WaitGroup
	seen := make([]map[core.TxnID]bool, recons)
	for q := 0; q < recons; q++ {
		seen[q] = make(map[core.TxnID]bool)
		recWG.Add(1)
		go func(q int) {
			defer recWG.Done()
			var lastTo core.Epoch
			cycle := func() {
				rec, err := s.BeginReconciliation(ctx, recIDs[q])
				if err != nil {
					fail(err)
					return
				}
				if rec.FromEpoch != lastTo {
					fail(fmt.Errorf("reconciler %d: window (%d,%d] does not continue from %d",
						q, rec.FromEpoch, rec.ToEpoch, lastTo))
					return
				}
				lastTo = rec.ToEpoch
				accepted := make([]core.TxnID, 0, len(rec.Candidates))
				for _, c := range rec.Candidates {
					if seen[q][c.Txn.ID] {
						fail(fmt.Errorf("reconciler %d: %s redelivered", q, c.Txn.ID))
						return
					}
					seen[q][c.Txn.ID] = true
					accepted = append(accepted, c.Txn.ID)
				}
				// Alternate the two recording paths under load.
				if len(accepted)%2 == 0 {
					err = s.RecordDecisions(ctx, recIDs[q], rec.Recno, accepted, nil)
				} else {
					err = s.RecordDecisionsBatch(ctx, []store.DecisionBatch{{
						Peer: recIDs[q], Recno: rec.Recno, Accepted: accepted,
					}})
				}
				if err != nil {
					fail(err)
				}
			}
			for {
				select {
				case <-stop:
					// Final drain: all epochs are finished now, so one more
					// pass must surface everything still unseen.
					cycle()
					return
				default:
					cycle()
				}
			}
		}(q)
	}

	pubWG.Wait()
	close(stop)
	recWG.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Dense allocation: epochs 1..publishers*rounds each used exactly once.
	wantEpochs := publishers * rounds
	if len(allEpochs) != wantEpochs {
		t.Fatalf("allocated %d epochs, want %d", len(allEpochs), wantEpochs)
	}
	for e := core.Epoch(1); e <= core.Epoch(wantEpochs); e++ {
		if _, ok := allEpochs[e]; !ok {
			t.Fatalf("epoch %d never allocated", e)
		}
	}

	// No lost transactions: the index, every reconciler, and the replay
	// log all hold the full published set.
	wantTxns := publishers * rounds * perBatch
	if got := s.TxnCount(); got != wantTxns {
		t.Fatalf("store indexed %d txns, want %d", got, wantTxns)
	}
	for q := 0; q < recons; q++ {
		if len(seen[q]) != wantTxns {
			t.Errorf("reconciler %d saw %d txns, want %d", q, len(seen[q]), wantTxns)
		}
		for id := range published {
			if !seen[q][id] {
				t.Errorf("reconciler %d never received %s", q, id)
			}
		}
	}
	log, _, err := s.ReplayFor(ctx, recIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != wantTxns {
		t.Errorf("replay log holds %d txns, want %d", len(log), wantTxns)
	}
	for i := 1; i < len(log); i++ {
		if log[i-1].Txn.Order >= log[i].Txn.Order {
			t.Fatalf("replay log out of order at %d: %d >= %d", i, log[i-1].Txn.Order, log[i].Txn.Order)
		}
	}
}
