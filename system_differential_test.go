package orchestra

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// roundOutcome captures everything decision-shaped a round produced for one
// peer, in a canonical (sorted) form.
type roundOutcome struct {
	Accepted []TxnID
	Rejected []TxnID
	Deferred []TxnID
}

func sortedIDs(ids []TxnID) []TxnID {
	out := append([]TxnID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// sequentialRound is the reference ReconcileAll is pinned against: the same
// publish barrier, then every peer reconciles alone in registration order
// through the public per-peer calls, each recording its own decisions.
func sequentialRound(sys *System, ctx context.Context) (map[PeerID]*Result, error) {
	for _, p := range sys.Peers() {
		if _, err := p.Publish(ctx); err != nil {
			return nil, err
		}
	}
	out := make(map[PeerID]*Result)
	for _, p := range sys.Peers() {
		res, err := p.Reconcile(ctx)
		if err != nil {
			return nil, err
		}
		out[p.ID()] = res
	}
	return out, nil
}

// runDifferentialScenario drives a contended multi-round confederation,
// running each round through the given driver, and returns every peer's
// per-round decisions plus final instance encodings. The workload mixes
// clean imports, priority-decided conflicts, and ties (deferrals), so all
// three decision kinds are exercised.
func runDifferentialScenario(t *testing.T, drive func(*System, context.Context) (map[PeerID]*Result, error), opts ...SystemOption) (map[string][]roundOutcome, map[PeerID][]string) {
	t.Helper()
	ctx := context.Background()
	schema := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
	sys, err := NewSystem(schema, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	const n = 6
	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		id := PeerID(fmt.Sprintf("p%d", i))
		// Asymmetric trust with ties: origins in the same residue class get
		// equal priority, so same-key edits from them defer.
		trust := make(map[PeerID]int, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				trust[PeerID(fmt.Sprintf("p%d", j))] = j%3 + 1
			}
		}
		peers[i], err = sys.AddPeer(id, TrustOrigins(trust))
		if err != nil {
			t.Fatal(err)
		}
	}

	outcomes := make(map[string][]roundOutcome)
	instances := make(map[PeerID][]string)
	for round := 0; round < 3; round++ {
		for i, p := range peers {
			// Keys are unique per round (so a later insert never collides
			// with an imported tuple) but shared across peers within a
			// round: on even rounds peers i and i+4 collide (different
			// trust priorities → accept/reject), on odd rounds i and i+3
			// collide (equal priorities → ties, deferred).
			mod := 4 - round%2
			key := fmt.Sprintf("prot%d-r%d", i%mod, round)
			val := fmt.Sprintf("v-%d-%d", i, round)
			if _, err := p.Edit(Insert("F", Strs("org", key, val), p.ID())); err != nil {
				t.Fatal(err)
			}
		}
		results, err := drive(sys, ctx)
		if err != nil {
			t.Fatal(err)
		}
		for id, res := range results {
			outcomes[string(id)] = append(outcomes[string(id)], roundOutcome{
				Accepted: sortedIDs(res.Accepted),
				Rejected: sortedIDs(res.Rejected),
				Deferred: sortedIDs(res.Deferred),
			})
		}
	}
	for _, p := range peers {
		var enc []string
		for _, tuple := range p.Instance().Tuples("F") {
			enc = append(enc, tuple.Encode())
		}
		sort.Strings(enc)
		instances[p.ID()] = enc
	}
	return outcomes, instances
}

// TestReconcileAllDifferential: ReconcileAll's concurrent waves with
// batched decision recording produce bit-identical accept/reject/defer
// decisions and final instances versus the sequential per-peer reference,
// at every fan-out width. Run with -race (the tier-1 gate does) so the
// concurrent configurations also serve as a data-race probe.
func TestReconcileAllDifferential(t *testing.T) {
	refOutcomes, refInstances := runDifferentialScenario(t, sequentialRound)

	// The scenario must exercise every decision kind, or the comparison
	// proves nothing.
	var accepts, rejects, defers int
	for _, rounds := range refOutcomes {
		for _, o := range rounds {
			accepts += len(o.Accepted)
			rejects += len(o.Rejected)
			defers += len(o.Deferred)
		}
	}
	if accepts == 0 || rejects == 0 || defers == 0 {
		t.Fatalf("vacuous scenario: accepts=%d rejects=%d defers=%d", accepts, rejects, defers)
	}

	for _, fan := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("fanout=%d", fan), func(t *testing.T) {
			outcomes, instances := runDifferentialScenario(t, (*System).ReconcileAll, WithReconcileFanOut(fan))
			if !reflect.DeepEqual(outcomes, refOutcomes) {
				t.Errorf("decisions diverge from sequential baseline:\n got %+v\nwant %+v",
					outcomes, refOutcomes)
			}
			if !reflect.DeepEqual(instances, refInstances) {
				t.Errorf("instances diverge from sequential baseline:\n got %+v\nwant %+v",
					instances, refInstances)
			}
		})
	}
}

// TestReconcileAllBatchedFlushCounters: the batched pass reports its
// round-trip economy through the pipeline counters, and the central store
// agrees.
func TestReconcileAllBatchedFlushCounters(t *testing.T) {
	ctx := context.Background()
	schema := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
	sys, err := NewSystem(schema, WithReconcileFanOut(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const n = 5
	for i := 0; i < n; i++ {
		id := PeerID(fmt.Sprintf("p%d", i))
		p, err := sys.AddPeer(id, TrustAll(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Edit(Insert("F", Strs("org", fmt.Sprintf("prot%d", i), "v"), id)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.ReconcileAll(ctx); err != nil {
		t.Fatal(err)
	}
	snap := sys.Pipeline().Snapshot()
	if snap.DecisionFlushes != 1 {
		t.Errorf("flushes = %d, want 1 (one wave)", snap.DecisionFlushes)
	}
	// Every peer accepts the n-1 others' transactions.
	if want := int64(n * (n - 1)); snap.DecisionsFlushed != want {
		t.Errorf("decisions flushed = %d, want %d", snap.DecisionsFlushed, want)
	}
	if snap.FlushPeak != n {
		t.Errorf("flush peak = %d, want %d", snap.FlushPeak, n)
	}
	cs := sys.CentralStore()
	if cs == nil {
		t.Fatal("central system should expose its store")
	}
	ss := cs.Metrics().Snapshot()
	if ss.DecisionRoundTrips != 1 || ss.DecisionPeers != int64(n) {
		t.Errorf("store counters: %+v", ss)
	}
	if ss.Publishes != int64(n) {
		t.Errorf("store counted %d publishes, want %d", ss.Publishes, n)
	}
}
