package orchestra

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"orchestra/internal/trust"
	"orchestra/internal/workload"
)

// runTrustTopologyScenario drives a small confederation whose trust comes
// from a generated delegation topology: every peer registers its direct
// (delegation-free) policy first, then upgrades to the full delegating
// policy via SetTrust — descending index order, so delegation targets are
// registered before their delegators re-register. After the first round
// one peer's policy changes mid-stream, exercising the incremental
// re-evaluation path under live deferred candidates. With interpreted set,
// every registered policy evaluates through the reference walk over every
// rule instead of its plan — the store's candidate pricing resolves
// effective policies from what was registered, so the flag flips the
// evaluator for the whole system.
func runTrustTopologyScenario(t *testing.T, kind workload.TopologyKind, interpreted bool) (map[string][]roundOutcome, map[PeerID][]string) {
	t.Helper()
	ctx := context.Background()
	const n = 8
	tt, err := workload.NewTrustTopology(workload.TopologyConfig{
		Kind: kind, Peers: n, Seed: 11, CliqueSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pol := func(text string) *trust.Policy {
		p := trust.MustParse(text)
		if interpreted {
			p.WithInterpreted()
		}
		return p
	}

	schema := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
	sys, err := NewSystem(schema)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		peers[i], err = sys.AddPeer(tt.PeerID(i), pol(tt.DirectPolicy(i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := n - 1; i >= 0; i-- {
		if _, err := peers[i].SetTrust(ctx, pol(tt.Policy(i))); err != nil {
			t.Fatalf("set full policy for %s: %v", tt.PeerID(i), err)
		}
	}

	outcomes := make(map[string][]roundOutcome)
	instances := make(map[PeerID][]string)
	for round := 0; round < 3; round++ {
		for i, p := range peers {
			// Same contention pattern as the decision-path differential:
			// round-unique keys shared across peers, colliding under both
			// unequal priorities (accept/reject) and ties (defer).
			mod := 4 - round%2
			key := fmt.Sprintf("prot%d-r%d", i%mod, round)
			val := fmt.Sprintf("v-%d-%d", i, round)
			if _, err := p.Edit(Insert("F", Strs("org", key, val), p.ID())); err != nil {
				t.Fatal(err)
			}
		}
		results, err := sys.ReconcileAll(ctx)
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
		if round == 0 {
			// Mid-stream mapping change: peer 1 starts vouching for peer 4
			// directly, on top of its topology policy. The store recompiles
			// the affected participants; peer 1's engine re-prices its
			// deferred candidates without replaying history.
			upgraded := tt.Policy(1) + fmt.Sprintf("priority 3 when origin = '%s'\n", tt.PeerID(4))
			if _, err := peers[1].SetTrust(ctx, pol(upgraded)); err != nil {
				t.Fatalf("mid-stream SetTrust: %v", err)
			}
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

// TestTrustTopologyDifferential: across every delegation topology, the
// planned policies and the reference walk over every rule produce
// bit-identical reconciliation transcripts — per-round accept/reject/defer
// decisions and final instances — including across a mid-stream trust
// change. Run with -race (the tier-1 gate does), this also probes a shared
// plan's concurrent evaluation under ReconcileAll's fan-out.
func TestTrustTopologyDifferential(t *testing.T) {
	var accepts, rejects, defers, foreign int
	for _, kind := range workload.Topologies {
		t.Run(string(kind), func(t *testing.T) {
			refOutcomes, refInstances := runTrustTopologyScenario(t, kind, false)
			outcomes, instances := runTrustTopologyScenario(t, kind, true)
			if !reflect.DeepEqual(outcomes, refOutcomes) {
				t.Errorf("interpreted decisions diverge from compiled:\n got %+v\nwant %+v",
					outcomes, refOutcomes)
			}
			if !reflect.DeepEqual(instances, refInstances) {
				t.Errorf("interpreted instances diverge from compiled:\n got %+v\nwant %+v",
					instances, refInstances)
			}
			for peer, rounds := range refOutcomes {
				for _, o := range rounds {
					accepts += len(o.Accepted)
					rejects += len(o.Rejected)
					defers += len(o.Deferred)
					for _, id := range o.Accepted {
						if string(id.Origin) != peer {
							foreign++
						}
					}
				}
			}
		})
	}
	// The scenarios must exercise every decision kind — and acceptance of
	// foreign-origin transactions, which only delegation can grant (direct
	// policies vouch for the peer's own origin alone).
	if accepts == 0 || rejects == 0 || defers == 0 || foreign == 0 {
		t.Fatalf("vacuous differential: accepts=%d rejects=%d defers=%d foreign-accepts=%d",
			accepts, rejects, defers, foreign)
	}
}
