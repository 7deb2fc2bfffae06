package orchestra

import (
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/trust"
	"orchestra/internal/workload"
)

// scaleTopology builds a resolved trust graph for a 1k-peer topology the
// way live harnesses do: direct policies first (each registration affects
// only itself), then the full delegating policies in descending index
// order (delegation targets re-register after their delegators, keeping
// registration cost near-linear until the final hub flip).
func scaleTopology(t *testing.T, kind workload.TopologyKind, n int) (*workload.TrustTopology, *trust.Graph) {
	t.Helper()
	tt, err := workload.NewTrustTopology(workload.TopologyConfig{Kind: kind, Peers: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g := trust.NewGraph(nil)
	for i := 0; i < n; i++ {
		g.Set(tt.PeerID(i), trust.MustParse(tt.DirectPolicy(i)))
	}
	for i := n - 1; i >= 0; i-- {
		g.Set(tt.PeerID(i), trust.MustParse(tt.Policy(i)))
	}
	return tt, g
}

// assertCompiledMatchesInterpreted compares, for each sampled participant,
// the planned effective policy against a freshly parsed reference-walk
// copy of its own textual rendering, over updates from a spread of origins.
// This is the pure trust-level differential: no reconciliation, just
// priorities, at confederation scale.
func assertCompiledMatchesInterpreted(t *testing.T, tt *workload.TrustTopology, g *trust.Graph, samples, origins []int) {
	t.Helper()
	orgIDs := make([]core.PeerID, 0, len(origins)+1)
	for _, o := range origins {
		orgIDs = append(orgIDs, tt.PeerID(o))
	}
	orgIDs = append(orgIDs, "ghost")
	for _, i := range samples {
		id := tt.PeerID(i)
		eff, ok := g.Effective(id).(*trust.Policy)
		if !ok {
			t.Fatalf("effective trust of %s is not textual: %T", id, g.Effective(id))
		}
		interp := trust.MustParse(eff.String()).WithInterpreted()
		for _, origin := range orgIDs {
			u := core.Insert("F", core.Strs("org", "prot", "fn"), origin)
			if c, iv := eff.Priority(u), interp.Priority(u); c != iv {
				t.Errorf("%s: priority(origin=%s) compiled=%d interpreted=%d",
					id, origin, c, iv)
			}
		}
	}
}

// TestTrustScaleDifferential: at 1000 peers per topology, every sampled
// participant's planned effective policy is bit-identical to the
// reference walk over its own textual rendering — and a mid-stream
// mapping change re-resolves only the participants whose closure reaches
// the changed peer, with the differential still holding afterwards.
func TestTrustScaleDifferential(t *testing.T) {
	const n = 1000
	samples := []int{0, 1, n / 2, n - 2, n - 1}
	for s := 7; s < n; s += 97 {
		samples = append(samples, s)
	}
	origins := append([]int(nil), samples...)

	for _, kind := range workload.Topologies {
		t.Run(string(kind), func(t *testing.T) {
			tt, g := scaleTopology(t, kind, n)
			if got := len(g.Members()); got != n {
				t.Fatalf("graph members = %d, want %d", got, n)
			}
			assertCompiledMatchesInterpreted(t, tt, g, samples, origins)

			// Mid-stream change, bounded blast radius: the incremental
			// contract says only reverse-reachable participants recompile.
			switch kind {
			case workload.Chain:
				// The chain's head has no delegators: exactly one recompile.
				if affected := g.Set(tt.PeerID(0), trust.MustParse(tt.Policy(0))); len(affected) != 1 {
					t.Errorf("chain head change affected %d participants, want 1", len(affected))
				}
			case workload.Clique:
				// Cliques are disjoint: a member change stays inside its
				// clique (default size 8), orders below the membership.
				if affected := g.Set(tt.PeerID(n-1), trust.MustParse(tt.Policy(n-1))); len(affected) > 8 {
					t.Errorf("clique change affected %d participants, want <= 8", len(affected))
				}
			case workload.DAG:
				// Edges point to higher indices only, so a mid-graph change
				// can reach at most the peers at or below its index.
				if affected := g.Set(tt.PeerID(n/2), trust.MustParse(tt.Policy(n/2))); len(affected) > n/2+1 {
					t.Errorf("dag change affected %d participants, want <= %d", len(affected), n/2+1)
				}
			case workload.Star:
				// Everyone reaches a leaf through the hub: the full fan-in is
				// the correct answer here, so assert the semantics, not a cap.
				if affected := g.Set(tt.PeerID(n-1), trust.MustParse(tt.Policy(n-1))); len(affected) != n {
					t.Errorf("star leaf change affected %d participants, want %d", len(affected), n)
				}
			}
			assertCompiledMatchesInterpreted(t, tt, g, samples, origins)
		})
	}
}

// TestTrustTopologyGenerator pins the generator's determinism and shape
// invariants: same seed, same topology; policies parse; edge counts are
// linear in the membership (the bounded-clique guarantee).
func TestTrustTopologyGenerator(t *testing.T) {
	for _, kind := range workload.Topologies {
		a, err := workload.NewTrustTopology(workload.TopologyConfig{Kind: kind, Peers: 64, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		b, err := workload.NewTrustTopology(workload.TopologyConfig{Kind: kind, Peers: 64, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < a.Len(); i++ {
			if a.Policy(i) != b.Policy(i) {
				t.Fatalf("%s: seed-identical topologies diverge at peer %d", kind, i)
			}
			if _, err := trust.Parse(a.Policy(i)); err != nil {
				t.Fatalf("%s: generated policy does not parse: %v\n%s", kind, err, a.Policy(i))
			}
			if ds := trust.MustParse(a.DirectPolicy(i)).Delegations(); len(ds) != 0 {
				t.Fatalf("%s: direct policy carries delegations", kind)
			}
		}
		if a.Edges() == 0 {
			t.Fatalf("%s: no delegation edges", kind)
		}
		if max := 64 * 8; a.Edges() > max {
			t.Fatalf("%s: %d edges exceeds linear bound %d", kind, a.Edges(), max)
		}
		c, err := workload.NewTrustTopology(workload.TopologyConfig{Kind: kind, Peers: 64, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := 0; i < a.Len() && same; i++ {
			same = a.Policy(i) == c.Policy(i)
		}
		if same {
			t.Errorf("%s: different seeds produced identical topologies", kind)
		}
	}
	if _, err := workload.NewTrustTopology(workload.TopologyConfig{Kind: workload.Star, Peers: 1}); err == nil {
		t.Error("single-peer topology accepted")
	}
}
