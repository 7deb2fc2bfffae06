package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"orchestra/internal/core"
)

// TopologyKind names a delegation-graph shape for the trust-at-scale
// workload: who delegates to whom, with what priority caps.
type TopologyKind string

const (
	// Star: one hub delegating to every leaf, every leaf delegating back
	// to the hub — the curated-database shape (one SWISS-PROT-style
	// authority, many downstream consumers).
	Star TopologyKind = "star"
	// Chain: peer i delegates to peer i+1; trust attenuates hop by hop
	// through the path-bottleneck caps.
	Chain TopologyKind = "chain"
	// Clique: disjoint cliques of bounded size, all-pairs delegation
	// within each — collaborating subcommunities. Bounding the clique
	// size keeps the edge count linear in the peer count.
	Clique TopologyKind = "clique"
	// DAG: each peer delegates to a few random higher-numbered peers —
	// the general acyclic web of Gatterbauer & Suciu-style referrals.
	DAG TopologyKind = "dag"
)

// Topologies lists every kind, in the order benchmarks sweep them.
var Topologies = []TopologyKind{Star, Chain, Clique, DAG}

// TopologyConfig parameterizes a TrustTopology.
type TopologyConfig struct {
	Kind  TopologyKind
	Peers int
	// Seed makes every cap and edge deterministic.
	Seed int64
	// CliqueSize bounds clique membership (default 8); irrelevant for the
	// other kinds.
	CliqueSize int
	// DAGOutDegree bounds the random out-degree (default 3); irrelevant
	// for the other kinds.
	DAGOutDegree int
}

// trustEdge is one delegation: to the target peer index, capped.
type trustEdge struct {
	to  int
	cap int
}

// TrustTopology is a generated confederation-scale trust configuration:
// per peer, a direct textual policy (its own acceptance rules) and a set
// of delegation edges. The textual forms are what stores persist and what
// the trust graph resolves; the generator itself never evaluates anything.
type TrustTopology struct {
	kind  TopologyKind
	peers []core.PeerID
	prio  []int         // each peer's self-rule priority
	edges [][]trustEdge // delegations, by delegator index
}

// NewTrustTopology generates the topology. Every peer vouches for its own
// origin at a small deterministic priority; the delegation edges then
// spread that vouching through the graph under path-bottleneck caps.
func NewTrustTopology(cfg TopologyConfig) (*TrustTopology, error) {
	if cfg.Peers < 2 {
		return nil, fmt.Errorf("workload: trust topology needs >= 2 peers, got %d", cfg.Peers)
	}
	if cfg.CliqueSize <= 1 {
		cfg.CliqueSize = 8
	}
	if cfg.DAGOutDegree <= 0 {
		cfg.DAGOutDegree = 3
	}
	n := cfg.Peers
	tt := &TrustTopology{
		kind:  cfg.Kind,
		peers: make([]core.PeerID, n),
		prio:  make([]int, n),
		edges: make([][]trustEdge, n),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < n; i++ {
		tt.peers[i] = core.PeerID(fmt.Sprintf("p%04d", i))
		tt.prio[i] = 1 + rng.Intn(3)
	}
	switch cfg.Kind {
	case Star:
		for i := 1; i < n; i++ {
			tt.edges[0] = append(tt.edges[0], trustEdge{to: i, cap: 1 + rng.Intn(3)})
			tt.edges[i] = append(tt.edges[i], trustEdge{to: 0, cap: 1 + rng.Intn(2)})
		}
	case Chain:
		for i := 0; i < n-1; i++ {
			tt.edges[i] = append(tt.edges[i], trustEdge{to: i + 1, cap: 1 + rng.Intn(4)})
		}
	case Clique:
		for lo := 0; lo < n; lo += cfg.CliqueSize {
			hi := lo + cfg.CliqueSize
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				for j := lo; j < hi; j++ {
					if i != j {
						tt.edges[i] = append(tt.edges[i], trustEdge{to: j, cap: 1 + rng.Intn(3)})
					}
				}
			}
		}
	case DAG:
		for i := 0; i < n-1; i++ {
			out := 1 + rng.Intn(cfg.DAGOutDegree)
			seen := map[int]bool{}
			for k := 0; k < out; k++ {
				to := i + 1 + rng.Intn(n-i-1)
				if seen[to] {
					continue
				}
				seen[to] = true
				tt.edges[i] = append(tt.edges[i], trustEdge{to: to, cap: 1 + rng.Intn(4)})
			}
		}
	default:
		return nil, fmt.Errorf("workload: unknown trust topology kind %q", cfg.Kind)
	}
	return tt, nil
}

// Kind returns the topology's shape.
func (t *TrustTopology) Kind() TopologyKind { return t.kind }

// Len returns the number of peers.
func (t *TrustTopology) Len() int { return len(t.peers) }

// PeerID returns the i-th peer's ID.
func (t *TrustTopology) PeerID(i int) core.PeerID { return t.peers[i] }

// Edges returns the total delegation count across the topology.
func (t *TrustTopology) Edges() int {
	total := 0
	for _, es := range t.edges {
		total += len(es)
	}
	return total
}

// DirectPolicy renders peer i's delegation-free textual policy: its own
// acceptance rules only. Harnesses register these first (stores refuse
// delegations to peers they have never seen), then upgrade each peer to
// Policy via SetTrust.
func (t *TrustTopology) DirectPolicy(i int) string {
	return fmt.Sprintf("priority %d when origin = '%s'\n", t.prio[i], t.peers[i])
}

// Policy renders peer i's full textual policy: the direct rules plus the
// topology's delegation edges.
func (t *TrustTopology) Policy(i int) string {
	var b strings.Builder
	b.WriteString(t.DirectPolicy(i))
	for _, e := range t.edges[i] {
		fmt.Fprintf(&b, "delegate '%s' priority %d\n", t.peers[e.to], e.cap)
	}
	return b.String()
}
