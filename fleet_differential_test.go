package orchestra

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
)

// The cross-tenant differential. M groups run the identical streaming
// workload (system_streaming_test.go) through one Fleet — co-located
// tenants in shared databases, commits batching through shared WALs — and
// every group must produce a fingerprint bit-identical to the same
// workload run standalone against a private store: same per-peer decision
// windows, same instances, same engine decision sets. Exercised across
// fleet sizes (1, 2, 4 stores) and both drive modes (round-based barriers
// and per-peer reconcile streams). Run with -race: the streaming legs
// overlap M groups' publishes, watch deliveries, and decision flushes in
// the same databases.

// streamGroupPeers is the streaming trust matrix (addStreamPeers) in the
// textual policy language — fleet groups require textual trust, and the
// standalone reference uses the same policies so the comparison is exact.
func streamGroupPeers() []GroupPeer {
	trust := map[PeerID]map[PeerID]int{
		"pa": {"pb": 1, "pc": 1, "pd": 1},
		"pb": {"pa": 2, "pc": 1, "pd": 1},
		"pc": {"pb": 1, "pd": 1}, // pa untrusted: enables the conflicting K re-insert
		"pd": {"pa": 1, "pb": 1, "pc": 1},
	}
	out := make([]GroupPeer, 0, len(streamPeerOrder))
	for _, id := range streamPeerOrder {
		origins := make([]string, 0, len(trust[id]))
		for o := range trust[id] {
			origins = append(origins, string(o))
		}
		sort.Strings(origins)
		pol := NewTrustPolicy()
		for _, o := range origins {
			pol.MustAdd(trust[id][PeerID(o)], fmt.Sprintf("origin = '%s'", o))
		}
		out = append(out, GroupPeer{ID: id, Trust: pol})
	}
	return out
}

// groupRun is one group's workload state in a lockstep drive: its system,
// peers, published universe, and observed decision windows. The mutex
// guards the observer-written fields during streaming.
type groupRun struct {
	sys      *System
	peers    map[PeerID]*Peer
	universe []TxnID

	mu       sync.Mutex
	outcomes map[PeerID][]roundOutcome
	steps    map[PeerID]int
	frontier map[PeerID]Epoch
}

func newGroupRun() *groupRun {
	return &groupRun{
		peers:    make(map[PeerID]*Peer),
		outcomes: make(map[PeerID][]roundOutcome),
		steps:    make(map[PeerID]int),
		frontier: make(map[PeerID]Epoch),
	}
}

func (r *groupRun) edit(t *testing.T) func(*Peer, Update) *Transaction {
	return func(p *Peer, u Update) *Transaction {
		x, err := p.Edit(u)
		if err != nil {
			t.Fatalf("edit at %s: %v", p.ID(), err)
		}
		r.universe = append(r.universe, x.ID)
		return x
	}
}

// observe is the group's stream observer (registered per group through
// GroupSpec.SystemOptions); called from the group's stream goroutines.
func (r *groupRun) observe(sr store.StreamResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.steps[sr.Peer]++
	if sr.To > r.frontier[sr.Peer] {
		r.frontier[sr.Peer] = sr.To
	}
	recordOutcome(r.outcomes, sr.Peer, sr.Result)
}

func (r *groupRun) fingerprint() streamScenarioResult {
	return streamFingerprint(r.peers, r.universe, r.outcomes)
}

// driveRoundLockstep runs the streaming workload round-based over every
// group in lockstep: all groups publish a round before any reconciles it,
// so co-located tenants' commits overlap in their shared database.
func driveRoundLockstep(t *testing.T, runs []*groupRun) {
	t.Helper()
	ctx := t.Context()
	for _, r := range runs {
		phase0(t, ctx, r.sys, r.peers, r.edit(t), r.outcomes)
	}
	// Alignment reconcile (the analogue of the streams' catch-up step).
	for _, r := range runs {
		for _, id := range streamPeerOrder {
			res, err := r.peers[id].Reconcile(ctx)
			if err != nil {
				t.Fatal(err)
			}
			recordOutcome(r.outcomes, id, res)
		}
	}
	for _, round := range streamingRounds() {
		for _, r := range runs {
			edit := r.edit(t)
			for _, u := range round.edits {
				edit(r.peers[round.pub], u)
			}
			if _, err := r.peers[round.pub].Publish(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range runs {
			for _, id := range streamPeerOrder {
				res, err := r.peers[id].Reconcile(ctx)
				if err != nil {
					t.Fatal(err)
				}
				recordOutcome(r.outcomes, id, res)
			}
		}
	}
}

// driveStreamingLockstep runs the workload with every group's reconcile
// streams live at once: the driver only edits and publishes, and the round
// barrier is "every stream frontier in the group has passed the round's
// epoch" — per group, so groups progress independently within a round.
func driveStreamingLockstep(t *testing.T, runs []*groupRun) {
	t.Helper()
	ctx := t.Context()
	for _, r := range runs {
		r.mu.Lock()
		phase0(t, ctx, r.sys, r.peers, r.edit(t), r.outcomes)
		r.mu.Unlock()
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, len(runs))
	for _, r := range runs {
		go func(r *groupRun) { done <- r.sys.RunStreaming(sctx) }(r)
	}
	for j, r := range runs {
		waitStream(t, &r.mu, fmt.Sprintf("group %d catch-up step on every peer", j), func() bool {
			for _, id := range streamPeerOrder {
				if r.steps[id] < 1 {
					return false
				}
			}
			return true
		})
	}
	for i, round := range streamingRounds() {
		epochs := make([]Epoch, len(runs))
		for j, r := range runs {
			edit := r.edit(t)
			for _, u := range round.edits {
				edit(r.peers[round.pub], u)
			}
			epoch, err := r.peers[round.pub].Publish(ctx)
			if err != nil {
				t.Fatal(err)
			}
			epochs[j] = epoch
		}
		for j, r := range runs {
			r := r
			waitStream(t, &r.mu, fmt.Sprintf("group %d round %d frontier %d", j, i, epochs[j]), func() bool {
				for _, id := range streamPeerOrder {
					if r.frontier[id] < epochs[j] {
						return false
					}
				}
				return true
			})
		}
	}
	cancel()
	for range runs {
		if err := <-done; err != nil {
			t.Fatalf("RunStreaming: %v", err)
		}
	}
}

// standaloneReference runs the workload once against a private store —
// what each fleet group must be indistinguishable from.
func standaloneReference(t *testing.T) streamScenarioResult {
	t.Helper()
	cs, err := central.Open(streamSchema(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	sys, err := NewSystem(streamSchema(),
		WithPeerStores(func(core.PeerID) (store.Store, error) { return cs, nil }))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	r := newGroupRun()
	r.sys = sys
	for _, gp := range streamGroupPeers() {
		p, err := sys.AddPeer(gp.ID, gp.Trust)
		if err != nil {
			t.Fatal(err)
		}
		r.peers[gp.ID] = p
	}
	driveRoundLockstep(t, []*groupRun{r})
	return r.fingerprint()
}

// buildFleetRuns builds a durable fleet of the given size hosting `groups`
// copies of the workload confederation.
func buildFleetRuns(t *testing.T, stores, groups int, streaming bool) []*groupRun {
	t.Helper()
	base := t.TempDir()
	f := NewFleet(WithStoreDirs(func(name string) string { return filepath.Join(base, name) }))
	t.Cleanup(func() { f.Close() })
	for i := 0; i < stores; i++ {
		if err := f.AddStore(fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	runs := make([]*groupRun, 0, groups)
	for i := 0; i < groups; i++ {
		r := newGroupRun()
		spec := GroupSpec{
			ID:     fmt.Sprintf("g%d", i),
			Schema: streamSchema(),
			Peers:  streamGroupPeers(),
		}
		if streaming {
			spec.SystemOptions = []SystemOption{
				WithStreamObserver(r.observe),
				WithStreamRetry(time.Millisecond, 20*time.Millisecond),
			}
		}
		g, err := f.AddGroup(spec)
		if err != nil {
			t.Fatal(err)
		}
		r.sys = g.System()
		for _, id := range streamPeerOrder {
			p, ok := r.sys.Peer(id)
			if !ok {
				t.Fatalf("group %s: peer %s not registered", g.ID(), id)
			}
			r.peers[id] = p
		}
		runs = append(runs, r)
	}
	return runs
}

// TestFleetDifferential: the multi-group correctness gate. Across fleet
// sizes and both drive modes, every co-hosted group is bit-identical to
// the standalone run — tenancy changes placement and batching, never
// reconciliation semantics.
func TestFleetDifferential(t *testing.T) {
	ref := standaloneReference(t)

	// The workload must exercise every decision kind, or the comparison
	// proves nothing.
	var accepts, rejects, defers int
	for _, rounds := range ref.Outcomes {
		for _, o := range rounds {
			accepts += len(o.Accepted)
			rejects += len(o.Rejected)
			defers += len(o.Deferred)
		}
	}
	if accepts == 0 || rejects == 0 || defers == 0 {
		t.Fatalf("vacuous workload: accepts=%d rejects=%d defers=%d", accepts, rejects, defers)
	}

	const groups = 5
	for _, stores := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("stores=%d/round", stores), func(t *testing.T) {
			runs := buildFleetRuns(t, stores, groups, false)
			driveRoundLockstep(t, runs)
			for _, r := range runs {
				diffStreamResults(t, r.fingerprint(), ref)
			}
		})
		t.Run(fmt.Sprintf("stores=%d/streaming", stores), func(t *testing.T) {
			runs := buildFleetRuns(t, stores, groups, true)
			driveStreamingLockstep(t, runs)
			for _, r := range runs {
				diffStreamResults(t, r.fingerprint(), ref)
			}
		})
	}
}
