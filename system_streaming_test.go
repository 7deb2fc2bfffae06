package orchestra

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
)

// The streaming-vs-round differential. Both modes run the identical
// workload and must produce bit-identical decision transcripts and engine
// state. The workload is built so window boundaries are forced to agree:
//
//   - A round-based warm-up round (phase 0) runs in both modes and plants
//     an equal-priority conflict, so one peer holds deferred transactions
//     and dirty keys when streaming begins.
//   - Every later round has exactly ONE publisher, so a round is exactly
//     one epoch and a streaming window can never split or merge a round's
//     conflicting candidates relative to the round-based pass. The driver
//     waits for every peer's stream frontier to pass the round's epoch
//     before publishing the next (the same barrier ReconcileAll provides).
//
// Within that frame the rounds still exercise every decision kind:
// conflicting re-inserts of an applied key (rejects at every importer),
// edits touching the warm-up's dirty key (defers), rejected-antecedent
// chains, and plain disjoint inserts (accepts).

// streamRound is one single-publisher round: each update becomes its own
// transaction, all published in one epoch.
type streamRound struct {
	pub   PeerID
	edits []Update
}

func streamingRounds() []streamRound {
	return []streamRound{
		// pa claims key K; pc (which does not trust pa) never imports it.
		{"pa", []Update{
			Insert("F", Strs("org", "K", "ka"), "pa"),
			Insert("F", Strs("org", "A1", "v"), "pa"),
		}},
		// pc re-inserts K with a different value: every peer that applied
		// pa's version rejects it (instance-incompatible), while C2 in the
		// same epoch is accepted — both decisions in one window.
		{"pc", []Update{
			Insert("F", Strs("org", "K", "kc"), "pc"),
			Insert("F", Strs("org", "C2", "v"), "pc"),
		}},
		// pc revises the warm-up tuple it imported from pb: pd holds TIE as
		// a dirty key and must defer; pa rejected pb's original, so the
		// chain is rejected there; pb accepts the revision.
		{"pc", []Update{
			Modify("F", Strs("org", "TIE", "vb"), Strs("org", "TIE", "vx"), "pc"),
		}},
		{"pb", []Update{Insert("F", Strs("org", "B4", "v"), "pb")}},
		{"pd", []Update{Insert("F", Strs("org", "D5", "v"), "pd")}},
	}
}

var streamPeerOrder = []PeerID{"pa", "pb", "pc", "pd"}

func addStreamPeers(t *testing.T, sys *System) map[PeerID]*Peer {
	t.Helper()
	trust := map[PeerID]map[PeerID]int{
		"pa": {"pb": 1, "pc": 1, "pd": 1},
		"pb": {"pa": 2, "pc": 1, "pd": 1},
		"pc": {"pb": 1, "pd": 1}, // pa untrusted: enables the conflicting K re-insert
		"pd": {"pa": 1, "pb": 1, "pc": 1},
	}
	out := make(map[PeerID]*Peer, len(streamPeerOrder))
	for _, id := range streamPeerOrder {
		p, err := sys.AddPeer(id, TrustOrigins(trust[id]))
		if err != nil {
			t.Fatal(err)
		}
		out[id] = p
	}
	return out
}

// streamScenarioResult is everything the differential compares: per-peer
// ordered non-empty decision windows, final instances, and the engine's
// applied/rejected/deferred sets over the published universe.
type streamScenarioResult struct {
	Outcomes  map[PeerID][]roundOutcome
	Instances map[PeerID][]string
	Applied   map[PeerID][]string
	Rejected  map[PeerID][]string
	Deferred  map[PeerID][]string
}

func recordOutcome(outcomes map[PeerID][]roundOutcome, id PeerID, res *Result) {
	if res == nil || len(res.Accepted)+len(res.Rejected)+len(res.Deferred) == 0 {
		return
	}
	outcomes[id] = append(outcomes[id], roundOutcome{
		Accepted: sortedIDs(res.Accepted),
		Rejected: sortedIDs(res.Rejected),
		Deferred: sortedIDs(res.Deferred),
	})
}

func streamFingerprint(peers map[PeerID]*Peer, universe []TxnID, outcomes map[PeerID][]roundOutcome) streamScenarioResult {
	out := streamScenarioResult{
		Outcomes:  outcomes,
		Instances: make(map[PeerID][]string),
		Applied:   make(map[PeerID][]string),
		Rejected:  make(map[PeerID][]string),
		Deferred:  make(map[PeerID][]string),
	}
	ids := sortedIDs(universe)
	for id, p := range peers {
		var enc []string
		for _, tuple := range p.Instance().Tuples("F") {
			enc = append(enc, tuple.Encode())
		}
		sort.Strings(enc)
		out.Instances[id] = enc
		for _, x := range ids {
			if p.Engine().Applied(x) {
				out.Applied[id] = append(out.Applied[id], fmt.Sprint(x))
			}
			if p.Engine().Rejected(x) {
				out.Rejected[id] = append(out.Rejected[id], fmt.Sprint(x))
			}
		}
		for _, x := range sortedIDs(p.Engine().DeferredIDs()) {
			out.Deferred[id] = append(out.Deferred[id], fmt.Sprint(x))
		}
	}
	return out
}

func streamSchema() *Schema {
	return MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
}

// phase0 plants the warm-up conflict and runs one round-based round: pa and
// pb publish equal-priority values for TIE, so pd defers both (dirty key)
// while pa and pb each reject the other's.
func phase0(t *testing.T, ctx context.Context, sys *System, peers map[PeerID]*Peer,
	edit func(*Peer, Update) *Transaction, outcomes map[PeerID][]roundOutcome) {
	t.Helper()
	edit(peers["pa"], Insert("F", Strs("org", "TIE", "va"), "pa"))
	edit(peers["pb"], Insert("F", Strs("org", "TIE", "vb"), "pb"))
	results, err := sys.ReconcileAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range streamPeerOrder {
		recordOutcome(outcomes, id, results[id])
	}
	if got := peers["pd"].Engine().DeferredIDs(); len(got) != 2 {
		t.Fatalf("warm-up did not defer at pd: %v", got)
	}
}

// runRoundScenario is the reference: after the warm-up, an alignment
// reconcile (the analogue of the streams' catch-up step, which re-reports
// carried deferrals), then one publish + all-peers-reconcile pass per
// single-publisher round.
func runRoundScenario(t *testing.T, storeOpts ...central.Option) streamScenarioResult {
	t.Helper()
	ctx := context.Background()
	cs, err := central.Open(streamSchema(), "", storeOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	sys, err := NewSystem(streamSchema(), WithPeerStores(func(core.PeerID) (store.Store, error) { return cs, nil }))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	peers := addStreamPeers(t, sys)

	var universe []TxnID
	outcomes := make(map[PeerID][]roundOutcome)
	edit := func(p *Peer, u Update) *Transaction {
		x, err := p.Edit(u)
		if err != nil {
			t.Fatalf("edit at %s: %v", p.ID(), err)
		}
		universe = append(universe, x.ID)
		return x
	}
	phase0(t, ctx, sys, peers, edit, outcomes)
	for _, id := range streamPeerOrder {
		res, err := peers[id].Reconcile(ctx)
		if err != nil {
			t.Fatal(err)
		}
		recordOutcome(outcomes, id, res)
	}
	for _, r := range streamingRounds() {
		for _, u := range r.edits {
			edit(peers[r.pub], u)
		}
		if _, err := peers[r.pub].Publish(ctx); err != nil {
			t.Fatal(err)
		}
		for _, id := range streamPeerOrder {
			res, err := peers[id].Reconcile(ctx)
			if err != nil {
				t.Fatal(err)
			}
			recordOutcome(outcomes, id, res)
		}
	}
	return streamFingerprint(peers, universe, outcomes)
}

// waitStream polls cond (under mu) until it holds or the deadline passes.
func waitStream(t *testing.T, mu *sync.Mutex, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		ok := cond()
		mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("streams never reached: %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// runStreamingScenario drives the same workload with RunStreaming: the
// driver only edits and publishes; reconciliation and decision flushing
// happen on the per-peer streams, with the round barrier expressed as
// "every stream frontier has passed this round's epoch".
func runStreamingScenario(t *testing.T, storeOpts ...central.Option) (streamScenarioResult, PipelineSnapshot) {
	t.Helper()
	ctx := context.Background()
	cs, err := central.Open(streamSchema(), "", storeOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	var mu sync.Mutex
	outcomes := make(map[PeerID][]roundOutcome)
	steps := make(map[PeerID]int)
	frontier := make(map[PeerID]Epoch)
	obs := func(r StreamResult) {
		mu.Lock()
		defer mu.Unlock()
		steps[r.Peer]++
		if r.To > frontier[r.Peer] {
			frontier[r.Peer] = r.To
		}
		recordOutcome(outcomes, r.Peer, r.Result)
	}
	sys, err := NewSystem(streamSchema(),
		WithPeerStores(func(core.PeerID) (store.Store, error) { return cs, nil }),
		WithStreamObserver(obs),
		WithStreamRetry(time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	peers := addStreamPeers(t, sys)

	var universe []TxnID
	edit := func(p *Peer, u Update) *Transaction {
		x, err := p.Edit(u)
		if err != nil {
			t.Fatalf("edit at %s: %v", p.ID(), err)
		}
		universe = append(universe, x.ID)
		return x
	}
	mu.Lock()
	phase0(t, ctx, sys, peers, edit, outcomes)
	mu.Unlock()

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sys.RunStreaming(sctx) }()

	// Catch-up barrier: every stream has run its first step (which, at pd,
	// re-reports the carried deferrals — matching the reference's
	// alignment reconcile) before the first streamed publish.
	waitStream(t, &mu, "catch-up step on every peer", func() bool {
		for _, id := range streamPeerOrder {
			if steps[id] < 1 {
				return false
			}
		}
		return true
	})

	for i, r := range streamingRounds() {
		for _, u := range r.edits {
			edit(peers[r.pub], u)
		}
		epoch, err := peers[r.pub].Publish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		waitStream(t, &mu, fmt.Sprintf("round %d frontier %d", i, epoch), func() bool {
			for _, id := range streamPeerOrder {
				if frontier[id] < epoch {
					return false
				}
			}
			return true
		})
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("RunStreaming: %v", err)
	}
	// Streams are joined: engines are quiescent and safe to fingerprint.
	return streamFingerprint(peers, universe, outcomes), sys.Pipeline().Snapshot()
}

func diffStreamResults(t *testing.T, got, want streamScenarioResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Outcomes, want.Outcomes) {
		t.Errorf("decision transcripts diverge:\n got %+v\nwant %+v", got.Outcomes, want.Outcomes)
	}
	if !reflect.DeepEqual(got.Instances, want.Instances) {
		t.Errorf("instances diverge:\n got %+v\nwant %+v", got.Instances, want.Instances)
	}
	if !reflect.DeepEqual(got.Applied, want.Applied) {
		t.Errorf("applied sets diverge:\n got %+v\nwant %+v", got.Applied, want.Applied)
	}
	if !reflect.DeepEqual(got.Rejected, want.Rejected) {
		t.Errorf("rejected sets diverge:\n got %+v\nwant %+v", got.Rejected, want.Rejected)
	}
	if !reflect.DeepEqual(got.Deferred, want.Deferred) {
		t.Errorf("deferred sets diverge:\n got %+v\nwant %+v", got.Deferred, want.Deferred)
	}
}

// TestStreamingDifferential: the tentpole correctness gate. The streaming
// reconcile loop must be bit-identical to the round-based pass — same
// per-peer decision windows, same final instances, same engine decision
// sets — with compaction off and on. Run with -race
// (the tier-1 gate does): the streaming runs overlap publishes, watch
// delivery, reconciliation, and decision flushes across goroutines.
func TestStreamingDifferential(t *testing.T) {
	ref := runRoundScenario(t)

	// The scenario must exercise every decision kind, or the comparison
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
		t.Fatalf("vacuous scenario: accepts=%d rejects=%d defers=%d", accepts, rejects, defers)
	}

	for _, compact := range []bool{true, false} {
		t.Run(fmt.Sprintf("compaction=%v", compact), func(t *testing.T) {
			var opts []central.Option
			if compact {
				opts = append(opts, central.WithSnapshotEvery(2), central.WithCompactKeep(1))
			}
			got, pstats := runStreamingScenario(t, opts...)
			diffStreamResults(t, got, ref)
			// The lag counters are live on the streaming path.
			if pstats.StreamPublishStable == 0 {
				t.Error("no publish-to-stable latencies observed")
			}
			if pstats.StreamStableDecide == 0 {
				t.Error("no stable-to-decision latencies observed")
			}
		})
	}
}

// TestStreamingNeedsWatcher: a store that is only the six-method
// store.Store cannot stream, and the stream says so at once instead of
// retrying.
func TestStreamingNeedsWatcher(t *testing.T) {
	ctx := context.Background()
	cs := central.MustOpenMemory(streamSchema())
	defer cs.Close()
	p, err := store.NewPeer(ctx, "pa", streamSchema(), TrustAll(1), struct{ store.Store }{cs})
	if err != nil {
		t.Fatal(err)
	}
	err = p.ReconcileStream(ctx, StreamOptions{})
	if err == nil || store.IsTransient(err) || !strings.Contains(err.Error(), "cannot watch") {
		t.Fatalf("ReconcileStream over a bare store.Store: %v, want a permanent cannot-watch error", err)
	}
}
