package orchestra

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"orchestra/internal/rpc"
	"orchestra/internal/simnet"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/store/remote"
	"orchestra/internal/store/storetest"
)

// The chaos matrix: a confederation of peers talking to a central store
// through the fault-injecting simnet fabric and the retrying remote client,
// one cell per fault regime — message loss, duplicate delivery, latency
// jitter, one-way partition with heal, and a store crash with
// snapshot-based rebuild mid-round. Every cell must converge bit-identical
// (instances, accepts, rejects, defers per peer) to a fault-free
// differential baseline running the same workload.
//
// Two workloads: the contended one has rotating writer sets fighting over
// shared keys under strict-priority trust, and runs only under fault
// regimes where retries guarantee every round completes (loss, dup,
// jitter) — round grouping then matches the baseline exactly. The
// conflict-free one gives each peer its own keyspace, making the final
// state independent of which round a delayed publish lands in; partition
// and crash cells use it, because there entire rounds are deliberately
// lost and caught up later.

const chaosStoreAddr = "chaos-store"

var chaosPeerIDs = []PeerID{"pa", "pb", "pc", "pd"}

// chaosTrust is the strict-priority trust everyone applies to everyone:
// total order, no ties, so contended decisions are deterministic.
func chaosTrust() Trust {
	return storetest.TrustOrigins(map[PeerID]int{"pa": 4, "pb": 3, "pc": 2, "pd": 1})
}

type chaosHarness struct {
	t      *testing.T
	schema *Schema
	net    *simnet.Network
	node   *simnet.Node // the store's fabric endpoint
	cs     *central.Store
	dir    string
	sys    *System

	// Streaming cells: per-stream reconciliation frontiers and last steps
	// reported by the stream observer, read by streamQuiesce to detect
	// convergence (and to say which stream stalled when it does not), and
	// the running RunStreaming.
	obsMu    sync.Mutex
	frontier map[PeerID]Epoch
	lastStep map[PeerID]observedStep
	stream   *streamRun

	universe []TxnID // every transaction the workload created
}

// chaosRetryPolicy keeps retries aggressive and fast: the simnet fabric
// fails immediately (no real timeouts), so attempts are cheap and a deep
// attempt budget rides out 10% loss without ever losing a round.
func chaosRetryPolicy() rpc.RetryPolicy {
	return rpc.RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   100 * time.Microsecond,
		MaxDelay:    2 * time.Millisecond,
		Seed:        1,
	}
}

// newChaosHarness builds the fabric, the store behind a remote server
// mounted on a simnet node, and a system whose peers each own a retrying
// remote client on their own fabric node. durable stores live in a temp
// dir with automatic snapshots, so the crash cell can rebuild from
// snapshot + WAL tail.
func newChaosHarness(t *testing.T, seed int64, durable bool) *chaosHarness {
	t.Helper()
	h := &chaosHarness{
		t:      t,
		schema: MustSchema(NewRelation("F", 2, "organism", "protein", "function")),
		net:    simnet.NewVirtual(time.Microsecond),
	}
	h.net.Seed(seed)
	h.frontier = make(map[PeerID]Epoch)
	h.lastStep = make(map[PeerID]observedStep)
	if durable {
		h.dir = t.TempDir()
	}
	h.cs = h.openStore()
	h.node = h.net.Node(chaosStoreAddr, remote.NewServer(h.cs, h.schema).Handler())

	sys, err := NewSystem(h.schema, WithPeerStores(func(id PeerID) (store.Store, error) {
		n := h.net.Node("peer-"+string(id), nil)
		return remote.NewClientOn(n, chaosStoreAddr,
			remote.WithRetryPolicy(chaosRetryPolicy()),
			remote.WithWatchPoll(time.Millisecond)), nil
	}), WithReconcileFanOut(len(chaosPeerIDs)),
		// Streaming cells only: a retry cadence matched to simnet speed, and
		// an observer tracking each stream's frontier. Inert for round cells.
		WithStreamRetry(200*time.Microsecond, 5*time.Millisecond),
		WithStreamObserver(func(r StreamResult) {
			h.obsMu.Lock()
			if r.To > h.frontier[r.Peer] {
				h.frontier[r.Peer] = r.To
			}
			h.lastStep[r.Peer] = observedStep{at: time.Now(), res: r}
			h.obsMu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	h.sys = sys
	for _, id := range chaosPeerIDs {
		if _, err := sys.AddPeer(id, chaosTrust()); err != nil {
			t.Fatalf("add %s: %v", id, err)
		}
	}
	t.Cleanup(func() { h.cs.Close() })
	return h
}

func (h *chaosHarness) openStore() *central.Store {
	cs, err := central.Open(h.schema, h.dir,
		central.WithSnapshotEvery(3), central.WithCompactKeep(2))
	if err != nil {
		h.t.Fatal(err)
	}
	return cs
}

// crashStore kills the store's fabric node and closes the backend;
// restartStore rebuilds the store from its directory (snapshot + tail),
// mounts a fresh server on the same node, and rejoins the fabric.
func (h *chaosHarness) crashStore() {
	h.net.Crash(chaosStoreAddr)
	if err := h.cs.Close(); err != nil {
		h.t.Fatalf("close crashed store: %v", err)
	}
}

func (h *chaosHarness) restartStore() {
	h.cs = h.openStore()
	h.node.Handle(remote.NewServer(h.cs, h.schema).Handler())
	h.net.Restart(chaosStoreAddr)
}

// edit applies one local update at the peer and records the transaction in
// the universe.
func (h *chaosHarness) edit(id PeerID, u Update) {
	h.t.Helper()
	p, _ := h.sys.Peer(id)
	x, err := p.Edit(u)
	if err != nil {
		h.t.Fatalf("edit at %s: %v", id, err)
	}
	h.universe = append(h.universe, x.ID)
}

// contendedEdits: a rotating half of the peers each write their own value
// for the round's shared key; consumers accept the highest-priority writer
// and reject the rest.
func (h *chaosHarness) contendedEdits(round int) {
	for i, id := range chaosPeerIDs {
		if i%2 != round%2 {
			continue
		}
		h.edit(id, Insert("F",
			Strs("shared", fmt.Sprintf("k%d", round), "val-"+string(id)), id))
	}
}

// conflictFreeEdits: every peer writes the round's key in its own keyspace;
// the converged state is the union regardless of round grouping.
func (h *chaosHarness) conflictFreeEdits(round int) {
	for _, id := range chaosPeerIDs {
		h.edit(id, Insert("F",
			Strs("zone-"+string(id), fmt.Sprintf("k%d", round), fmt.Sprintf("v%d", round)), id))
	}
}

// peerState is one peer's complete observable outcome.
type peerState struct {
	Tuples   []string
	Applied  []string
	Rejected []string
	Deferred []string
}

// fingerprint captures every peer's state over the universe, in a
// deterministic, comparable form.
func (h *chaosHarness) fingerprint() map[PeerID]peerState {
	out := make(map[PeerID]peerState, len(chaosPeerIDs))
	for _, id := range chaosPeerIDs {
		p, _ := h.sys.Peer(id)
		var st peerState
		for _, tu := range p.Instance().Tuples("F") {
			st.Tuples = append(st.Tuples, tu.Encode())
		}
		sort.Strings(st.Tuples)
		for _, xid := range h.universe {
			if p.Engine().Applied(xid) {
				st.Applied = append(st.Applied, xid.String())
			}
			if p.Engine().Rejected(xid) {
				st.Rejected = append(st.Rejected, xid.String())
			}
		}
		for _, xid := range p.Engine().DeferredIDs() {
			st.Deferred = append(st.Deferred, xid.String())
		}
		sort.Strings(st.Deferred)
		out[id] = st
	}
	return out
}

// quiesce runs fault-free catch-up rounds (no new edits): one round lets
// every straggler publish leftovers and reconcile to the frontier, the
// second proves a fixpoint was reached.
func (h *chaosHarness) quiesce(rounds int) {
	h.t.Helper()
	h.net.SetFaults(simnet.Faults{})
	for _, id := range chaosPeerIDs {
		h.net.HealOneWay("peer-"+string(id), chaosStoreAddr)
		h.net.HealOneWay(chaosStoreAddr, "peer-"+string(id))
	}
	for i := 0; i < rounds; i++ {
		if _, err := h.sys.ReconcileAll(context.Background()); err != nil {
			h.t.Fatalf("quiesce round %d: %v", i, err)
		}
	}
}

// observedStep is a stream step the observer saw, and when.
type observedStep struct {
	at  time.Time
	res StreamResult
}

// streamRun is a running System.RunStreaming and, once it has returned,
// its result.
type streamRun struct {
	done     chan error
	returned bool
	err      error
}

// poll reads the run's result if it has returned, without blocking, and
// reports whether it has.
func (r *streamRun) poll() bool {
	if !r.returned {
		select {
		case r.err = <-r.done:
			r.returned = true
		default:
		}
	}
	return r.returned
}

// startStreaming launches System.RunStreaming against the harness and
// returns a stop function that cancels the streams and joins the run.
func (h *chaosHarness) startStreaming() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	run := &streamRun{done: make(chan error, 1)}
	h.stream = run
	go func() { run.done <- h.sys.RunStreaming(ctx) }()
	return func() {
		cancel()
		if !run.returned {
			run.err, run.returned = <-run.done, true
		}
		if run.err != nil {
			h.t.Errorf("RunStreaming: %v", run.err)
		}
	}
}

// streamStall describes the streams that have not caught up with the
// target epoch: each one's frontier, pending publishes, last observed step
// and the error its stream died with, if RunStreaming has returned. It
// takes obsMu, which the caller must not hold: the observer runs under the
// peer's lock, which PendingCount takes.
func (h *chaosHarness) streamStall(target Epoch) string {
	returned := h.stream != nil && h.stream.poll()
	var b strings.Builder
	fmt.Fprintf(&b, "target epoch %d; RunStreaming returned: %v", target, returned)
	if returned {
		fmt.Fprintf(&b, " (%v)", h.stream.err)
	}
	for _, id := range chaosPeerIDs {
		p, _ := h.sys.Peer(id)
		pending := p.PendingCount()
		h.obsMu.Lock()
		front := h.frontier[id]
		st, seen := h.lastStep[id]
		h.obsMu.Unlock()
		if front >= target && pending == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n  %s: frontier %d, %d pending; last step: ", id, front, pending)
		if seen {
			r := st.res
			fmt.Fprintf(&b, "recno %d to epoch %d, %d accepted, %d rejected, %s ago",
				r.Batch.Recno, r.To, len(r.Batch.Accepted), len(r.Batch.Rejected), time.Since(st.at).Round(time.Millisecond))
		} else {
			b.WriteString("none")
		}
		b.WriteString("; error: ")
		if returned {
			fmt.Fprint(&b, streamErrOf(h.stream.err, id))
		} else {
			b.WriteString("none yet (still streaming)")
		}
	}
	return b.String()
}

// streamErrOf returns the *PeerError RunStreaming's joined error holds for
// the peer, nil if none.
func streamErrOf(err error, id PeerID) error {
	errs := []error{err}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		errs = j.Unwrap()
	}
	for _, e := range errs {
		var pe *PeerError
		if errors.As(e, &pe) && pe.Peer == id {
			return pe
		}
	}
	return nil
}

// publishAll ships every peer's pending edits while the streams run,
// tolerating transient faults: a failed publish leaves the batch pending
// and a later call ships it. Returns the highest epoch allocated so far.
func (h *chaosHarness) publishAll(max Epoch) Epoch {
	h.t.Helper()
	for _, id := range chaosPeerIDs {
		p, _ := h.sys.Peer(id)
		e, err := p.Publish(context.Background())
		if err != nil {
			if store.IsTransient(err) {
				continue // the pending batch survives for a later call
			}
			h.t.Fatalf("publish at %s: %v", id, err)
		}
		if e > max {
			max = e
		}
	}
	return max
}

// streamQuiesce is the streaming analogue of quiesce: heal the fabric, ship
// any publishes a fault left pending, and wait until every stream's
// frontier covers the last allocated epoch — at which point each peer has
// reconciled and flushed decisions for every published transaction.
func (h *chaosHarness) streamQuiesce(target Epoch) {
	h.t.Helper()
	h.net.SetFaults(simnet.Faults{})
	for _, id := range chaosPeerIDs {
		h.net.HealOneWay("peer-"+string(id), chaosStoreAddr)
		h.net.HealOneWay(chaosStoreAddr, "peer-"+string(id))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		target = h.publishAll(target)
		caughtUp := true
		for _, id := range chaosPeerIDs {
			p, _ := h.sys.Peer(id)
			h.obsMu.Lock()
			front := h.frontier[id]
			h.obsMu.Unlock()
			if p.PendingCount() > 0 || front < target {
				caughtUp = false
				break
			}
		}
		if caughtUp {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("streams never converged: %s", h.streamStall(target))
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// chaosBaseline runs the workload on a fault-free harness and returns its
// fingerprint.
func chaosBaseline(t *testing.T, rounds int, contended bool) map[PeerID]peerState {
	t.Helper()
	h := newChaosHarness(t, 0, false)
	for r := 0; r < rounds; r++ {
		if contended {
			h.contendedEdits(r)
		} else {
			h.conflictFreeEdits(r)
		}
		if _, err := h.sys.ReconcileAll(context.Background()); err != nil {
			t.Fatalf("baseline round %d: %v", r, err)
		}
	}
	h.quiesce(2)
	return h.fingerprint()
}

// diffFingerprints asserts bit-identical convergence against the baseline.
func diffFingerprints(t *testing.T, got, want map[PeerID]peerState) {
	t.Helper()
	for _, id := range chaosPeerIDs {
		if !reflect.DeepEqual(got[id], want[id]) {
			t.Errorf("%s diverged from fault-free baseline:\n got %+v\nwant %+v", id, got[id], want[id])
		}
	}
}

const chaosRounds = 5

// TestChaosMatrixCompletedRounds: loss, duplication, and jitter cells over
// the contended workload. Retries absorb every fault, so each round
// completes exactly like the baseline's — including the conflict decisions.
func TestChaosMatrixCompletedRounds(t *testing.T) {
	baseline := chaosBaseline(t, chaosRounds, true)
	cells := []struct {
		name   string
		faults simnet.Faults
	}{
		{"loss1", simnet.Faults{Loss: 0.01}},
		{"loss10", simnet.Faults{Loss: 0.10}},
		{"dup", simnet.Faults{Dup: 0.25}},
		{"jitter", simnet.Faults{Jitter: 500 * time.Microsecond}},
		{"lossdupjitter", simnet.Faults{Loss: 0.05, Dup: 0.10, Jitter: 200 * time.Microsecond}},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			h := newChaosHarness(t, 42, false)
			h.net.SetFaults(cell.faults)
			for r := 0; r < chaosRounds; r++ {
				h.contendedEdits(r)
				if _, err := h.sys.ReconcileAll(context.Background()); err != nil {
					t.Fatalf("round %d did not complete under %+v: %v", r, cell.faults, err)
				}
			}
			h.quiesce(2)
			diffFingerprints(t, h.fingerprint(), baseline)

			fs := h.net.FaultStats()
			if fs.Lost()+fs.Duplicates()+int64(fs.Jitter()) == 0 {
				t.Error("cell injected no faults — the run proved nothing")
			}
			if cell.faults.Dup > 0 || cell.faults.Loss > 0 {
				if h.cs.Metrics().Snapshot().DedupHits == 0 {
					t.Error("no idempotency dedup hits despite duplicate deliveries")
				}
			}
		})
	}
}

// TestChaosMatrixPartition: a one-way partition cuts one peer off from the
// store for two rounds. The round degrades gracefully — the cut-off peer
// reports a *PeerError while the others complete — and after healing the
// peer catches up to the fault-free baseline.
func TestChaosMatrixPartition(t *testing.T) {
	baseline := chaosBaseline(t, chaosRounds, false)
	h := newChaosHarness(t, 7, false)
	const victim = PeerID("pc")
	for r := 0; r < chaosRounds; r++ {
		if r == 1 {
			h.net.PartitionOneWay("peer-"+string(victim), chaosStoreAddr)
		}
		if r == 3 {
			h.net.HealOneWay("peer-"+string(victim), chaosStoreAddr)
		}
		h.conflictFreeEdits(r)
		_, err := h.sys.ReconcileAll(context.Background())
		if r == 1 || r == 2 {
			var pe *PeerError
			if !errors.As(err, &pe) {
				t.Fatalf("round %d: want *PeerError for the partitioned peer, got %v", r, err)
			}
			if pe.Peer != victim {
				t.Errorf("round %d: PeerError for %s, want %s", r, pe.Peer, victim)
			}
			if !strings.HasPrefix(pe.Error(), "orchestra: "+pe.Op+" "+string(victim)+": ") {
				t.Errorf("round %d: PeerError reads %q, want it to name the op and the peer", r, pe.Error())
			}
			if !store.IsTransient(pe.Err) {
				t.Errorf("round %d: partition error should classify transient: %v", r, pe.Err)
			}
		} else if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	h.quiesce(2)
	diffFingerprints(t, h.fingerprint(), baseline)
	if h.net.FaultStats().PartitionDrops() == 0 {
		t.Error("partition never dropped a call")
	}
}

// TestChaosMatrixStoreCrash: the store node crashes mid-round (after edits,
// before the round runs), the round degrades to per-peer errors, then the
// store is rebuilt from its directory — snapshot plus WAL tail, idempotency
// table included — and the confederation converges to the fault-free
// baseline.
func TestChaosMatrixStoreCrash(t *testing.T) {
	baseline := chaosBaseline(t, chaosRounds, false)
	h := newChaosHarness(t, 13, true)
	for r := 0; r < chaosRounds; r++ {
		h.conflictFreeEdits(r)
		if r == 2 {
			h.crashStore()
			_, err := h.sys.ReconcileAll(context.Background())
			if err == nil {
				t.Fatal("round against a crashed store succeeded")
			}
			var pe *PeerError
			if !errors.As(err, &pe) {
				t.Fatalf("want *PeerError from the crashed round, got %v", err)
			}
			h.restartStore()
			// The same round retries after the restart and must complete:
			// the peers' pending edits were never consumed.
		}
		if _, err := h.sys.ReconcileAll(context.Background()); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	h.quiesce(2)
	diffFingerprints(t, h.fingerprint(), baseline)
	if h.net.FaultStats().CrashDrops() == 0 {
		t.Error("crash never dropped a call")
	}
}

// TestChaosMatrixLossAcrossRestart: message loss while the store also
// crashes and rebuilds — retried deliveries spanning the restart must
// dedupe against the durably reloaded idempotency table rather than
// double-apply.
func TestChaosMatrixLossAcrossRestart(t *testing.T) {
	baseline := chaosBaseline(t, chaosRounds, false)
	h := newChaosHarness(t, 99, true)
	h.net.SetFaults(simnet.Faults{Loss: 0.05})
	for r := 0; r < chaosRounds; r++ {
		h.conflictFreeEdits(r)
		if r == 3 {
			h.crashStore()
			_, _ = h.sys.ReconcileAll(context.Background()) // degraded round
			h.restartStore()
		}
		if _, err := h.sys.ReconcileAll(context.Background()); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	h.quiesce(2)
	diffFingerprints(t, h.fingerprint(), baseline)
}

// The streaming cells run the same fault regimes against RunStreaming: the
// peers consume stable epochs through the watch long-poll while the fabric
// drops, cuts, or crashes under them, and every cell must still converge
// bit-identical to the fault-free ROUND-BASED baseline. The workload is the
// conflict-free one: a streaming run windows epochs differently than rounds
// do, and (as with the polling fallback) only conflict-free final states
// are window-insensitive.
//
// Cursor-resume is what these cells actually exercise: a lost or partitioned
// long-poll closes the client-side subscription channel, and ReconcileStream
// re-subscribes from the frontier of its last completed step — so a window
// can neither be skipped (the next BeginReconciliation starts at the stored
// frontier) nor double-applied (decisions are idempotency-keyed).

// TestChaosMatrixStreamingLoss: message loss on the watch stream at 1% and
// 10%. Polls that die mid-flight break the subscription; the stream resumes
// from its cursor and the confederation converges.
func TestChaosMatrixStreamingLoss(t *testing.T) {
	baseline := chaosBaseline(t, chaosRounds, false)
	for _, cell := range []struct {
		name string
		loss float64
	}{
		{"loss1", 0.01},
		{"loss10", 0.10},
	} {
		t.Run(cell.name, func(t *testing.T) {
			h := newChaosHarness(t, 42, false)
			stop := h.startStreaming()
			h.net.SetFaults(simnet.Faults{Loss: cell.loss})
			var last Epoch
			for r := 0; r < chaosRounds; r++ {
				h.conflictFreeEdits(r)
				last = h.publishAll(last)
			}
			// The rounds can finish in milliseconds — too few deliveries for
			// a low loss rate to bite. The long-polls keep flowing, so hold
			// the fault regime open until at least one of them is dropped.
			for deadline := time.Now().Add(10 * time.Second); h.net.FaultStats().Lost() == 0 &&
				time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			h.streamQuiesce(last)
			stop()
			diffFingerprints(t, h.fingerprint(), baseline)
			if h.net.FaultStats().Lost() == 0 {
				t.Error("cell injected no faults — the run proved nothing")
			}
		})
	}
}

// TestChaosMatrixStreamingPartition: a one-way partition cuts one peer's
// watch stream (and publishes) mid-stream for two rounds. Its stream spins
// on resume attempts until the heal, then catches up from its cursor.
func TestChaosMatrixStreamingPartition(t *testing.T) {
	baseline := chaosBaseline(t, chaosRounds, false)
	h := newChaosHarness(t, 7, false)
	const victim = PeerID("pc")
	stop := h.startStreaming()
	var last Epoch
	for r := 0; r < chaosRounds; r++ {
		if r == 1 {
			h.net.PartitionOneWay("peer-"+string(victim), chaosStoreAddr)
		}
		if r == 3 {
			h.net.HealOneWay("peer-"+string(victim), chaosStoreAddr)
		}
		h.conflictFreeEdits(r)
		last = h.publishAll(last)
	}
	h.streamQuiesce(last)
	stop()
	diffFingerprints(t, h.fingerprint(), baseline)
	if h.net.FaultStats().PartitionDrops() == 0 {
		t.Error("partition never dropped a call")
	}
}

// TestChaosMatrixStreamingStoreCrash: the store crashes and rebuilds from
// snapshot + WAL tail while every peer has an attached subscription. The
// dead store fails the long-polls (subscriptions close, resume attempts
// back off), publishes made during the outage stay pending, and after the
// restart the streams resume from their cursors against the rebuilt store.
func TestChaosMatrixStreamingStoreCrash(t *testing.T) {
	baseline := chaosBaseline(t, chaosRounds, false)
	h := newChaosHarness(t, 13, true)
	stop := h.startStreaming()
	var last Epoch
	for r := 0; r < chaosRounds; r++ {
		h.conflictFreeEdits(r)
		if r == 2 {
			h.crashStore()
			last = h.publishAll(last) // degraded: publishes fail transiently
			h.restartStore()
		}
		last = h.publishAll(last)
	}
	h.streamQuiesce(last)
	stop()
	diffFingerprints(t, h.fingerprint(), baseline)
	if h.net.FaultStats().CrashDrops() == 0 {
		t.Error("crash never dropped a call")
	}
}
