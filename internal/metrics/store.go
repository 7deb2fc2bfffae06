package metrics

import (
	"fmt"
	"sync/atomic"
)

// atomicMax raises peak to at least v (lock-free, concurrent-safe); the
// shared high-water-mark primitive behind every peak gauge in this
// package.
func atomicMax(peak *atomic.Int64, v int64) {
	for {
		cur := peak.Load()
		if v <= cur || peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// StoreCounters aggregates concurrency counters for an update store: how
// often the publish and reconcile paths contended on the store's internal
// locks (the lock-granularity signal — a hot counter means the locks are
// too coarse) and how the batched decision-recording path is used (the
// round-trip signal — decisions per round trip is the batching win). All
// methods are safe for concurrent use and nil-safe, so an uninstrumented
// store can carry a nil *StoreCounters.
type StoreCounters struct {
	publishes       atomic.Int64
	epochContention atomic.Int64
	peerContention  atomic.Int64

	decisionTrips atomic.Int64
	decisionPeers atomic.Int64
	decisions     atomic.Int64
	batchPeak     atomic.Int64

	snapshots       atomic.Int64
	compactions     atomic.Int64
	compactedEpochs atomic.Int64

	dedupHits atomic.Int64

	trustRecompiles atomic.Int64

	// publishInflight counts publish commits under way; publishOverlaps
	// counts those that began while another was.
	publishInflight atomic.Int64
	publishOverlaps atomic.Int64
}

// EnterPublishCommit records a publish commit beginning, counting it as an
// overlap when another publish commit is already under way.
func (c *StoreCounters) EnterPublishCommit() {
	if c == nil {
		return
	}
	if c.publishInflight.Add(1) > 1 {
		c.publishOverlaps.Add(1)
	}
}

// LeavePublishCommit records a publish commit ending.
func (c *StoreCounters) LeavePublishCommit() {
	if c == nil {
		return
	}
	c.publishInflight.Add(-1)
}

// ObservePublish counts one Publish call.
func (c *StoreCounters) ObservePublish() {
	if c == nil {
		return
	}
	c.publishes.Add(1)
}

// ObserveEpochContention counts one publisher that had to wait for the
// epoch-allocation critical section.
func (c *StoreCounters) ObserveEpochContention() {
	if c == nil {
		return
	}
	c.epochContention.Add(1)
}

// ObservePeerContention counts one caller that had to wait for a per-peer
// publish/reconcile shard lock.
func (c *StoreCounters) ObservePeerContention() {
	if c == nil {
		return
	}
	c.peerContention.Add(1)
}

// ObserveDecisionRoundTrip records one decision-recording round trip
// carrying the outcomes of peers reconciliations and decisions total
// accept/reject decisions.
func (c *StoreCounters) ObserveDecisionRoundTrip(peers, decisions int) {
	if c == nil {
		return
	}
	c.decisionTrips.Add(1)
	c.decisionPeers.Add(int64(peers))
	c.decisions.Add(int64(decisions))
	atomicMax(&c.batchPeak, int64(peers))
}

// ObserveDedupHit counts one idempotency-keyed call answered from the
// dedup record of an earlier delivery instead of re-executing — each hit is
// a duplicate that would have double-applied without the key.
func (c *StoreCounters) ObserveDedupHit() {
	if c == nil {
		return
	}
	c.dedupHits.Add(1)
}

// ObserveTrustRecompiles counts n effective-trust recompilations caused
// by one trust registration — the incremental re-evaluation cost of a
// mid-stream mapping change (1 for an isolated peer, more when other
// participants delegate to it, never the whole membership).
func (c *StoreCounters) ObserveTrustRecompiles(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.trustRecompiles.Add(int64(n))
}

// ObserveSnapshot counts one retained engine-state snapshot written.
func (c *StoreCounters) ObserveSnapshot() {
	if c == nil {
		return
	}
	c.snapshots.Add(1)
}

// ObserveCompaction counts one compaction pass that dropped the given
// number of epochs from the publish tables.
func (c *StoreCounters) ObserveCompaction(epochs int) {
	if c == nil {
		return
	}
	c.compactions.Add(1)
	c.compactedEpochs.Add(int64(epochs))
}

// StoreSnapshot is a point-in-time copy of StoreCounters.
type StoreSnapshot struct {
	Publishes       int64 // Publish calls
	EpochContention int64 // epoch-allocation lock waits
	PeerContention  int64 // per-peer shard lock waits

	DecisionRoundTrips int64 // decision-recording store calls
	DecisionPeers      int64 // reconciliation outcomes carried by those calls
	Decisions          int64 // individual accept/reject decisions recorded
	BatchPeak          int64 // most outcomes carried by a single round trip

	Snapshots       int64 // retained engine-state snapshots written
	Compactions     int64 // compaction passes that dropped rows
	CompactedEpochs int64 // epochs dropped from the publish tables

	DedupHits int64 // duplicate keyed deliveries answered from dedup state

	TrustRecompiles int64 // effective-trust recompilations across all registrations

	PublishOverlaps int64 // publish commits that began while another was under way
}

// Snapshot returns a copy of the counters (each field read atomically).
// A nil receiver yields the zero snapshot.
func (c *StoreCounters) Snapshot() StoreSnapshot {
	if c == nil {
		return StoreSnapshot{}
	}
	return StoreSnapshot{
		Publishes:          c.publishes.Load(),
		EpochContention:    c.epochContention.Load(),
		PeerContention:     c.peerContention.Load(),
		DecisionRoundTrips: c.decisionTrips.Load(),
		DecisionPeers:      c.decisionPeers.Load(),
		Decisions:          c.decisions.Load(),
		BatchPeak:          c.batchPeak.Load(),
		Snapshots:          c.snapshots.Load(),
		Compactions:        c.compactions.Load(),
		CompactedEpochs:    c.compactedEpochs.Load(),
		DedupHits:          c.dedupHits.Load(),
		TrustRecompiles:    c.trustRecompiles.Load(),
		PublishOverlaps:    c.publishOverlaps.Load(),
	}
}

// ShardContentionTotal returns PublishOverlaps. It keeps the name it had
// when publish commits were counted per table shard, for callers that
// still read it under that name (bench/layers.go).
func (s StoreSnapshot) ShardContentionTotal() int64 { return s.PublishOverlaps }

// String renders the snapshot as a compact one-line summary.
func (s StoreSnapshot) String() string {
	return fmt.Sprintf(
		"publishes=%d epochwait=%d peerwait=%d dtrips=%d dpeers=%d decisions=%d batchpeak=%d publishoverlap=%d",
		s.Publishes, s.EpochContention, s.PeerContention,
		s.DecisionRoundTrips, s.DecisionPeers, s.Decisions, s.BatchPeak,
		s.PublishOverlaps)
}
