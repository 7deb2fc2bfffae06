package store

import (
	"context"

	"orchestra/internal/core"
)

// Snapshot is a global engine-state snapshot of an update store at a
// stable-epoch boundary: for every peer registered when it was taken, the
// engine state that peer's decisions up to the snapshot produce, plus the
// residue — every published transaction at or below the snapshot epoch that
// is not yet accepted by all registered peers, and so may still appear in
// future transaction extensions or be decided late. Snapshots are what make
// bounded catch-up (RebuildPeer via snapshot + tail) and publish-log
// compaction possible; the recovery contract lives in docs/RECOVERY.md.
type Snapshot struct {
	// Epoch is the stable epoch the snapshot was taken at: every
	// transaction in epochs 1..Epoch is either folded into the per-peer
	// engine states or carried in Residue.
	Epoch core.Epoch
	// Peers holds one entry per registered peer, sorted by peer ID.
	Peers []PeerSnapshot
	// Residue lists, in global order, the transactions at or below Epoch
	// that at least one registered peer has not accepted. Their payloads
	// must outlive compaction: they can still appear in antecedent
	// closures, and an undecided one can still be accepted or rejected
	// after the snapshot.
	Residue []PublishedTxn
}

// PeerSnapshot is one peer's slice of a store snapshot.
type PeerSnapshot struct {
	// LastEpoch is the peer's reconciliation frontier (the store-recorded
	// epoch of its latest reconciliation) when the snapshot was taken.
	LastEpoch core.Epoch
	// Recno is the peer's reconciliation number at snapshot time.
	Recno int
	// DecisionSeq is the peer's decision-sequence high-water mark: every
	// decision with sequence <= DecisionSeq is folded into Engine; a
	// snapshot-based rebuild replays only decisions after it. It is the
	// peer's longest decision prefix referencing transactions at or below
	// the snapshot epoch — usually everything, but self-accepts on a
	// finished epoch the stable frontier has not reached stay in the
	// tail, where ReplayFrom pairs them with their payloads.
	DecisionSeq int64
	// Engine is the peer's engine state with all decisions up to
	// DecisionSeq applied (Engine.Peer identifies the peer).
	Engine core.EngineSnapshot
}

// Peer returns the snapshot entry for the given peer, or nil if the peer
// was not registered when the snapshot was taken or there is no snapshot
// (s is nil).
func (s *Snapshot) Peer(id core.PeerID) *PeerSnapshot {
	if s == nil {
		return nil
	}
	for i := range s.Peers {
		if s.Peers[i].Engine.Peer == id {
			return &s.Peers[i]
		}
	}
	return nil
}

// Snapshotter is the Backend capability of taking snapshots and compacting
// the publish log behind them. The central store implements it; the remote
// client proxies it to its server's backend.
type Snapshotter interface {
	// Snapshot serializes a global engine-state snapshot at the current
	// stable epoch and retains it as the latest snapshot, returning the
	// epoch it covers (0, with no snapshot written, if nothing has been
	// published yet).
	Snapshot(ctx context.Context) (core.Epoch, error)

	// CompactBefore drops publish and decision rows for epochs at or below
	// e. It refuses to compact past the latest retained snapshot, past any
	// registered peer's reconciliation frontier, or while any registered
	// peer is missing from the latest snapshot — the safety invariants of
	// docs/RECOVERY.md.
	CompactBefore(ctx context.Context, e core.Epoch) error
}

// SnapshotReplayer is the replay capability: the retained snapshot plus
// the log after it, which is how RebuildPeer rebuilds every peer — two
// round trips against a remote store. A peer no snapshot covers replays
// from epoch 0 with afterSeq −1, the whole history.
type SnapshotReplayer interface {
	// LatestSnapshot returns the most recent retained snapshot, or nil if
	// none has been taken. The value may be shared and is read-only: the
	// central store decodes it once per retained snapshot and hands every
	// caller the same pointer, so a caller that needs to change any part
	// of it copies that part first.
	LatestSnapshot(ctx context.Context) (*Snapshot, error)

	// ReplayFrom returns the published tail — every transaction in epochs
	// strictly after from, in global order — together with the peer's
	// decisions recorded after the afterSeq decision-sequence high-water
	// mark. It does not include the snapshot's residue: the caller already
	// holds it. After compaction, a from below the horizon fails for a peer
	// the retained snapshot covers: that peer's early history exists only
	// in the snapshot.
	ReplayFrom(ctx context.Context, peer core.PeerID, from core.Epoch, afterSeq int64) ([]PublishedTxn, map[core.TxnID]core.RestoredDecision, error)
}

// CanSnapshot reports whether st implements SnapshotReplayer. Nothing in
// this module calls it; it is kept until bench/trace.go stops naming it
// (see Replayer).
func CanSnapshot(_ context.Context, st Store) bool {
	_, ok := st.(SnapshotReplayer)
	return ok
}
