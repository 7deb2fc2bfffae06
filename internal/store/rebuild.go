package store

import (
	"context"
	"fmt"

	"orchestra/internal/core"
)

// Replayer is the Backend capability behind the paper's §5.2 soft-state
// guarantee: a participant's entire state is reconstructable from the
// update store. ReplayFor is the full-history path; SnapshotReplayer is the
// bounded snapshot + tail path, which RebuildPeer prefers. The central store
// implements both and the remote client proxies both to its server's
// backend. The recovery contract — which path applies when, and what
// compaction changes — is documented in docs/RECOVERY.md.
type Replayer interface {
	// ReplayFor returns every published transaction in global order
	// together with the peer's recorded decisions (with their acceptance
	// sequence). After compaction it fails for peers covered by the
	// retained snapshot: their early history exists only in the snapshot.
	ReplayFor(ctx context.Context, peer core.PeerID) ([]PublishedTxn, map[core.TxnID]core.RestoredDecision, error)
}

// CanReplay reports whether the store supports peer reconstruction by full
// replay.
func CanReplay(_ context.Context, st Store) bool {
	_, ok := st.(Replayer)
	return ok
}

// RebuildPeer reconstructs a participant's engine — instance, applied and
// rejected sets, provenance — from the update store alone. When the store
// retains a snapshot covering the peer (SnapshotReplayer), the rebuild is
// bounded: the engine is restored from the snapshot and only the log tail
// after the snapshot epoch is replayed — for a remote store, two round
// trips instead of shipping the whole history. Otherwise it falls back to
// FullReplayRebuild. Deferred state is not recorded in the store (it is
// client soft state in the truest sense), and today a rebuilt peer does not
// get it back: the deferred transactions lie before the peer's stored
// frontier and nothing re-offers a closed window (docs/RECOVERY.md).
//
// The returned peer is ready to continue reconciling where the lost one
// stopped: like NewPeer, its engine prices candidates under the peer's
// effective trust when the store resolves delegations.
func RebuildPeer(ctx context.Context, id core.PeerID, schema *core.Schema, trust core.Trust, st Store) (*Peer, error) {
	if sr, ok := st.(SnapshotReplayer); ok {
		// LatestSnapshot and ReplayFrom are two calls; a concurrent
		// snapshot + compaction cycle can retire the fetched snapshot in
		// between, failing the tail fetch. One retry against the fresh
		// snapshot resolves that transient — a second failure is a real
		// error.
		for attempt := 0; ; attempt++ {
			snap, err := sr.LatestSnapshot(ctx)
			if err != nil {
				return nil, err
			}
			if snap == nil || snap.Peer(id) == nil {
				break // no snapshot coverage: full replay below
			}
			p, err := rebuildFromSnapshot(ctx, schema, trust, st, sr, snap, snap.Peer(id))
			if err == nil || attempt > 0 {
				return p, err
			}
		}
	}
	return FullReplayRebuild(ctx, id, schema, trust, st)
}

// FullReplayRebuild reconstructs the peer by replaying the complete
// published log — the historical O(total history) path, and the fallback
// for stores without a snapshot (or peers a snapshot does not cover).
func FullReplayRebuild(ctx context.Context, id core.PeerID, schema *core.Schema, trust core.Trust, st Store) (*Peer, error) {
	rp, ok := st.(Replayer)
	if !ok {
		return nil, fmt.Errorf("store: %T cannot replay peer state", st)
	}
	trust, err := effectiveTrust(ctx, st, id, schema, trust)
	if err != nil {
		return nil, err
	}
	log, decisions, err := rp.ReplayFor(ctx, id)
	if err != nil {
		return nil, err
	}
	engine := core.NewEngine(id, schema, trust)
	if err := engine.Restore(loggedTxns(log), decisions); err != nil {
		return nil, err
	}
	return &Peer{engine: engine, store: st}, nil
}

// rebuildFromSnapshot is the bounded path: seed the engine from the peer's
// snapshot state, then replay the residue plus the post-snapshot tail with
// the decisions recorded after the snapshot's high-water mark.
func rebuildFromSnapshot(ctx context.Context, schema *core.Schema, trust core.Trust, st Store, sr SnapshotReplayer, snap *Snapshot, ps *PeerSnapshot) (*Peer, error) {
	trust, err := effectiveTrust(ctx, st, ps.Engine.Peer, schema, trust)
	if err != nil {
		return nil, err
	}
	engine, err := core.NewEngineFromSnapshot(schema, trust, &ps.Engine)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot for %s: %w", ps.Engine.Peer, err)
	}
	tail, decisions, err := sr.ReplayFrom(ctx, ps.Engine.Peer, snap.Epoch, ps.DecisionSeq)
	if err != nil {
		return nil, err
	}
	log := loggedTxns(snap.Residue)
	log = append(log, loggedTxns(tail)...)
	if err := engine.RestoreTail(log, decisions); err != nil {
		return nil, fmt.Errorf("store: snapshot tail for %s: %w", ps.Engine.Peer, err)
	}
	return &Peer{engine: engine, store: st}, nil
}

// loggedTxns converts published transactions to the core restore log form.
func loggedTxns(pts []PublishedTxn) []core.LoggedTxn {
	out := make([]core.LoggedTxn, len(pts))
	for i, pt := range pts {
		out[i] = core.LoggedTxn{Txn: pt.Txn, Antecedents: pt.Antecedents}
	}
	return out
}
