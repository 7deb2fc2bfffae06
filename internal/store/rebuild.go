package store

import (
	"context"
	"fmt"

	"orchestra/internal/core"
)

// Replayer, CanReplay, CanSnapshot and CanWatch are kept for one reason:
// bench/trace.go names them. Nothing in this module implements or calls
// them — SnapshotReplayer.ReplayFrom is the one replay verb, and
// ReplayFrom(peer, 0, -1) is the whole history. The next benchmark-only
// change deletes all four (ROADMAP item 2(b)).
type Replayer interface {
	ReplayFor(ctx context.Context, peer core.PeerID) ([]PublishedTxn, map[core.TxnID]core.RestoredDecision, error)
}

// CanReplay reports whether st implements Replayer; see Replayer.
func CanReplay(_ context.Context, st Store) bool {
	_, ok := st.(Replayer)
	return ok
}

// RebuildPeer reconstructs a participant's engine — instance, applied and
// rejected sets, provenance — from the update store alone (the paper's
// §5.2 soft-state guarantee; the contract is docs/RECOVERY.md). A rebuild
// is a snapshot plus the log after it: when the store's latest snapshot
// covers the peer, the engine is seeded from the peer's entry and only the
// residue and the epochs after the snapshot are replayed — for a remote
// store, two round trips. A peer no snapshot covers starts from an empty
// engine and epoch 0, which is the full history. Deferred state is not
// recorded in the store (it is client soft state in the truest sense), and
// today a rebuilt peer does not get it back: the deferred transactions lie
// before the peer's stored frontier and nothing re-offers a closed window.
//
// The returned peer is ready to continue reconciling where the lost one
// stopped: like NewPeer, its engine prices candidates under the peer's
// effective trust when the store resolves delegations.
func RebuildPeer(ctx context.Context, id core.PeerID, schema *core.Schema, trust core.Trust, st Store) (*Peer, error) {
	return rebuild(ctx, id, schema, trust, st, true)
}

// FullReplayRebuild reconstructs the peer from an empty engine and the
// whole published log, ignoring any snapshot. Nothing on a production path
// calls it: it is the oracle the conformance suite and the snapshot tests
// hold RebuildPeer to.
func FullReplayRebuild(ctx context.Context, id core.PeerID, schema *core.Schema, trust core.Trust, st Store) (*Peer, error) {
	return rebuild(ctx, id, schema, trust, st, false)
}

// rebuild is the one rebuild body. With useSnapshot it seeds the engine
// from the latest snapshot's entry for the peer, if there is one.
// LatestSnapshot and ReplayFrom are two calls, and a concurrent snapshot +
// compaction cycle can retire the fetched snapshot in between, failing the
// tail fetch; one retry against the fresh snapshot resolves that
// transient, and a second failure is a real error.
func rebuild(ctx context.Context, id core.PeerID, schema *core.Schema, trust core.Trust, st Store, useSnapshot bool) (*Peer, error) {
	sr, ok := st.(SnapshotReplayer)
	if !ok {
		return nil, fmt.Errorf("store: %T cannot replay peer state", st)
	}
	trust, err := effectiveTrust(ctx, st, id, schema, trust)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		var snap *Snapshot
		if useSnapshot {
			if snap, err = sr.LatestSnapshot(ctx); err != nil {
				return nil, err
			}
		}
		engine, err := replay(ctx, id, schema, trust, sr, snap)
		if err == nil {
			return &Peer{engine: engine, store: st}, nil
		}
		if snap == nil || attempt > 0 {
			return nil, err
		}
	}
}

// SeedEngine is the one seed step of a peer's engine state, which a
// rebuild and a store's next snapshot both restore decisions onto: the
// engine of ps, the peer's snapshot entry, and the decision seq the tail
// starts after, ps.DecisionSeq; or, when ps is nil, a fresh engine and −1
// (decision seqs start at 1, so the tail is every decision).
func SeedEngine(ps *PeerSnapshot, id core.PeerID, schema *core.Schema, trust core.Trust) (*core.Engine, int64, error) {
	if ps == nil {
		return core.NewEngine(id, schema, trust), -1, nil
	}
	engine, err := core.NewEngineFromSnapshot(schema, trust, &ps.Engine)
	if err != nil {
		return nil, 0, fmt.Errorf("store: snapshot for %s: %w", id, err)
	}
	return engine, ps.DecisionSeq, nil
}

// replay seeds an engine from the peer's entry in snap (SeedEngine) and
// restores the log onto it: the residue and the epochs after the snapshot,
// or, when snap does not cover the peer, the whole history from epoch 0.
func replay(ctx context.Context, id core.PeerID, schema *core.Schema, trust core.Trust, sr SnapshotReplayer, snap *Snapshot) (*core.Engine, error) {
	ps := snap.Peer(id)
	engine, afterSeq, err := SeedEngine(ps, id, schema, trust)
	if err != nil {
		return nil, err
	}
	var from core.Epoch
	var log []core.LoggedTxn
	if ps != nil {
		from, log = snap.Epoch, loggedTxns(snap.Residue)
	}
	tail, decisions, err := sr.ReplayFrom(ctx, id, from, afterSeq)
	if err != nil {
		return nil, err
	}
	if err := engine.RestoreTail(append(log, loggedTxns(tail)...), decisions); err != nil {
		return nil, fmt.Errorf("store: replay for %s: %w", id, err)
	}
	return engine, nil
}

// loggedTxns converts published transactions to the core restore log form.
func loggedTxns(pts []PublishedTxn) []core.LoggedTxn {
	out := make([]core.LoggedTxn, len(pts))
	for i, pt := range pts {
		out[i] = core.LoggedTxn{Txn: pt.Txn, Antecedents: pt.Antecedents}
	}
	return out
}
