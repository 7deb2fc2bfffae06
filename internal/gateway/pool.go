package gateway

import (
	"context"
	"sync/atomic"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// Pool fans store operations out over a fixed set of interchangeable
// clients round-robin — the gateway's backend connection pool. A single
// TCP client serializes every in-flight call over one connection; a pool
// of N clients gives the gateway N concurrent lanes to the same
// orchestra-store without any coordination, because the update-store
// protocol is already safe for concurrent callers. Every lane is a
// store.Backend (a remote.Client in production), so the pool is one too;
// watch subscriptions stick to the lane that opened them.
type Pool struct {
	stores []store.Backend
	next   atomic.Uint64
}

var _ store.Backend = (*Pool)(nil)

// NewPool builds a pool over the given clients; it panics on an empty set
// (a programming error).
func NewPool(stores ...store.Backend) *Pool {
	if len(stores) == 0 {
		panic("gateway: empty store pool")
	}
	return &Pool{stores: stores}
}

func (p *Pool) pick() store.Backend {
	return p.stores[p.next.Add(1)%uint64(len(p.stores))]
}

func (p *Pool) RegisterPeer(ctx context.Context, peer core.PeerID, t core.Trust) error {
	return p.pick().RegisterPeer(ctx, peer, t)
}

func (p *Pool) Publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn) (core.Epoch, error) {
	return p.pick().Publish(ctx, peer, txns)
}

func (p *Pool) BeginReconciliation(ctx context.Context, peer core.PeerID) (*store.Reconciliation, error) {
	return p.pick().BeginReconciliation(ctx, peer)
}

func (p *Pool) RecordDecisions(ctx context.Context, peer core.PeerID, recno int, accepted, rejected []core.TxnID) error {
	return p.pick().RecordDecisions(ctx, peer, recno, accepted, rejected)
}

func (p *Pool) RecordDecisionsBatch(ctx context.Context, batches []store.DecisionBatch) error {
	return p.pick().RecordDecisionsBatch(ctx, batches)
}

func (p *Pool) CurrentRecno(ctx context.Context, peer core.PeerID) (int, error) {
	return p.pick().CurrentRecno(ctx, peer)
}

func (p *Pool) ReplayFor(ctx context.Context, peer core.PeerID) ([]store.PublishedTxn, map[core.TxnID]core.RestoredDecision, error) {
	return p.pick().ReplayFor(ctx, peer)
}

func (p *Pool) Snapshot(ctx context.Context) (core.Epoch, error) {
	return p.pick().Snapshot(ctx)
}

func (p *Pool) CompactBefore(ctx context.Context, e core.Epoch) error {
	return p.pick().CompactBefore(ctx, e)
}

func (p *Pool) LatestSnapshot(ctx context.Context) (*store.Snapshot, error) {
	return p.pick().LatestSnapshot(ctx)
}

func (p *Pool) ReplayFrom(ctx context.Context, peer core.PeerID, from core.Epoch, afterSeq int64) ([]store.PublishedTxn, map[core.TxnID]core.RestoredDecision, error) {
	return p.pick().ReplayFrom(ctx, peer, from, afterSeq)
}

func (p *Pool) WatchFrom(ctx context.Context, from core.Epoch) (<-chan store.WatchEvent, error) {
	return p.pick().WatchFrom(ctx, from)
}

func (p *Pool) EffectiveTrust(ctx context.Context, peer core.PeerID) (core.Trust, error) {
	return p.pick().EffectiveTrust(ctx, peer)
}
