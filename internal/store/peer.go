package store

import (
	"context"
	"sync"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/trust"
)

// Peer couples a reconciliation engine with an update store and drives the
// publish/reconcile cycle, splitting elapsed time into store time (update
// store interactions, including network) and local time (the reconciliation
// algorithm itself) — the breakdown reported in Figures 10 and 12.
//
// The peer's mutating methods are serialized by an internal mutex so the
// streaming reconcile loop (ReconcileStream, stream.go) can run concurrently
// with Edit/Publish calls from the application. Direct engine and instance
// access (Engine, Instance) is NOT synchronized — inspect them only while no
// stream is running or after it has quiesced.
type Peer struct {
	// mu serializes the peer's engine and store interactions: local edits,
	// publishes, and reconciliations (round-based or streaming).
	mu      sync.Mutex
	engine  *core.Engine
	store   Store
	pending []PublishedTxn

	storeTime time.Duration
	localTime time.Duration

	// streaming is set while ReconcileStream runs; Publish then stamps each
	// published epoch so the stream can report publish-to-stable lag.
	streaming bool
	pubStamps []pubStamp
	// unflushed holds decision batches whose flush failed transiently; the
	// stream retries them before beginning the next window.
	unflushed []DecisionBatch
}

type pubStamp struct {
	epoch core.Epoch
	t     time.Time
}

// NewPeer registers the peer with the store and returns the wrapper. When
// the store resolves trust delegations (TrustResolver), the engine is
// seeded with the peer's *effective* policy rather than the raw registered
// one, so local candidate pricing matches the store's.
func NewPeer(ctx context.Context, id core.PeerID, schema *core.Schema, t core.Trust, st Store) (*Peer, error) {
	if err := st.RegisterPeer(ctx, id, t); err != nil {
		return nil, err
	}
	eff := effectiveTrust(ctx, st, id, schema, t)
	return &Peer{engine: core.NewEngine(id, schema, eff), store: st}, nil
}

// effectiveTrust asks a resolving store for the peer's effective policy,
// falling back to the registered one. A policy that crossed the wire comes
// back schema-less; it is a private parsed copy, so binding the engine's
// schema is safe (store-owned resolved policies arrive schema-bound
// already and are never mutated here).
func effectiveTrust(ctx context.Context, st Store, id core.PeerID, schema *core.Schema, t core.Trust) core.Trust {
	eff := t
	if r, ok := st.(TrustResolver); ok {
		if rt, err := r.EffectiveTrust(ctx, id); err == nil && rt != nil {
			eff = rt
		}
	}
	if pol, ok := eff.(*trust.Policy); ok && pol.Schema() == nil {
		pol.WithSchema(schema)
	}
	return eff
}

// SetTrust re-registers the peer at the store with a new trust policy and
// refreshes the engine in place, mid-stream: deferred candidates are
// re-priced under the new policy without replaying history, and the next
// reconciliation window is already priced store-side by the new effective
// trust. It returns the number of deferred candidates whose priority
// changed. Delegations take effect here too — the engine receives the
// resolved effective policy when the store exposes one.
func (p *Peer) SetTrust(ctx context.Context, t core.Trust) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := time.Now()
	err := p.store.RegisterPeer(ctx, p.ID(), t)
	p.storeTime += time.Since(start)
	if err != nil {
		return 0, err
	}
	eff := t
	if r, ok := p.store.(TrustResolver); ok {
		start = time.Now()
		rt, rerr := r.EffectiveTrust(ctx, p.ID())
		p.storeTime += time.Since(start)
		if rerr != nil {
			return 0, rerr
		}
		if rt != nil {
			eff = rt
		}
	}
	if pol, ok := eff.(*trust.Policy); ok && pol.Schema() == nil {
		pol.WithSchema(p.engine.Schema())
	}
	start = time.Now()
	changed := p.engine.RefreshTrust(eff)
	p.localTime += time.Since(start)
	return changed, nil
}

// ID returns the peer's identifier.
func (p *Peer) ID() core.PeerID { return p.engine.Peer() }

// Engine exposes the underlying engine (instance, conflict groups,
// resolution).
func (p *Peer) Engine() *core.Engine { return p.engine }

// Store returns the update store this peer talks to.
func (p *Peer) Store() Store { return p.store }

// Instance returns the peer's materialized instance.
func (p *Peer) Instance() *core.Instance { return p.engine.Instance() }

// StoreTime returns the cumulative time spent in update store calls.
func (p *Peer) StoreTime() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.storeTime
}

// LocalTime returns the cumulative time spent in local reconciliation work.
func (p *Peer) LocalTime() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.localTime
}

// Edit applies a local transaction and queues it for the next publish.
func (p *Peer) Edit(updates ...core.Update) (*core.Transaction, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := time.Now()
	x, err := p.engine.NewLocalTransaction(updates...)
	p.localTime += time.Since(start)
	if err != nil {
		return nil, err
	}
	p.pending = append(p.pending, PublishedTxn{
		Txn:         x,
		Antecedents: p.engine.LocalAntecedents(x.ID),
	})
	return x, nil
}

// PendingCount returns the number of local transactions awaiting publish.
func (p *Peer) PendingCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// Publish ships the pending local transactions to the update store.
func (p *Peer) Publish(ctx context.Context) (core.Epoch, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.publishLocked(ctx)
}

func (p *Peer) publishLocked(ctx context.Context) (core.Epoch, error) {
	hadPending := len(p.pending) > 0
	start := time.Now()
	epoch, err := p.store.Publish(ctx, p.ID(), p.pending)
	p.storeTime += time.Since(start)
	if err != nil {
		return 0, err
	}
	p.pending = nil
	if p.streaming && hadPending {
		p.pubStamps = append(p.pubStamps, pubStamp{epoch: epoch, t: time.Now()})
	}
	return epoch, nil
}

// Reconcile fetches the newly relevant transactions from the store, runs
// the reconciliation algorithm, and records the decisions.
func (p *Peer) Reconcile(ctx context.Context) (*core.Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, batch, _, err := p.reconcileBufferedLocked(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	err = p.store.RecordDecisions(ctx, batch.Peer, batch.Recno, batch.Accepted, batch.Rejected)
	p.storeTime += time.Since(start)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ReconcileBuffered runs the reconciliation but leaves decision recording
// to the caller: it returns the result together with the DecisionBatch
// that must still be recorded. System.ReconcileAll pools the batches of a
// whole fan-out wave into one Store.RecordDecisionsBatch round trip. The
// peer's store-time accounting covers BeginReconciliation only; the
// pooled flush is charged to whoever issues it.
func (p *Peer) ReconcileBuffered(ctx context.Context) (*core.Result, DecisionBatch, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, batch, _, err := p.reconcileBufferedLocked(ctx)
	return res, batch, err
}

// reconcileBufferedLocked is the shared begin-and-reconcile body; it also
// returns the window's end epoch (the peer's new reconciliation frontier),
// which the streaming loop uses as its resume cursor.
func (p *Peer) reconcileBufferedLocked(ctx context.Context) (*core.Result, DecisionBatch, core.Epoch, error) {
	start := time.Now()
	rec, err := p.store.BeginReconciliation(ctx, p.ID())
	p.storeTime += time.Since(start)
	if err != nil {
		return nil, DecisionBatch{}, 0, err
	}

	start = time.Now()
	res, err := p.engine.Reconcile(rec.Candidates)
	p.localTime += time.Since(start)
	if err != nil {
		return nil, DecisionBatch{}, 0, err
	}
	batch := DecisionBatch{
		Peer:     p.ID(),
		Recno:    rec.Recno,
		Accepted: res.Accepted,
		Rejected: res.Rejected,
	}
	return res, batch, rec.ToEpoch, nil
}

// PublishAndReconcile performs the combined step of §3: publish pending
// updates, then reconcile.
func (p *Peer) PublishAndReconcile(ctx context.Context) (*core.Result, error) {
	if _, err := p.Publish(ctx); err != nil {
		return nil, err
	}
	return p.Reconcile(ctx)
}

// Resolve applies a conflict resolution and reports the resulting
// accept/reject decisions to the store.
func (p *Peer) Resolve(ctx context.Context, c core.Conflict, winner int) (*core.Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := time.Now()
	res, err := p.engine.Resolve(c, winner)
	p.localTime += time.Since(start)
	if err != nil {
		return nil, err
	}
	// Resolution re-runs the peer's latest reconciliation rather than
	// starting a new one; decisions are recorded under the store's current
	// reconciliation number.
	start = time.Now()
	recno, err := p.store.CurrentRecno(ctx, p.ID())
	if err != nil {
		p.storeTime += time.Since(start)
		return nil, err
	}
	err = p.store.RecordDecisions(ctx, p.ID(), recno, res.Accepted, res.Rejected)
	p.storeTime += time.Since(start)
	if err != nil {
		return nil, err
	}
	return res, nil
}
