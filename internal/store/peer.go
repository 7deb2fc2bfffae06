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

	// owed is the ledger of decisions the engine has made and the store has
	// not yet recorded. A step or Resolve appends, settleLocked — the one place
	// decisions are recorded — empties it, and every store-mutating method
	// settles first: no window is offered twice and the engine decides no
	// transaction twice, so a batch dropped here is lost to RebuildPeer.
	owed []DecisionBatch

	// streaming is set while ReconcileStream runs; Publish then stamps each
	// published epoch so the stream can report publish-to-stable lag.
	streaming bool
	pubStamps []pubStamp
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
	eff, err := effectiveTrust(ctx, st, id, schema, t)
	if err != nil {
		return nil, err
	}
	return &Peer{engine: core.NewEngine(id, schema, eff), store: st}, nil
}

// effectiveTrust resolves the policy a peer's engine prices under: a
// resolving store's answer for the peer, else the registered policy t. A
// resolver's error is returned, not papered over with t — the store would
// go on pricing under a policy the engine did not get. A policy that crossed
// the wire comes back schema-less; it is a private parsed copy, so binding
// the engine's schema is safe (store-owned resolved policies arrive
// schema-bound already and are never mutated here).
func effectiveTrust(ctx context.Context, st Store, id core.PeerID, schema *core.Schema, t core.Trust) (core.Trust, error) {
	eff := t
	if r, ok := st.(TrustResolver); ok {
		rt, err := r.EffectiveTrust(ctx, id)
		if err != nil {
			return nil, err
		}
		if rt != nil {
			eff = rt
		}
	}
	if pol, ok := eff.(*trust.Policy); ok && pol.Schema() == nil {
		pol.WithSchema(schema)
	}
	return eff, nil
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
	var eff core.Trust
	if err == nil {
		eff, err = effectiveTrust(ctx, p.store, p.ID(), p.engine.Schema(), t)
	}
	p.storeTime += time.Since(start)
	if err != nil {
		return 0, err
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
	x, antes, err := p.engine.NewLocalTransaction(updates...)
	p.localTime += time.Since(start)
	if err != nil {
		return nil, err
	}
	p.pending = append(p.pending, PublishedTxn{Txn: x, Antecedents: antes})
	return x, nil
}

// PendingCount returns the number of local transactions awaiting publish.
func (p *Peer) PendingCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// Owed returns the number of decisions the peer's engine has made and the
// store has not yet recorded: zero, except after a failed flush.
func (p *Peer) Owed() (n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range p.owed {
		n += len(b.Accepted) + len(b.Rejected)
	}
	return n
}

// Settle records everything the given peers owe, pooled in argument order
// into one RecordDecisionsBatch round trip through (and timed against) the
// first owing peer's store. On failure every batch stays owed. Concurrent
// calls over overlapping peers must pass them in one consistent order.
func Settle(ctx context.Context, peers ...*Peer) error {
	for _, p := range peers {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	return settleLocked(ctx, peers...)
}

// settleLocked is Settle under the peers' locks. A commit whose reply was
// lost is recorded again, harmlessly: the peer makes no other store-mutating
// call in between, so its decisions keep their acceptance order.
func settleLocked(ctx context.Context, peers ...*Peer) error {
	var payer *Peer
	var owed []DecisionBatch
	for _, p := range peers {
		if payer == nil && len(p.owed) > 0 {
			payer = p
		}
		owed = append(owed, p.owed...)
	}
	if payer == nil {
		return nil
	}
	start := time.Now()
	err := payer.store.RecordDecisionsBatch(ctx, owed)
	payer.storeTime += time.Since(start)
	if err != nil {
		return err
	}
	for _, p := range peers {
		p.owed = nil
	}
	return nil
}

// oweLocked enters an outcome in the ledger, unless it decided nothing.
func (p *Peer) oweLocked(b DecisionBatch) {
	if len(b.Accepted)+len(b.Rejected) > 0 {
		p.owed = append(p.owed, b)
	}
}

// Publish ships the pending local transactions to the update store — after
// settling: their antecedents may be among the owed accepts, and a rebuild
// replays decisions in the order the store got them.
func (p *Peer) Publish(ctx context.Context) (core.Epoch, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := settleLocked(ctx, p); err != nil {
		return 0, err
	}
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
// the reconciliation algorithm, and records the decisions. When only the
// recording fails, the result comes back with the error: the engine did
// decide, and the decisions stay owed.
func (p *Peer) Reconcile(ctx context.Context) (*core.Result, error) {
	res, err := p.Step(ctx)
	if err != nil {
		return nil, err
	}
	return res, Settle(ctx, p)
}

// Step is Reconcile without the final settle: the outcome is left owed, for
// a caller that pools several peers' steps into one Settle (ReconcileAll).
func (p *Peer) Step(ctx context.Context) (*core.Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, _, _, err := p.stepLocked(ctx)
	return res, err
}

// stepLocked is the one reconciliation step: settle what is owed, begin,
// reconcile, owe the outcome. The batch and the window's end epoch (the
// peer's new frontier) are returned for the streaming loop, which reports
// both and resumes from the epoch.
func (p *Peer) stepLocked(ctx context.Context) (*core.Result, DecisionBatch, core.Epoch, error) {
	if err := settleLocked(ctx, p); err != nil {
		return nil, DecisionBatch{}, 0, err
	}
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
	batch := DecisionBatch{Peer: p.ID(), Recno: rec.Recno, Accepted: res.Accepted, Rejected: res.Rejected}
	p.oweLocked(batch)
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
// accept/reject decisions to the store — like Reconcile, with the result
// beside the error when only the recording fails.
func (p *Peer) Resolve(ctx context.Context, c core.Conflict, winner int) (*core.Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := settleLocked(ctx, p); err != nil {
		return nil, err
	}
	// Resolution re-runs the peer's latest reconciliation rather than
	// starting a new one; decisions are recorded under the store's current
	// reconciliation number — fetched first, so that nothing that can fail
	// sits between the engine deciding and the peer owing.
	start := time.Now()
	recno, err := p.store.CurrentRecno(ctx, p.ID())
	p.storeTime += time.Since(start)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	res, err := p.engine.Resolve(c, winner)
	p.localTime += time.Since(start)
	if err != nil {
		return nil, err
	}
	p.oweLocked(DecisionBatch{Peer: p.ID(), Recno: recno, Accepted: res.Accepted, Rejected: res.Rejected})
	return res, settleLocked(ctx, p)
}
