package orchestra

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/metrics"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
)

// System wires a confederation of peers to an update store. It is a
// convenience for embedding; peers can equally be constructed directly
// against any Store implementation.
type System struct {
	schema   *Schema
	cs       *central.Store
	peers    map[PeerID]*Peer
	order    []PeerID
	fanout   int
	storeFor func(core.PeerID) (store.Store, error)
	pstats   metrics.Pipeline

	streamRetryBase time.Duration
	streamRetryMax  time.Duration
	streamObs       func(store.StreamResult)
}

// SystemOption configures NewSystem.
type SystemOption func(*systemConfig)

type systemConfig struct {
	dir      string
	fanout   int
	storeFor func(core.PeerID) (store.Store, error)

	streamRetryBase time.Duration
	streamRetryMax  time.Duration
	streamObs       func(store.StreamResult)
}

// WithStoreDir makes the central store durable in the given directory.
func WithStoreDir(dir string) SystemOption {
	return func(c *systemConfig) { c.dir = dir }
}

// WithReconcileFanOut bounds the number of peers ReconcileAll drives
// concurrently. n <= 0 (the default) uses runtime.GOMAXPROCS(0). The bound
// affects concurrency only, never semantics: every fan-out (including 1)
// runs the same publish-barrier round, so results do not depend on the
// host's core count.
func WithReconcileFanOut(n int) SystemOption {
	return func(c *systemConfig) { c.fanout = n }
}

// WithPeerStores routes every peer's store traffic through its own client
// from the factory instead of a store the system owns — e.g. a remote
// client over TCP or a fault-injecting simnet, each with its own retry
// policy. The system then opens no store of its own (CentralStore returns
// nil) and the factory's target outlives Close.
func WithPeerStores(factory func(core.PeerID) (store.Store, error)) SystemOption {
	return func(c *systemConfig) { c.storeFor = factory }
}

// WithStreamRetry bounds the exponential backoff RunStreaming applies to
// transiently failing streaming steps and broken subscriptions (defaults
// 2ms base, 100ms cap).
func WithStreamRetry(base, max time.Duration) SystemOption {
	return func(c *systemConfig) { c.streamRetryBase, c.streamRetryMax = base, max }
}

// WithStreamObserver registers a callback RunStreaming invokes after every
// streaming step whose decisions are recorded. It is called from the
// per-peer stream goroutines — possibly concurrently for different peers,
// in step order for one peer — with that peer's lock released, so it may
// call back into the peer it reports on (PendingCount, Owed, Edit, ...).
func WithStreamObserver(fn func(store.StreamResult)) SystemOption {
	return func(c *systemConfig) { c.streamObs = fn }
}

// NewSystem builds a system over the schema. By default it uses an
// in-memory central store.
func NewSystem(schema *Schema, opts ...SystemOption) (*System, error) {
	var cfg systemConfig
	for _, o := range opts {
		o(&cfg)
	}
	sys := &System{
		schema:   schema,
		peers:    make(map[PeerID]*Peer),
		fanout:   cfg.fanout,
		storeFor: cfg.storeFor,

		streamRetryBase: cfg.streamRetryBase,
		streamRetryMax:  cfg.streamRetryMax,
		streamObs:       cfg.streamObs,
	}
	if cfg.storeFor != nil {
		return sys, nil
	}
	cs, err := central.Open(schema, cfg.dir)
	if err != nil {
		return nil, err
	}
	sys.cs = cs
	return sys, nil
}

// Schema returns the shared schema.
func (s *System) Schema() *Schema { return s.schema }

// AddPeer registers a participant with its trust policy and returns its
// handle.
func (s *System) AddPeer(id PeerID, t Trust) (*Peer, error) {
	if _, dup := s.peers[id]; dup {
		return nil, fmt.Errorf("orchestra: peer %s already exists", id)
	}
	var st store.Store = s.cs
	if s.storeFor != nil {
		cl, err := s.storeFor(id)
		if err != nil {
			return nil, err
		}
		st = cl
	}
	p, err := store.NewPeer(context.Background(), id, s.schema, t, st)
	if err != nil {
		return nil, err
	}
	s.peers[id] = p
	s.order = append(s.order, id)
	return p, nil
}

// Peer returns a participant's handle.
func (s *System) Peer(id PeerID) (*Peer, bool) {
	p, ok := s.peers[id]
	return p, ok
}

// Peers returns the participants in registration order.
func (s *System) Peers() []*Peer {
	out := make([]*Peer, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.peers[id])
	}
	return out
}

// Instances returns all participants' instances (for StateRatio).
func (s *System) Instances() []*Instance {
	out := make([]*Instance, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.peers[id].Instance())
	}
	return out
}

// PeerError reports one peer's failure within a ReconcileAll round. The
// joined error ReconcileAll returns is made of these, so callers can pick
// out which peers missed the round (errors.As / a type switch over
// errors.Join's tree) and know the rest of the confederation proceeded.
type PeerError struct {
	Peer PeerID
	Op   string // "publish", "reconcile", or "record"
	Err  error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("orchestra: %s %s: %v", e.Op, e.Peer, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// ReconcileAll runs one publish/reconcile round for every peer and returns
// each peer's result.
//
// The round is split into two barriers: first every peer publishes its
// pending transactions, then every peer reconciles — each on its own
// goroutine, bounded by the fan-out (default GOMAXPROCS; see
// WithReconcileFanOut). Engines are single-owner, so peers are independent;
// the update stores are safe for concurrent use. The split makes every
// same-round publication visible to every reconciler regardless of the
// fan-out, so results do not depend on the host's core count.
//
// The reconcile pass runs in waves of fan-out size: each wave's peers step
// concurrently (Peer.Step, which leaves the outcome owed), then the whole
// wave's accept/reject outcomes are settled in a single RecordDecisionsBatch
// round trip (store.Settle). Batching changes round trips only, never
// results — one peer's recorded decisions are invisible to another peer's
// reconciliation, so flush timing cannot alter candidates.
//
// The round degrades gracefully under store failures, each reported in the
// returned error as a *PeerError while every other peer completes normally.
// A peer whose publish or reconcile fails sits the rest of the round out
// with its pending work untouched, and catches up on a later round. A peer
// whose wave's flush fails (Op "record") did reconcile: its instance has
// moved, its result is in the map, and its decisions stay owed — its next
// publish or reconcile records them first. The map carries the result of
// every peer whose engine decided; the error joins every per-peer failure.
func (s *System) ReconcileAll(ctx context.Context) (map[PeerID]*Result, error) {
	fan := s.fanout
	if fan <= 0 {
		fan = runtime.GOMAXPROCS(0)
	}
	// A round is never abandoned half-way: under a dead ctx every peer still
	// takes its turn and reports its own store error.
	run := context.WithoutCancel(ctx)
	peers := s.Peers()
	// Publish barrier: everyone's pending transactions reach the store
	// before anyone reconciles. A failed publisher does not sink the round:
	// its error is recorded and it skips the reconcile pass.
	recErrs := make([]error, len(peers))
	fanOut(run, len(peers), fan, func(i int) {
		if _, err := peers[i].Publish(ctx); err != nil {
			recErrs[i] = &PeerError{Peer: s.order[i], Op: "publish", Err: err}
		}
	})

	// Reconcile pass, a wave of at most fan peers at a time.
	out := make(map[PeerID]*Result, len(peers))
	results := make([]*Result, len(peers))
	for lo := 0; lo < len(peers); lo += fan {
		wave := peers[lo:min(lo+fan, len(peers))]
		fanOut(run, len(wave), fan, func(k int) {
			i := lo + k
			if recErrs[i] != nil {
				return // failed its publish; sits the round out
			}
			done := s.pstats.WorkerStart()
			defer done()
			res, err := wave[k].Step(ctx)
			if err != nil {
				recErrs[i] = &PeerError{Peer: s.order[i], Op: "reconcile", Err: err}
				return
			}
			results[i] = res
		})

		// Settle the wave: one store round trip for every peer that has
		// decisions to record. Empty outcomes have nothing to persist.
		owing, decisions := 0, 0
		for _, p := range wave {
			if n := p.Owed(); n > 0 {
				owing++
				decisions += n
			}
		}
		if err := store.Settle(ctx, wave...); err != nil {
			for k, p := range wave {
				if recErrs[lo+k] == nil && p.Owed() > 0 {
					recErrs[lo+k] = &PeerError{Peer: p.ID(), Op: "record", Err: err}
				}
			}
		} else if owing > 0 {
			s.pstats.ObserveDecisionFlush(owing, decisions)
		}
		for k := range wave {
			if res := results[lo+k]; res != nil {
				s.pstats.Observe(res)
				out[s.order[lo+k]] = res
			}
		}
	}
	return out, errors.Join(recErrs...)
}

// RunStreaming runs the incremental reconcile loop for every peer until
// ctx is done, replacing the round barrier of ReconcileAll: each peer
// subscribes to newly stable epochs via its store's watch capability
// (Watcher.WatchFrom; a peer store without it fails that peer's stream) and
// reconciles each stable window as it arrives, overlapping publish,
// reconcile, and decision flush across the confederation. Publishing is
// the application's job — Edit and Publish stay usable concurrently while
// the streams run.
//
// RunStreaming blocks until every peer's stream has stopped. Cancelling
// ctx is the normal shutdown and yields a nil error; a peer whose stream
// dies on a permanent (non-transient, non-cancellation) failure is
// reported in the joined error as a *PeerError with Op "stream", and the
// other peers keep streaming until ctx ends.
//
// Results are delivered through the observer (WithStreamObserver) and the
// Pipeline counters, which gain publish-to-stable and stable-to-decision
// lag alongside the usual per-stage stats.
func (s *System) RunStreaming(ctx context.Context) error {
	errs := make([]error, len(s.order))
	var wg sync.WaitGroup
	for i, id := range s.order {
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			err := p.ReconcileStream(ctx, store.StreamOptions{
				RetryBase: s.streamRetryBase,
				RetryMax:  s.streamRetryMax,
				Metrics:   &s.pstats,
				OnResult:  s.streamObs,
			})
			if err != nil && ctx.Err() == nil {
				errs[i] = &PeerError{Peer: p.ID(), Op: "stream", Err: err}
			}
		}(i, s.peers[id])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fanOut runs fn(i) for every i in [0, n) on at most limit goroutines
// (inline when that is one) and returns once all have finished. It starts
// no further call after ctx ends, and then returns ctx's error.
func fanOut(ctx context.Context, n, limit int, fn func(i int)) error {
	if limit = min(limit, n); limit <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			fn(i)
		}()
	}
	return nil
}

// Pipeline exposes the aggregated reconciliation-pipeline counters (stage
// latencies, work counts, the fan-out busy gauge, and the decision-flush
// batching stats) collected by ReconcileAll.
func (s *System) Pipeline() *metrics.Pipeline { return &s.pstats }

// CentralStore returns the backing central store (nil under
// WithPeerStores); it exposes the store's sharding/batching counters to
// embedders.
func (s *System) CentralStore() *central.Store { return s.cs }

// Close releases the store.
func (s *System) Close() error {
	if s.cs != nil {
		return s.cs.Close()
	}
	return nil
}

// Ensure the facade type aliases stay wired (compile-time checks).
var (
	_ Trust = core.TrustAll(1)
	_ Store = (*central.Store)(nil)
)
