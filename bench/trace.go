package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// A span is one call across a layer boundary, recorded from outside the
// layer by the benchmark's own wrappers. Spans of one operation share Op;
// Parent names the span that caused this one. The remaining fields are what
// the per-layer report joins on.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Peer   string `json:"peer,omitempty"`
	Epoch  int64  `json:"epoch,omitempty"` // publish: the epoch allocated
	From   int64  `json:"from,omitempty"`  // begin: window (From, To]
	To     int64  `json:"to,omitempty"`
	Recno  int64  `json:"recno,omitempty"`
	N      int64  `json:"n,omitempty"` // transactions carried
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. While off (the untraced
// run, and set-up and warm-up of the traced one) the wrappers pass calls
// straight through.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the recorded spans with the given name, in recording order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// p50 is the median duration in ms of the named spans (0 if none).
func (t *tracer) p50(name string) float64 {
	var ms []float64
	for _, s := range t.named(name) {
		ms = append(ms, s.ms())
	}
	return median(ms)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

// tracedStore records a span around every call into the store it wraps. It
// is placed at each boundary the benchmark owns: the store handed to
// gateway.New ("gateway"), to remote.NewServer ("server") and to
// store.NewPeer ("peer"). It forwards the optional capabilities the
// workloads use (watch, snapshot catch-up, replay) and nothing else.
type tracedStore struct {
	store.Store
	tr      *tracer
	layer   string
	parents map[string]string // call -> the span that causes it, if any
}

func traced(st store.Store, tr *tracer, layer string, parents map[string]string) *tracedStore {
	return &tracedStore{Store: st, tr: tr, layer: layer, parents: parents}
}

func (s *tracedStore) record(call string, start int64, sp span) {
	sp.Name, sp.Parent = s.layer+"."+call, s.parents[call]
	sp.Start, sp.End = start, s.tr.now()
	s.tr.add(sp)
}

// opName names the operation a publish belongs to: the publisher and the
// sequence number of its first transaction.
func opName(peer core.PeerID, firstSeq uint64) string {
	return fmt.Sprintf("%s/%d", peer, firstSeq)
}

func (s *tracedStore) Publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn) (core.Epoch, error) {
	if !s.tr.on.Load() {
		return s.Store.Publish(ctx, peer, txns)
	}
	start := s.tr.now()
	e, err := s.Store.Publish(ctx, peer, txns)
	sp := span{Peer: string(peer), Epoch: int64(e), N: int64(len(txns))}
	if len(txns) > 0 {
		sp.Op = opName(peer, txns[0].Txn.ID.Seq)
	}
	s.record("publish", start, sp)
	return e, err
}

func (s *tracedStore) BeginReconciliation(ctx context.Context, peer core.PeerID) (*store.Reconciliation, error) {
	if !s.tr.on.Load() {
		return s.Store.BeginReconciliation(ctx, peer)
	}
	start := s.tr.now()
	rec, err := s.Store.BeginReconciliation(ctx, peer)
	sp := span{Peer: string(peer)}
	if rec != nil {
		sp.From, sp.To, sp.Recno, sp.N = int64(rec.FromEpoch), int64(rec.ToEpoch), int64(rec.Recno), int64(len(rec.Candidates))
	}
	s.record("begin", start, sp)
	return rec, err
}

func (s *tracedStore) RecordDecisions(ctx context.Context, peer core.PeerID, recno int, accepted, rejected []core.TxnID) error {
	if !s.tr.on.Load() {
		return s.Store.RecordDecisions(ctx, peer, recno, accepted, rejected)
	}
	start := s.tr.now()
	err := s.Store.RecordDecisions(ctx, peer, recno, accepted, rejected)
	s.record("decide", start, span{Peer: string(peer), Recno: int64(recno), N: int64(len(accepted) + len(rejected))})
	return err
}

func (s *tracedStore) RecordDecisionsBatch(ctx context.Context, batches []store.DecisionBatch) error {
	if !s.tr.on.Load() {
		return s.Store.RecordDecisionsBatch(ctx, batches)
	}
	start := s.tr.now()
	err := s.Store.RecordDecisionsBatch(ctx, batches)
	sp := span{}
	for _, b := range batches {
		sp.N += int64(len(b.Accepted) + len(b.Rejected))
	}
	if len(batches) > 0 {
		sp.Peer, sp.Recno = string(batches[0].Peer), int64(batches[0].Recno)
	}
	s.record("decide", start, sp)
	return err
}

func (s *tracedStore) CanWatch(ctx context.Context) bool { return store.CanWatch(ctx, s.Store) }

func (s *tracedStore) WatchFrom(ctx context.Context, from core.Epoch) (<-chan store.WatchEvent, error) {
	w, ok := s.Store.(store.Watcher)
	if !ok {
		return nil, fmt.Errorf("bench: %T cannot watch", s.Store)
	}
	return w.WatchFrom(ctx, from)
}

func (s *tracedStore) CanSnapshot(ctx context.Context) bool { return store.CanSnapshot(ctx, s.Store) }

func (s *tracedStore) LatestSnapshot(ctx context.Context) (*store.Snapshot, error) {
	sr, ok := s.Store.(store.SnapshotReplayer)
	if !ok {
		return nil, fmt.Errorf("bench: %T retains no snapshots", s.Store)
	}
	start := s.tr.now()
	snap, err := sr.LatestSnapshot(ctx)
	if s.tr.on.Load() {
		s.record("snapshot_fetch", start, span{})
	}
	return snap, err
}

func (s *tracedStore) ReplayFrom(ctx context.Context, peer core.PeerID, from core.Epoch, afterSeq int64) ([]store.PublishedTxn, map[core.TxnID]core.RestoredDecision, error) {
	sr, ok := s.Store.(store.SnapshotReplayer)
	if !ok {
		return nil, nil, fmt.Errorf("bench: %T cannot replay a tail", s.Store)
	}
	start := s.tr.now()
	tail, dec, err := sr.ReplayFrom(ctx, peer, from, afterSeq)
	if s.tr.on.Load() {
		s.record("replay_from", start, span{Peer: string(peer), From: int64(from), N: int64(len(tail))})
	}
	return tail, dec, err
}

func (s *tracedStore) CanReplay(ctx context.Context) bool { return store.CanReplay(ctx, s.Store) }

func (s *tracedStore) ReplayFor(ctx context.Context, peer core.PeerID) ([]store.PublishedTxn, map[core.TxnID]core.RestoredDecision, error) {
	rp, ok := s.Store.(store.Replayer)
	if !ok {
		return nil, nil, fmt.Errorf("bench: %T cannot replay", s.Store)
	}
	return rp.ReplayFor(ctx, peer)
}
