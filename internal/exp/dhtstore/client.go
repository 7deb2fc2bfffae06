package dhtstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"orchestra/internal/core"
	"orchestra/internal/exp/pastry"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
)

// client implements store.Store against the overlay, entering through the
// peer's own DHT node.
type client struct {
	cluster *Cluster
	node    *pastry.Node
}

// call routes a request to the owner of key and decodes the reply.
func (cl *client) call(ctx context.Context, key, method string, args, reply any) error {
	body, err := pastry.Encode(args)
	if err != nil {
		return err
	}
	resp, err := cl.node.RouteString(ctx, key, method, body)
	if err != nil {
		return err
	}
	if reply == nil {
		return nil
	}
	return pastry.Decode(resp, reply)
}

// RegisterPeer implements store.Store.
func (cl *client) RegisterPeer(_ context.Context, peer core.PeerID, trust core.Trust) error {
	cl.cluster.setTrust(peer, trust)
	return nil
}

// Publish implements store.Store following Figure 6: request an epoch from
// the allocator (which informs the epoch controller), send each transaction
// to its controller, then publish the transaction IDs to the epoch
// controller, completing the epoch.
func (cl *client) Publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn) (core.Epoch, error) {
	if len(txns) == 0 {
		var cur allocCurrentReply
		if err := cl.call(ctx, allocKey, mAllocCurrent, &struct{}{}, &cur); err != nil {
			return 0, err
		}
		return cur.Epoch, nil
	}
	var alloc allocNextReply
	if err := cl.call(ctx, allocKey, mAllocNext, &allocNextArgs{Peer: peer}, &alloc); err != nil {
		return 0, err
	}
	e := alloc.Epoch
	ids := make([]core.TxnID, 0, len(txns))
	for i, pt := range txns {
		pt.Txn.Epoch = e
		pt.Txn.Order = uint64(e)*central.OrderStride + uint64(i)
		var put txnPutReply
		if err := cl.call(ctx, txnKey(pt.Txn.ID), mTxnPut, &txnPutArgs{Pub: pt, Epoch: e}, &put); err != nil {
			return 0, err
		}
		// A transaction its controller already held stays in its first
		// epoch only.
		if put.Stored {
			ids = append(ids, pt.Txn.ID)
		}
	}
	if err := cl.call(ctx, epochKey(e), mEpochSetTxns, &epochSetTxnsArgs{Epoch: e, Peer: peer, IDs: ids}, nil); err != nil {
		return 0, err
	}
	return e, nil
}

// BeginReconciliation implements store.Store following Figure 7: determine
// the most recent stable epoch from the allocator and the epoch
// controllers, record the reconciliation at the peer coordinator, then
// fetch the relevant transactions from their controllers, chasing
// antecedents through a pending set until it drains.
func (cl *client) BeginReconciliation(ctx context.Context, peer core.PeerID) (*store.Reconciliation, error) {
	var meta peerMetaReply
	if err := cl.call(ctx, peerKey(peer), mPeerMeta, &peerMetaArgs{Peer: peer}, &meta); err != nil {
		return nil, err
	}
	var cur allocCurrentReply
	if err := cl.call(ctx, allocKey, mAllocCurrent, &struct{}{}, &cur); err != nil {
		return nil, err
	}

	// Fetch the contents of every epoch since the last reconciliation and
	// find the most recent stable one.
	type epochInfo struct {
		e   core.Epoch
		ids []core.TxnID
	}
	var window []epochInfo
	stable := meta.LastEpoch
	for e := meta.LastEpoch + 1; e <= cur.Epoch; e++ {
		var er epochGetReply
		if err := cl.call(ctx, epochKey(e), mEpochGet, &epochGetArgs{Epoch: e}, &er); err != nil {
			return nil, err
		}
		if !er.Known || !er.Complete {
			break
		}
		stable = e
		window = append(window, epochInfo{e: e, ids: er.IDs})
	}

	var rec peerReconReply
	if err := cl.call(ctx, peerKey(peer), mPeerRecon, &peerReconArgs{Peer: peer, Stable: stable}, &rec); err != nil {
		return nil, err
	}

	out := &store.Reconciliation{Recno: rec.Recno, FromEpoch: rec.FromEpoch, ToEpoch: stable}

	// Fetch the window's transactions, then chase antecedents: the pending
	// set holds transactions whose controllers have not answered yet.
	fetched := make(map[core.TxnID]*txnGetReply)
	fetch := func(id core.TxnID) (*txnGetReply, error) {
		if r, ok := fetched[id]; ok {
			return r, nil
		}
		var r txnGetReply
		if err := cl.call(ctx, txnKey(id), mTxnGet, &txnGetArgs{ID: id, Requester: peer}, &r); err != nil {
			return nil, err
		}
		fetched[id] = &r
		return &r, nil
	}

	var roots []core.TxnID
	for _, ei := range window {
		for _, id := range ei.ids {
			if id.Origin == peer {
				continue
			}
			r, err := fetch(id)
			if err != nil {
				return nil, err
			}
			if !r.Known || r.Priority <= 0 || r.Decision != core.DecisionNone {
				continue // untrusted or irrelevant
			}
			roots = append(roots, id)
			// Chase this root's unapplied antecedents (Fig. 7).
			pending := append([]core.TxnID(nil), r.Pub.Antecedents...)
			for len(pending) > 0 {
				aid := pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				ar, err := fetch(aid)
				if err != nil {
					return nil, err
				}
				if !ar.Known || ar.Decision == core.DecisionAccept {
					continue // "not relevant": already applied by the peer
				}
				for _, next := range ar.Pub.Antecedents {
					if _, seen := fetched[next]; !seen {
						pending = append(pending, next)
					}
				}
			}
		}
	}

	// Assemble per-root extensions from the fetched closure, mirroring the
	// central store's computation.
	for _, rootID := range roots {
		root := fetched[rootID]
		visited := map[core.TxnID]bool{rootID: true}
		ext := []*core.Transaction{root.Pub.Txn}
		stack := append([]core.TxnID(nil), root.Pub.Antecedents...)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[id] {
				continue
			}
			visited[id] = true
			r, ok := fetched[id]
			if !ok || !r.Known || r.Decision == core.DecisionAccept {
				continue
			}
			ext = append(ext, r.Pub.Txn)
			stack = append(stack, r.Pub.Antecedents...)
		}
		sort.Slice(ext, func(i, j int) bool { return ext[i].Order < ext[j].Order })
		out.Candidates = append(out.Candidates, &core.Candidate{
			Txn:      root.Pub.Txn,
			Priority: root.Priority,
			Ext:      ext,
		})
	}
	sort.Slice(out.Candidates, func(i, j int) bool {
		return out.Candidates[i].Txn.Order < out.Candidates[j].Txn.Order
	})
	return out, nil
}

// RecordDecisions implements store.Store as a one-batch
// RecordDecisionsBatch: each transaction controller learns the peer's
// verdict through the batched decide message, the only one it serves.
func (cl *client) RecordDecisions(ctx context.Context, peer core.PeerID, recno int, accepted, rejected []core.TxnID) error {
	return cl.RecordDecisionsBatch(ctx, []store.DecisionBatch{{Peer: peer, Recno: recno, Accepted: accepted, Rejected: rejected}})
}

// decidePipelineWidth bounds how many controller messages
// RecordDecisionsBatch keeps in flight at once.
const decidePipelineWidth = 8

// RecordDecisionsBatch implements store.Store. The DHT partitions decision
// state by transaction controller, so the wave's decisions are regrouped
// per transaction: one message per distinct transaction carrying every
// peer's verdict for it — fewer messages than one per (peer, decision)
// whenever several peers decide the same transactions in one wave. The
// controller messages are independent (one transaction's verdicts each),
// so they are pipelined: up to decidePipelineWidth requests in flight
// instead of one latency-bound round trip per controller.
func (cl *client) RecordDecisionsBatch(ctx context.Context, batches []store.DecisionBatch) error {
	grouped := make(map[core.TxnID][]peerDecision)
	var ids []core.TxnID // first-appearance order, for deterministic send starts
	add := func(peer core.PeerID, id core.TxnID, d core.Decision) {
		if _, seen := grouped[id]; !seen {
			ids = append(ids, id)
		}
		grouped[id] = append(grouped[id], peerDecision{Peer: peer, Decision: d})
	}
	for _, b := range batches {
		for _, id := range b.Accepted {
			add(b.Peer, id, core.DecisionAccept)
		}
		for _, id := range b.Rejected {
			add(b.Peer, id, core.DecisionReject)
		}
	}
	width := decidePipelineWidth
	if width > len(ids) {
		width = len(ids)
	}
	if width <= 1 {
		for _, id := range ids {
			args := &txnDecideBatchArgs{ID: id, Decisions: grouped[id]}
			if err := cl.call(ctx, txnKey(id), mTxnDecideN, args, nil); err != nil {
				return fmt.Errorf("dhtstore: record decision batch %s: %w", id, err)
			}
		}
		return nil
	}
	errs := make([]error, len(ids))
	var failed atomic.Bool
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
	for i, id := range ids {
		// Fail fast: once any controller call has errored, in-flight
		// messages drain but no new ones launch (the old sequential loop
		// aborted at the first error; a wave can carry thousands of
		// controllers, and submitting them all into a dead network would
		// stack timeout rounds).
		if failed.Load() {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, id core.TxnID) {
			defer func() { <-sem; wg.Done() }()
			args := &txnDecideBatchArgs{ID: id, Decisions: grouped[id]}
			if err := cl.call(ctx, txnKey(id), mTxnDecideN, args, nil); err != nil {
				errs[i] = fmt.Errorf("dhtstore: record decision batch %s: %w", id, err)
				failed.Store(true)
			}
		}(i, id)
	}
	wg.Wait()
	return errors.Join(errs...)
}
