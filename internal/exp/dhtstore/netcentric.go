package dhtstore

import (
	"context"
	"fmt"
	"sort"

	"orchestra/internal/core"
	"orchestra/internal/exp/pastry"
	"orchestra/internal/rpc"
	"orchestra/internal/store"
)

// Network-centric reconciliation (the paper's §5 alternative, implemented
// there only as future work; Figure 3 summarizes the trade-off): instead of
// the reconciling client chasing antecedent chains itself, each
// transaction's controller assembles the transaction extension *in the
// network* by recursively querying the antecedents' controllers, and ships
// the completed extension back. This distributes the reconciliation work
// across many peers at the price of more messages — exactly Figure 3's
// "network-centric + distributed store" cell.

const mTxnExtension = "txn.extension"

// txnExtensionArgs asks a transaction controller for the requester-specific
// extension of its transaction: the unapplied antecedent closure, gathered
// by the controllers themselves.
type txnExtensionArgs struct {
	ID        core.TxnID
	Requester core.PeerID
}

type txnExtensionReply struct {
	Known    bool
	Priority int
	Decision core.Decision
	// Ext is the transaction extension (root included), sorted by global
	// order.
	Ext []*core.Transaction
}

// txnExtension handles mTxnExtension at the controller owning the root
// transaction. It gathers the closure breadth-first: for every antecedent
// it queries that antecedent's controller with a plain txn.get, recursing
// through the antecedents it reports.
func (ns *nodeState) txnExtension(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args txnExtensionArgs
	if err := pastry.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	ns.mu.Lock()
	tr, ok := ns.txns[args.ID]
	if !ok {
		ns.mu.Unlock()
		return pastry.Encode(&txnExtensionReply{})
	}
	prio := 0
	if trust, okT := ns.cluster.trustOf(args.Requester); okT {
		prio = core.TxnPriority(trust, tr.pub.Txn)
	}
	reply := txnExtensionReply{
		Known:    true,
		Priority: prio,
		Decision: tr.decisions[args.Requester],
		Ext:      []*core.Transaction{tr.pub.Txn},
	}
	pending := append([]core.TxnID(nil), tr.pub.Antecedents...)
	ns.mu.Unlock()

	seen := map[core.TxnID]bool{args.ID: true}
	for len(pending) > 0 {
		aid := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if seen[aid] {
			continue
		}
		seen[aid] = true
		body, err := pastry.Encode(&txnGetArgs{ID: aid, Requester: args.Requester})
		if err != nil {
			return nil, err
		}
		resp, err := ns.node.RouteString(ctx, txnKey(aid), mTxnGet, body)
		if err != nil {
			return nil, fmt.Errorf("dhtstore: gather antecedent %s: %w", aid, err)
		}
		var ar txnGetReply
		if err := pastry.Decode(resp, &ar); err != nil {
			return nil, err
		}
		if !ar.Known || ar.Decision == core.DecisionAccept {
			continue // already applied by the requester: not part of te
		}
		reply.Ext = append(reply.Ext, ar.Pub.Txn)
		pending = append(pending, ar.Pub.Antecedents...)
	}
	sort.Slice(reply.Ext, func(i, j int) bool { return reply.Ext[i].Order < reply.Ext[j].Order })
	return pastry.Encode(&reply)
}

// NetworkCentric wraps a cluster client so that BeginReconciliation
// delegates extension assembly to the transaction controllers.
type NetworkCentric struct {
	*client
}

// AddNetworkCentricNode joins a node and returns a network-centric store
// client bound to it.
func (c *Cluster) AddNetworkCentricNode(addr string) (store.Store, error) {
	base, err := c.AddNode(addr)
	if err != nil {
		return nil, err
	}
	return &NetworkCentric{client: base.(*client)}, nil
}

// BeginReconciliation implements store.Store: the epoch/stable-epoch
// handshake matches the client-centric path, but every candidate's
// extension is assembled by its controller in the network.
func (nc *NetworkCentric) BeginReconciliation(ctx context.Context, peer core.PeerID) (*store.Reconciliation, error) {
	var meta peerMetaReply
	if err := nc.call(ctx, peerKey(peer), mPeerMeta, &peerMetaArgs{Peer: peer}, &meta); err != nil {
		return nil, err
	}
	var cur allocCurrentReply
	if err := nc.call(ctx, allocKey, mAllocCurrent, &struct{}{}, &cur); err != nil {
		return nil, err
	}
	type epochInfo struct {
		e   core.Epoch
		ids []core.TxnID
	}
	var window []epochInfo
	stable := meta.LastEpoch
	for e := meta.LastEpoch + 1; e <= cur.Epoch; e++ {
		var er epochGetReply
		if err := nc.call(ctx, epochKey(e), mEpochGet, &epochGetArgs{Epoch: e}, &er); err != nil {
			return nil, err
		}
		if !er.Known || !er.Complete {
			break
		}
		stable = e
		window = append(window, epochInfo{e: e, ids: er.IDs})
	}
	var rec peerReconReply
	if err := nc.call(ctx, peerKey(peer), mPeerRecon, &peerReconArgs{Peer: peer, Stable: stable}, &rec); err != nil {
		return nil, err
	}
	out := &store.Reconciliation{Recno: rec.Recno, FromEpoch: rec.FromEpoch, ToEpoch: stable}
	for _, ei := range window {
		for _, id := range ei.ids {
			if id.Origin == peer {
				continue
			}
			var er txnExtensionReply
			if err := nc.call(ctx, txnKey(id), mTxnExtension, &txnExtensionArgs{ID: id, Requester: peer}, &er); err != nil {
				return nil, err
			}
			if !er.Known || er.Priority <= 0 || er.Decision != core.DecisionNone {
				continue
			}
			var root *core.Transaction
			for _, x := range er.Ext {
				if x.ID == id {
					root = x
					break
				}
			}
			if root == nil {
				return nil, fmt.Errorf("dhtstore: controller for %s returned an extension without its root", id)
			}
			out.Candidates = append(out.Candidates, &core.Candidate{
				Txn:      root,
				Priority: er.Priority,
				Ext:      er.Ext,
			})
		}
	}
	sort.Slice(out.Candidates, func(i, j int) bool {
		return out.Candidates[i].Txn.Order < out.Candidates[j].Txn.Order
	})
	return out, nil
}
