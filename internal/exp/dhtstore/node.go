package dhtstore

import (
	"context"
	"fmt"
	"sync"

	"orchestra/internal/core"
	"orchestra/internal/exp/pastry"
	"orchestra/internal/rpc"
	"orchestra/internal/simnet"
	"orchestra/internal/store"
)

// Cluster owns the overlay and the shared trust-policy registry; CDSS peers
// join it as DHT nodes and obtain store.Store clients bound to their node.
type Cluster struct {
	net  *simnet.Network
	ring *pastry.Ring

	mu       sync.RWMutex
	policies map[core.PeerID]core.Trust
}

// NewCluster returns an empty cluster on the fabric.
func NewCluster(net *simnet.Network) *Cluster {
	return &Cluster{net: net, ring: pastry.NewRing(net), policies: make(map[core.PeerID]core.Trust)}
}

// Ring exposes the overlay (for tests and diagnostics).
func (c *Cluster) Ring() *pastry.Ring { return c.ring }

// AddNode joins a storage node at addr and returns the store client bound
// to it. In an Orchestra confederation every participant runs a node, so
// its client routes from its own node.
func (c *Cluster) AddNode(addr string) (store.Store, error) {
	ns := &nodeState{
		cluster: c,
		epochs:  make(map[core.Epoch]*epochRec),
		txns:    make(map[core.TxnID]*txnRec),
		coords:  make(map[core.PeerID]*coordRec),
	}
	node, err := c.ring.Join(addr, ns.mux())
	if err != nil {
		return nil, err
	}
	ns.node = node
	return &client{cluster: c, node: node}, nil
}

func (c *Cluster) trustOf(peer core.PeerID) (core.Trust, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.policies[peer]
	return t, ok
}

func (c *Cluster) setTrust(peer core.PeerID, t core.Trust) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policies[peer] = t
}

// epochRec is the state held by an epoch controller.
type epochRec struct {
	peer     core.PeerID
	ids      []core.TxnID
	complete bool
}

// txnRec is the state held by a transaction controller.
type txnRec struct {
	pub       store.PublishedTxn
	epoch     core.Epoch
	decisions map[core.PeerID]core.Decision
}

// coordRec is the state held by a peer coordinator.
type coordRec struct {
	recno     int
	lastEpoch core.Epoch
}

// nodeState is one node's application state: it plays every role — epoch
// allocator, epoch controller, transaction controller, peer coordinator —
// for the keys it owns.
type nodeState struct {
	cluster *Cluster
	node    *pastry.Node

	mu      sync.Mutex
	counter core.Epoch
	epochs  map[core.Epoch]*epochRec
	txns    map[core.TxnID]*txnRec
	coords  map[core.PeerID]*coordRec
}

func (ns *nodeState) mux() rpc.Handler {
	m := rpc.NewMux()
	m.Handle(mAllocNext, ns.allocNext)
	m.Handle(mAllocCurrent, ns.allocCurrent)
	m.Handle(mEpochBegin, ns.epochBegin)
	m.Handle(mEpochSetTxns, ns.epochSetTxns)
	m.Handle(mEpochGet, ns.epochGet)
	m.Handle(mTxnPut, ns.txnPut)
	m.Handle(mTxnGet, ns.txnGet)
	m.Handle(mTxnExtension, ns.txnExtension)
	m.Handle(mTxnDecideN, ns.txnDecideBatch)
	m.Handle(mPeerRecon, ns.peerRecon)
	m.Handle(mPeerMeta, ns.peerMeta)
	return m
}

// allocNext implements the epoch allocator: it increments the counter,
// informs the new epoch's controller that the peer is publishing, and
// replies with the epoch (Fig. 6 messages 2-4). Were this node to fail, the
// counter could be reconstructed by polling for the largest epoch present.
func (ns *nodeState) allocNext(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args allocNextArgs
	if err := pastry.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	ns.mu.Lock()
	ns.counter++
	e := ns.counter
	ns.mu.Unlock()
	body, err := pastry.Encode(&epochBeginArgs{Epoch: e, Peer: args.Peer})
	if err != nil {
		return nil, err
	}
	if _, err := ns.node.RouteString(ctx, epochKey(e), mEpochBegin, body); err != nil {
		return nil, fmt.Errorf("dhtstore: inform epoch controller: %w", err)
	}
	return pastry.Encode(&allocNextReply{Epoch: e})
}

func (ns *nodeState) allocCurrent(context.Context, rpc.Request) ([]byte, error) {
	ns.mu.Lock()
	e := ns.counter
	ns.mu.Unlock()
	return pastry.Encode(&allocCurrentReply{Epoch: e})
}

func (ns *nodeState) epochBegin(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args epochBeginArgs
	if err := pastry.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, dup := ns.epochs[args.Epoch]; dup {
		return nil, fmt.Errorf("dhtstore: epoch %d already begun", args.Epoch)
	}
	ns.epochs[args.Epoch] = &epochRec{peer: args.Peer}
	return pastry.Encode(&struct{}{})
}

func (ns *nodeState) epochSetTxns(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args epochSetTxnsArgs
	if err := pastry.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	er, ok := ns.epochs[args.Epoch]
	if !ok || er.peer != args.Peer {
		return nil, fmt.Errorf("dhtstore: epoch %d not open for %s", args.Epoch, args.Peer)
	}
	if er.complete {
		return nil, fmt.Errorf("dhtstore: epoch %d already complete", args.Epoch)
	}
	er.ids = args.IDs
	er.complete = true
	return pastry.Encode(&struct{}{})
}

func (ns *nodeState) epochGet(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args epochGetArgs
	if err := pastry.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	er, ok := ns.epochs[args.Epoch]
	if !ok {
		return pastry.Encode(&epochGetReply{})
	}
	return pastry.Encode(&epochGetReply{Known: true, Peer: er.peer, IDs: er.ids, Complete: er.complete})
}

func (ns *nodeState) txnPut(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args txnPutArgs
	if err := pastry.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	id := args.Pub.Txn.ID
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, dup := ns.txns[id]; dup {
		return nil, fmt.Errorf("dhtstore: transaction %s already published", id)
	}
	ns.txns[id] = &txnRec{
		pub:   args.Pub,
		epoch: args.Epoch,
		decisions: map[core.PeerID]core.Decision{
			id.Origin: core.DecisionAccept,
		},
	}
	return pastry.Encode(&struct{}{})
}

func (ns *nodeState) txnGet(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args txnGetArgs
	if err := pastry.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	tr, ok := ns.txns[args.ID]
	if !ok {
		return pastry.Encode(&txnGetReply{})
	}
	prio := 0
	if trust, ok := ns.cluster.trustOf(args.Requester); ok {
		prio = core.TxnPriority(trust, tr.pub.Txn)
	}
	return pastry.Encode(&txnGetReply{
		Known:    true,
		Pub:      tr.pub,
		Priority: prio,
		Decision: tr.decisions[args.Requester],
	})
}

// txnDecideBatch applies a whole wave's decisions for one transaction.
func (ns *nodeState) txnDecideBatch(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args txnDecideBatchArgs
	if err := pastry.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	tr, ok := ns.txns[args.ID]
	if !ok {
		return nil, fmt.Errorf("dhtstore: decision for unknown transaction %s", args.ID)
	}
	for _, d := range args.Decisions {
		tr.decisions[d.Peer] = d.Decision
	}
	return pastry.Encode(&struct{}{})
}

func (ns *nodeState) peerRecon(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args peerReconArgs
	if err := pastry.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	cr := ns.coords[args.Peer]
	if cr == nil {
		cr = &coordRec{}
		ns.coords[args.Peer] = cr
	}
	from := cr.lastEpoch
	stable := args.Stable
	if stable < from {
		stable = from
	}
	cr.recno++
	cr.lastEpoch = stable
	return pastry.Encode(&peerReconReply{Recno: cr.recno, FromEpoch: from})
}

func (ns *nodeState) peerMeta(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args peerMetaArgs
	if err := pastry.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	cr := ns.coords[args.Peer]
	if cr == nil {
		return pastry.Encode(&peerMetaReply{})
	}
	return pastry.Encode(&peerMetaReply{Recno: cr.recno, LastEpoch: cr.lastEpoch})
}

// Ensure simnet is linked for the package doc reference.
var _ = simnet.DefaultLatency
