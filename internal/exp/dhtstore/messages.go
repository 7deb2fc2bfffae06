// Package dhtstore implements the distributed update store of §5.2.2 on the
// Pastry-style overlay of internal/exp/pastry. Work — both storage and computation
// — is spread over the entire network of peers, using transaction
// identifiers and epochs as keys:
//
//   - the owner of the well-known key "epochalloc" is the epoch allocator;
//   - the owner of "epoch:<e>" is epoch e's controller, tracking which peer
//     publishes it, its transaction IDs, and whether it is complete;
//   - the owner of "txn:<origin>:<seq>" is that transaction's controller,
//     holding the transaction, its antecedent set, and per-peer decisions;
//   - the owner of "peer:<id>" is the peer's coordinator, recording its
//     reconciliation numbers and epochs.
//
// Publishing follows Figure 6 (request epoch → begin epoch → publish
// transaction IDs → mark complete); reconciliation retrieval follows
// Figure 7: the reconciling peer requests each relevant transaction from
// its controller, which replies with the transaction, its priority, and its
// antecedents — or that it is irrelevant (already applied) — and the peer
// chases antecedents until its pending set drains.
//
// Like the paper's prototype, message delivery is assumed reliable and
// fault tolerance is out of scope. Trust policies are held in a
// cluster-wide registry shared by all controllers (the paper's transaction
// controllers likewise evaluate requester trust; predicate code is not
// serializable, so the registry stands in for policy distribution).
//
// The package lives under internal/exp because the DHT store is the paper's
// §5.2.2 experiment (Figures 10 and 12), not a backend: it implements the
// five-method store.Store and passes storetest.RunConformance, and by design
// offers none of what store.Backend adds — replay, snapshots, watch, keyed
// dedup, delegation resolution, tenancy.
package dhtstore

import (
	"orchestra/internal/core"
	"orchestra/internal/store"
)

// Method names.
const (
	mAllocNext    = "alloc.next"
	mAllocCurrent = "alloc.current"
	mEpochBegin   = "epoch.begin"
	mEpochSetTxns = "epoch.settxns"
	mEpochGet     = "epoch.get"
	mTxnPut       = "txn.put"
	mTxnGet       = "txn.get"
	mTxnDecideN   = "txn.decide.batch"
	mPeerRecon    = "peer.recon"
	mPeerMeta     = "peer.meta"
)

// Routing keys.
const allocKey = "epochalloc"

func epochKey(e core.Epoch) string { return "epoch:" + itoa(int64(e)) }

func txnKey(id core.TxnID) string { return "txn:" + string(id.Origin) + ":" + utoa(id.Seq) }

func peerKey(p core.PeerID) string { return "peer:" + string(p) }

func itoa(v int64) string { return string(appendInt(nil, v)) }

func utoa(v uint64) string { return string(appendUint(nil, v)) }

func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	return appendUint(b, uint64(v))
}

func appendUint(b []byte, v uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

// allocNextArgs requests a fresh epoch for a publishing peer (Fig. 6
// message 1); the allocator informs the epoch controller (messages 2-3)
// before replying (message 4).
type allocNextArgs struct {
	Peer core.PeerID
}

type allocNextReply struct {
	Epoch core.Epoch
}

type allocCurrentReply struct {
	Epoch core.Epoch
}

type epochBeginArgs struct {
	Epoch core.Epoch
	Peer  core.PeerID
}

// epochSetTxnsArgs publishes an epoch's transaction IDs (Fig. 6 message 5)
// and marks it complete (message 6).
type epochSetTxnsArgs struct {
	Epoch core.Epoch
	Peer  core.PeerID
	IDs   []core.TxnID
}

type epochGetArgs struct {
	Epoch core.Epoch
}

type epochGetReply struct {
	Known    bool
	Peer     core.PeerID
	IDs      []core.TxnID
	Complete bool
}

type txnPutArgs struct {
	Pub   store.PublishedTxn
	Epoch core.Epoch
}

// txnGetArgs requests a transaction for reconciliation (Fig. 7): the reply
// carries the transaction, the requester's priority for it, its antecedent
// set, and the requester's prior decision, letting the client skip
// irrelevant (already applied) chains.
type txnGetArgs struct {
	ID        core.TxnID
	Requester core.PeerID
}

type txnGetReply struct {
	Known    bool
	Pub      store.PublishedTxn
	Priority int
	Decision core.Decision
}

// peerDecision is one peer's verdict inside a batched decide message.
type peerDecision struct {
	Peer     core.PeerID
	Decision core.Decision
}

// txnDecideBatchArgs carries every peer's decision for one transaction to
// its controller in a single message: the DHT partitions decision state by
// controller, so batching regroups a reconcile wave's outcomes per
// transaction rather than per peer.
type txnDecideBatchArgs struct {
	ID        core.TxnID
	Decisions []peerDecision
}

// peerReconArgs records a reconciliation at the peer's coordinator; the
// client has already determined the stable epoch.
type peerReconArgs struct {
	Peer   core.PeerID
	Stable core.Epoch
}

type peerReconReply struct {
	Recno     int
	FromEpoch core.Epoch
}

type peerMetaArgs struct {
	Peer core.PeerID
}

type peerMetaReply struct {
	Recno     int
	LastEpoch core.Epoch
}
