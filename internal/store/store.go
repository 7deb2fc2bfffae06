// Package store defines the update store interface of §5.2 — publish and
// retrieve updates, associate each published transaction with a client
// reconciliation, and hold each peer's applied/rejected sets so that client
// state is reconstructable soft state — together with the Peer wrapper that
// drives a reconciliation engine against a store. The interface records
// decisions per reconciliation (RecordDecisions) or batched
// (RecordDecisionsBatch); Peer uses only the second, from one place: a peer
// owes every decision its engine has made until the store has it, and Settle
// pays what one peer or a whole fan-out wave owes in one round trip, which
// amortizes store calls without changing outcomes (peer.go).
//
// The contract has two tiers, and a store's static type says which it
// meets. Store is the five methods the reconciliation algorithm needs;
// storetest.RunConformance checks them. Backend adds what a production
// store must also do — snapshot + log replay (RebuildPeer), publish-log
// compaction, watch subscriptions (ReconcileStream), delegation
// resolution, and exactly-once execution of idempotency-keyed calls —
// checked by storetest.RunBackendConformance and its watch and tenancy
// siblings. store/central (RDBMS-backed, §5.2.1), store/remote (a backend
// over TCP), the root package's fleet routing and the gateway's client pool
// are Backends. The DHT store of §5.2.2
// (internal/exp/dhtstore) is a Store only, by design: a full scan of every
// transaction controller is exactly the kind of operation the paper's
// distributed design avoids, so it exists to draw Figures 10 and 12, not to
// be deployed.
package store

import (
	"context"
	"errors"

	"orchestra/internal/core"
)

// ErrUnknownPeer is returned for operations by unregistered peers.
var ErrUnknownPeer = errors.New("store: unknown peer")

// PublishedTxn is a transaction as shipped to the update store: the
// transaction plus its antecedent set, computed by the publisher from its
// own instance's provenance.
type PublishedTxn struct {
	Txn         *core.Transaction
	Antecedents []core.TxnID
}

// Reconciliation is the store's answer to a reconciliation request: the
// reconciliation number, the epoch window it covers, and the candidates —
// newly published fully-trusted transactions, each with the peer's priority
// and its transaction extension (unapplied antecedent closure, in global
// order).
type Reconciliation struct {
	Recno      int
	FromEpoch  core.Epoch // exclusive
	ToEpoch    core.Epoch // inclusive: the largest stable epoch
	Candidates []*core.Candidate
}

// DecisionBatch is one peer's reconciliation outcome, as submitted to
// RecordDecisionsBatch. It carries exactly the arguments of one
// RecordDecisions call.
type DecisionBatch struct {
	Peer     core.PeerID
	Recno    int
	Accepted []core.TxnID
	Rejected []core.TxnID
}

// Store is the update store interface. Implementations must be safe for
// concurrent use by multiple peers.
type Store interface {
	// RegisterPeer declares a peer and its trust policy. Trust conditions
	// are needed store-side so that priorities and relevance can be
	// evaluated without shipping every update to the client.
	RegisterPeer(ctx context.Context, peer core.PeerID, trust core.Trust) error

	// Publish atomically publishes a batch of transactions from the peer,
	// allocating a new epoch; the transactions are recorded as already
	// accepted by their publisher. An empty batch returns the current
	// epoch without allocating. A transaction whose id is already
	// published is skipped, and the call succeeds: a peer whose publish
	// committed but lost its reply sends the same batch again.
	Publish(ctx context.Context, peer core.PeerID, txns []PublishedTxn) (core.Epoch, error)

	// BeginReconciliation determines the peer's reconciliation epoch (the
	// most recent epoch not preceded by an unfinished one), records the
	// reconciliation, and returns the candidate transactions the peer
	// needs.
	BeginReconciliation(ctx context.Context, peer core.PeerID) (*Reconciliation, error)

	// RecordDecisions persists the accept/reject outcome of the peer's
	// reconciliation recno. Deferred transactions are not recorded: they
	// are client soft state.
	RecordDecisions(ctx context.Context, peer core.PeerID, recno int, accepted, rejected []core.TxnID) error

	// RecordDecisionsBatch persists several peers' reconciliation outcomes
	// at once. It is semantically equivalent to calling RecordDecisions
	// once per batch, but implementations amortize the round trips: the
	// central store commits every batch in one database transaction, the
	// remote store ships the whole slice in one RPC, and the DHT store
	// regroups the decisions by transaction controller. ReconcileAll uses
	// it to flush each fan-out wave's decisions together.
	RecordDecisionsBatch(ctx context.Context, batches []DecisionBatch) error
}

// Backend is the full contract of a production update store: the five Store
// methods plus every capability the recovery, streaming and gateway paths
// use. Its one replay verb is SnapshotReplayer.ReplayFrom. Code that holds
// a Backend calls those capabilities directly; code handed a bare Store
// from outside (remote.NewServer, gateway.New) asserts the one it needs and
// reports the type that lacks it. A Backend also executes each
// idempotency-keyed call once (WithIdempotencyKey).
type Backend interface {
	Store
	Snapshotter
	SnapshotReplayer
	Watcher
	TrustResolver
}
