package core

import "fmt"

// Decision is the outcome assigned to a transaction by a reconciliation.
type Decision uint8

const (
	// DecisionNone means the transaction has not been considered (or is
	// untrusted and therefore never considered as a root).
	DecisionNone Decision = iota
	// DecisionAccept means the transaction's update extension was applied.
	DecisionAccept
	// DecisionReject means the transaction will never be applied; any
	// transaction whose extension contains it is rejected too.
	DecisionReject
	// DecisionDefer means the transaction awaits user conflict resolution;
	// the keys it touches are dirty.
	DecisionDefer
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case DecisionNone:
		return "none"
	case DecisionAccept:
		return "accept"
	case DecisionReject:
		return "reject"
	case DecisionDefer:
		return "defer"
	default:
		return fmt.Sprintf("decision(%d)", uint8(d))
	}
}

// Candidate is one relevant transaction delivered to a reconciling peer by
// the update store: the transaction, the peer's priority for it, and its
// transaction extension (root plus unapplied antecedents, in publication
// order) as of fetch time.
type Candidate struct {
	Txn      *Transaction
	Priority int
	Ext      []*Transaction
}

// Result reports the outcome of one ReconcileUpdates run.
type Result struct {
	Recno int
	// Accepted lists every transaction applied during the run, including
	// antecedents applied as part of an accepted root's extension.
	Accepted []TxnID
	// Rejected lists roots rejected during the run.
	Rejected []TxnID
	// Deferred lists the roots the run considered and left deferred, in
	// the order runs consider candidates (publication order, then ID).
	// Reconcile considers every deferred root, so its Deferred is the whole
	// deferred set; a Resolve re-run lists only the components it
	// reconsidered. Engine.DeferredIDs and Engine.ConflictGroups give the
	// whole deferred set and its conflict groups.
	Deferred []TxnID
	// Stats capture work counters for benchmarks.
	Stats ReconcileStats
}

// ReconcileStats counts the work done by one reconciliation.
type ReconcileStats struct {
	Candidates      int // relevant trusted transactions considered
	ExtensionTxns   int // total transactions across all extensions
	FlattenedOps    int // total updates across all flattened extensions
	ConflictPairs   int // candidate pairs examined for conflicts
	ConflictsFound  int // conflicting, non-subsuming pairs
	AppliedUpdates  int // updates applied to the instance
	DirtyKeys       int // dirty keys after the run
	DeferredCarried int // previously deferred roots reconsidered

	// Pipeline instrumentation: wall-clock stage latencies, which vary run
	// to run.
	CheckNanos     int64 // flatten extensions + CheckState (lines 5-8)
	ConflictNanos  int64 // FindConflicts pair checks (line 9)
	GroupNanos     int64 // DoGroup passes (lines 10-12)
	ApplyNanos     int64 // decision recording + apply loop (lines 13-19)
	SoftStateNanos int64 // UpdateSoftState (lines 20-21)
}
