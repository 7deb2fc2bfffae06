package store

import (
	"context"

	"orchestra/internal/core"
)

// Watching is the Backend's subscription capability: instead of polling
// BeginReconciliation for new stable epochs, a consumer subscribes once and
// is woken whenever the stable frontier advances. Central implements it
// natively (a frontier-advance notification, no polling in-process) and the
// remote client proxies it as a resumable long-poll.

// WatchEvent reports that the stable frontier advanced: every epoch in
// (From, To] became stable. It is a frontier advance, not a delivery — it
// carries no transactions; the window a peer reconciles always comes from
// BeginReconciliation, from the frontier the store records for that peer.
// Events on one subscription are contiguous — each event's From equals the
// previous event's To — so a consumer's cursor is always the To of the last
// event it received, and a broken subscription resumes from that cursor.
type WatchEvent struct {
	From core.Epoch // exclusive
	To   core.Epoch // inclusive
}

// Watcher is implemented by stores that can push stable-frontier advances.
type Watcher interface {
	// WatchFrom subscribes to stable epochs after `from` (exclusive). The
	// returned channel delivers contiguous WatchEvents until ctx is done or
	// the subscription breaks (store shutdown, transport failure), after
	// which it is closed. A closed channel with a live ctx means the
	// subscription broke; the consumer resumes by calling WatchFrom again
	// with its cursor. A subscription holds nothing in the store, so any
	// cursor is accepted and watching never fails for compaction reasons.
	WatchFrom(ctx context.Context, from core.Epoch) (<-chan WatchEvent, error)
}

// CanWatch reports whether st implements Watcher. Nothing in this module
// calls it; it is kept until bench/trace.go stops naming it (see Replayer).
func CanWatch(_ context.Context, st Store) bool {
	_, ok := st.(Watcher)
	return ok
}
