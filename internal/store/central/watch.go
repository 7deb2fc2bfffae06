package central

import (
	"context"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// This file implements store.Watcher natively: subscriptions are woken by
// the stable-frontier advance itself (advanceFrontier → notifyWatchers), so
// no goroutine in this process ever polls. The broadcast is the classic
// closed-channel signal: watchSignal is closed and replaced under watchMu on
// every advance; a waiter snapshots the channel, re-checks the frontier, and
// blocks on the snapshot — the re-check after the snapshot makes a lost
// wakeup impossible (an advance between check and block closed the very
// channel the waiter holds).
//
// A subscription is a goroutine and a number. Its events are {cursor,
// stable} pairs read from one atomic — no log walk, no store-wide lock, so
// a slow subscriber delays nobody — and the store keeps no registry of
// subscriptions: a cursor is not a claim on history, compaction never asks
// who is attached, and the window an event announces is whatever
// BeginReconciliation returns for the peer that asks.

// notifyWatchers broadcasts a frontier advance by closing the current
// signal channel and installing a fresh one. Called without any other store
// lock held (advanceFrontier releases epochMu first); watchMu is a leaf.
func (s *Store) notifyWatchers() {
	s.watchMu.Lock()
	if !s.watchClosed {
		close(s.watchSignal)
		s.watchSignal = make(chan struct{})
	}
	s.watchMu.Unlock()
}

// stableSignal snapshots the current broadcast channel. The caller must
// re-check the stable frontier after snapshotting and before blocking.
func (s *Store) stableSignal() <-chan struct{} {
	s.watchMu.Lock()
	sig := s.watchSignal
	s.watchMu.Unlock()
	return sig
}

// WatchFrom implements store.Watcher: one event per observed advance of
// the stable frontier past the cursor, starting at from; the channel closes
// when ctx is done or the store closes. Any from is accepted, compacted
// epochs included — the only refusal is a closed store.
func (s *Store) WatchFrom(ctx context.Context, from core.Epoch) (<-chan store.WatchEvent, error) {
	s.watchMu.Lock()
	closed := s.watchClosed
	s.watchMu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	ch := make(chan store.WatchEvent)
	go s.watchLoop(ctx, from, ch)
	return ch, nil
}

func (s *Store) watchLoop(ctx context.Context, cursor core.Epoch, ch chan<- store.WatchEvent) {
	defer close(ch)
	for {
		sig := s.stableSignal()
		stable := s.stableEpoch()
		// Offer the advance, if there is one, but keep listening: a consumer
		// slow to receive is handed the frontier as of its receive, not a
		// stale one. A nil channel never sends.
		var out chan<- store.WatchEvent
		if stable > cursor {
			out = ch
		}
		select {
		case <-ctx.Done():
			return
		case <-s.watchDone:
			return
		case <-sig:
		case out <- store.WatchEvent{From: cursor, To: stable}:
			cursor = stable
		}
	}
}
