package central

import (
	"context"
	"fmt"
	"sync"

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
// Each subscription materializes its own events from the shared epoch
// registry — epoch metas are immutable once finished and the index retains
// every payload — so event assembly takes no store-wide lock and a slow
// subscriber delays nobody. The subscription's cursor advances only after
// the consumer has received the event on the channel; compaction consults
// the registered cursors (snapshot.go) and refuses to drop epochs a live
// subscriber has not consumed yet.

// watchSub is one registered subscription: its cursor is the highest stable
// epoch the consumer has received. Compaction reads cursors concurrently
// with the subscription goroutine advancing them, hence the mutex.
type watchSub struct {
	mu     sync.Mutex
	cursor core.Epoch
}

func (w *watchSub) Cursor() core.Epoch {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cursor
}

func (w *watchSub) setCursor(e core.Epoch) {
	w.mu.Lock()
	w.cursor = e
	w.mu.Unlock()
}

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

// minWatcherCursor returns the smallest registered subscription cursor, if
// any subscription is attached — the epoch floor compaction must not pass.
func (s *Store) minWatcherCursor() (core.Epoch, bool) {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	var min core.Epoch
	found := false
	for sub := range s.watchers {
		if c := sub.Cursor(); !found || c < min {
			min, found = c, true
		}
	}
	return min, found
}

// WatchFrom implements store.Watcher. Events cover contiguous windows of
// newly stable epochs starting after from; the channel closes when ctx is
// done or the store closes. Watching from below the compaction horizon
// fails — those epochs' windows no longer exist as epochs (their undecided
// payloads live on in the snapshot residue, but the per-epoch grouping the
// stream promises is gone).
func (s *Store) WatchFrom(ctx context.Context, from core.Epoch) (<-chan store.WatchEvent, error) {
	s.snapState.mu.RLock()
	compacted := s.snapState.compacted
	s.snapState.mu.RUnlock()
	if from < compacted {
		return nil, fmt.Errorf("central: cannot watch from epoch %d: epochs through %d are compacted", from, compacted)
	}
	sub := &watchSub{cursor: from}
	s.watchMu.Lock()
	if s.watchClosed {
		s.watchMu.Unlock()
		return nil, fmt.Errorf("central: store is closed")
	}
	s.watchers[sub] = struct{}{}
	s.watchMu.Unlock()
	ch := make(chan store.WatchEvent)
	go s.watchLoop(ctx, sub, ch)
	return ch, nil
}

func (s *Store) watchLoop(ctx context.Context, sub *watchSub, ch chan<- store.WatchEvent) {
	defer func() {
		s.watchMu.Lock()
		delete(s.watchers, sub)
		s.watchMu.Unlock()
		close(ch)
	}()
	cursor := sub.Cursor()
	for {
		sig := s.stableSignal()
		stable := s.stableEpoch()
		if stable <= cursor {
			select {
			case <-ctx.Done():
				return
			case <-s.watchDone:
				return
			case <-sig:
				continue
			}
		}
		ev := store.WatchEvent{From: cursor, To: stable, Txns: s.windowTxns(cursor, stable)}
		select {
		case <-ctx.Done():
			return
		case <-s.watchDone:
			return
		case ch <- ev:
			// The cursor reflects what the consumer has *received*, so a
			// send that never completes leaves compaction blocked at the
			// undelivered window, not past it.
			sub.setCursor(stable)
			cursor = stable
		}
	}
}

// windowTxns is the one walk of the published log: the transactions of
// epochs (from, to] in epoch order, publish order within an epoch — the
// global order. The watch stream walks stable windows, ReplayFor and
// ReplayFrom walk to the highest allocated epoch (each behind its own
// compaction guard). A finished epoch's transaction list is immutable and
// read lock-free; an epoch still publishing is copied under its lock.
func (s *Store) windowTxns(from, to core.Epoch) []store.PublishedTxn {
	var out []store.PublishedTxn
	for e := from + 1; e <= to; e++ {
		em := s.epoch(e)
		if em == nil {
			continue
		}
		for _, id := range em.txnIDs() {
			if en := s.lookup(id); en != nil {
				out = append(out, en.pub)
			}
		}
	}
	return out
}
