package central

import (
	"context"
	"fmt"

	"orchestra/internal/core"
	"orchestra/internal/reldb"
	"orchestra/internal/store"
)

// This file implements idempotency-key dedup for the non-idempotent store
// operations (Publish, RecordDecisionsBatch, BeginReconciliation, Snapshot,
// CompactBefore). A keyed call executes once; its result is recorded in the
// idempotency table *inside the operation's own commit* — riding the
// existing commit machinery, so a crash can never separate an operation
// from its dedup record — and every later delivery of the same key replays
// the recorded result instead of re-executing. The in-memory entry map
// additionally serializes concurrent duplicates: the first delivery owns
// execution, later ones block until it finishes. A failed owner releases
// the key, so a retry after a genuine failure re-executes.
//
// BeginReconciliation needs dedup even though the issue's list names only
// the write ops: a reconciliation window is delivered once — the store
// advances the peer's frontier past it — so a retried begin whose first
// delivery committed would silently lose the window's candidates forever.
// The dedup record memoizes (recno, from, to); candidates are recomputed
// from the window on replay, which is sound because the reconciling peer is
// the only writer of its decided set and it is blocked in this very call.
//
// # Retention
//
// Dedup records do not live forever: every record carries an epoch
// watermark (the epoch its operation committed at, or the stable epoch it
// observed), and CompactBefore prunes records — durable rows and in-memory
// entries alike — whose watermark lies strictly below the compaction
// horizon. That is past any retry: the horizon never passes a registered
// peer's reconciliation frontier, and every record's watermark is at or
// above its peer's frontier at commit time (a publish's epoch is above the
// publisher's frontier; a begin's ToEpoch is the frontier it installed; a
// decide's stable epoch is at or above it). A peer advances its frontier
// only through a later store call, and a client issues its store calls
// sequentially — so while a call's retries are still in flight, its
// peer's frontier (and therefore the horizon) cannot have caught up to the
// record's watermark.

// Operation names recorded with each key (guarding cross-op key reuse).
const (
	opPublish  = "publish"
	opDecide   = "decide"
	opBegin    = "begin"
	opSnapshot = "snapshot"
	opCompact  = "compact"
)

// idemEntry is one key's state: in-flight (done open) or completed (done
// closed, result fields valid).
type idemEntry struct {
	op   string
	done chan struct{}
	err  error
	idemResult
}

// idemResult is what a completed keyed operation memoizes for its
// duplicates: publish/snapshot/compact an epoch (e); begin its window;
// decide nothing beyond success (e holds its retention watermark).
type idemResult struct {
	e     core.Epoch
	recno int
	from  core.Epoch
	to    core.Epoch
}

// watermark is the entry's retention bound: the record may be pruned once
// the compaction horizon passes it (see the package retention rationale
// above). Publish/snapshot/compact memoize their epoch in e; decide stores
// the stable epoch it observed there; begin uses its window's end.
func (en *idemEntry) watermark() core.Epoch {
	if en.op == opBegin {
		return en.to
	}
	return en.e
}

// keyed is the one guard every non-idempotent operation runs under. Without
// an idempotency key in ctx, run simply executes (with an empty key). With
// one, the first delivery owns execution: run gets the key — so the dedup
// row rides the operation's own commit — and returns what duplicates must
// replay; a failed owner releases the key, so a retry re-executes. Every
// other delivery of the key blocks until the owner finishes and then, with
// dup set, gets the memoized result instead of running.
func (s *Store) keyed(ctx context.Context, op string, run func(store.IdempotencyKey) (idemResult, error)) (res idemResult, dup bool, err error) {
	key, ok := store.IdempotencyKeyFrom(ctx)
	if !ok {
		res, err = run("")
		return res, false, err
	}
	en, dup, err := s.beginIdem(key, op)
	if err != nil {
		return idemResult{}, false, err
	}
	if dup {
		return en.idemResult, true, nil
	}
	res, err = run(key)
	en.idemResult = res
	s.finishIdem(key, en, err)
	return res, false, err
}

// beginIdem resolves a key: a completed duplicate returns its entry with
// dup=true; otherwise the key is registered in-flight and the caller owns
// executing the operation (and must finishIdem). Concurrent duplicates
// block here until the owner finishes.
func (s *Store) beginIdem(key store.IdempotencyKey, op string) (*idemEntry, bool, error) {
	for {
		s.idemMu.Lock()
		en := s.idem[key]
		if en == nil {
			en = &idemEntry{op: op, done: make(chan struct{})}
			s.idem[key] = en
			s.idemMu.Unlock()
			return en, false, nil
		}
		s.idemMu.Unlock()
		if en.op != op {
			return nil, false, fmt.Errorf("central: idempotency key %q reused across operations (%s, then %s)", key, en.op, op)
		}
		<-en.done
		if en.err == nil {
			s.counters.ObserveDedupHit()
			return en, true, nil
		}
		// The owner failed and released the key; loop to take ownership and
		// re-execute.
	}
}

// finishIdem publishes the owner's outcome. Failures release the key so the
// next delivery re-executes; successes leave the completed entry for
// duplicates to replay.
func (s *Store) finishIdem(key store.IdempotencyKey, en *idemEntry, err error) {
	s.idemMu.Lock()
	en.err = err
	if err != nil {
		delete(s.idem, key)
	}
	close(en.done)
	s.idemMu.Unlock()
}

// idemRow encodes a dedup record for insertion inside an operation's
// commit. The idempotency table is last in the table lock order.
func idemRow(key store.IdempotencyKey, op string, r1, r2, r3 int64) reldb.Row {
	return reldb.Row{reldb.Str(string(key)), reldb.Str(op), reldb.Int(r1), reldb.Int(r2), reldb.Int(r3)}
}

// loadIdem rebuilds the completed-entry map from the idempotency table
// (within loadCaches' recovery view).
func (s *Store) loadIdem(tx *reldb.Tx) error {
	return tx.Scan(s.idemTab, func(r reldb.Row) bool {
		en := &idemEntry{op: r[1].S(), done: make(chan struct{})}
		switch en.op {
		case opPublish, opSnapshot, opCompact, opDecide:
			en.e = core.Epoch(r[2].I())
		case opBegin:
			en.recno = int(r[2].I())
			en.from = core.Epoch(r[3].I())
			en.to = core.Epoch(r[4].I())
		}
		close(en.done)
		s.idem[store.IdempotencyKey(r[0].S())] = en
		return true
	})
}

// prunableIdem collects the completed dedup keys whose watermark lies
// strictly below the compaction horizon e — records whose retries are
// provably over (see the retention rationale above). In-flight entries are
// skipped: they have no durable row yet, and their owner still needs them.
func (s *Store) prunableIdem(e core.Epoch) []store.IdempotencyKey {
	s.idemMu.Lock()
	defer s.idemMu.Unlock()
	var keys []store.IdempotencyKey
	for k, en := range s.idem {
		select {
		case <-en.done:
		default:
			continue // in-flight
		}
		if en.err == nil && en.watermark() < e {
			keys = append(keys, k)
		}
	}
	return keys
}

// dropIdem removes pruned keys from the in-memory map once their durable
// rows are committed away. Completed entries never mutate, so collecting
// them first and dropping after the commit cannot race an owner.
func (s *Store) dropIdem(keys []store.IdempotencyKey) {
	s.idemMu.Lock()
	for _, k := range keys {
		delete(s.idem, k)
	}
	s.idemMu.Unlock()
}

// replayReconciliation rebuilds the answer of a deduped begin: the memoized
// recno and window, with the candidates recomputed against the transaction
// index. Sound because only the peer itself mutates its decided set, and
// the peer is blocked in this call.
//
// The recomputation scans the index by epoch range (replayCandidatesLocked)
// instead of re-walking the epoch metas: compaction may void the window's
// epochs between the first execution and a late duplicate delivery (the
// begin-commit advanced the peer's frontier past the window, so compaction
// considers the peer caught up), but it can never drop the window's
// candidate payloads — a candidate is by definition undecided by this peer,
// which keeps it in every snapshot's residue, and residue entries stay
// indexed with their epochs. A candidate the peer decided since the first
// delivery is excluded either way: by the decided-set filter while its
// cache entry lives, or by its index entry being released once all peers
// settled it — and the client's engine drops already-decided candidates
// and already-applied extension transactions regardless.
func (s *Store) replayReconciliation(peer core.PeerID, res idemResult) (*store.Reconciliation, error) {
	pm, err := s.peer(peer)
	if err != nil {
		return nil, err
	}
	lockContended(&pm.mu, s.counters.ObservePeerContention)
	defer pm.mu.Unlock()
	// Same guard as beginReconciliation: a recovered store may know the
	// peer but not its in-process trust policy, and candidate priorities
	// cannot be computed against nothing.
	if pm.trust == nil {
		return nil, fmt.Errorf("central: peer %s has no trust policy (re-register after recovery)", peer)
	}
	return &store.Reconciliation{
		Recno:      res.recno,
		FromEpoch:  res.from,
		ToEpoch:    res.to,
		Candidates: s.replayCandidatesLocked(pm, peer, res.from, res.to),
	}, nil
}
