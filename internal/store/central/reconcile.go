package central

import (
	"cmp"
	"context"
	"fmt"
	"iter"
	"slices"
	"sort"
	"sync"

	"orchestra/internal/core"
	"orchestra/internal/reldb"
	"orchestra/internal/store"
)

// BeginReconciliation implements store.Store. Only the reconciling peer's
// own lock is held throughout, so any number of peers reconcile
// concurrently; the epoch window is read under per-epoch locks and the
// transaction index under its read lock. A context carrying an idempotency
// key makes the call safe to redeliver: a duplicate of a committed begin
// returns the original recno and window (with its candidates recomputed)
// instead of advancing the frontier again — without the key, a retried
// begin would permanently lose the first window's candidates.
func (s *Store) BeginReconciliation(ctx context.Context, peer core.PeerID) (*store.Reconciliation, error) {
	if err := s.enter(); err != nil {
		return nil, err
	}
	defer s.exit()
	var rec *store.Reconciliation
	res, dup, err := s.keyed(ctx, opBegin, func(key store.IdempotencyKey) (idemResult, error) {
		var err error
		if rec, err = s.beginReconciliation(peer, key); err != nil {
			return idemResult{}, err
		}
		return idemResult{recno: rec.Recno, from: rec.FromEpoch, to: rec.ToEpoch}, nil
	})
	if dup {
		return s.replayReconciliation(peer, res)
	}
	return rec, err
}

func (s *Store) beginReconciliation(peer core.PeerID, key store.IdempotencyKey) (*store.Reconciliation, error) {
	pm, err := s.peer(peer)
	if err != nil {
		return nil, err
	}
	lockContended(&pm.mu, s.counters.ObservePeerContention)
	defer pm.mu.Unlock()
	// A recovered store may know the peer but not its trust policy (only
	// textual policies persist). Refuse cleanly rather than computing
	// candidate priorities against nothing: the error is permanent until
	// the peer re-registers, and no reconciliation window is consumed.
	if pm.trust == nil {
		return nil, fmt.Errorf("central: peer %s has no trust policy (re-register after recovery)", peer)
	}

	stable := s.stableEpoch()
	from := pm.lastEpoch
	if stable < from {
		stable = from
	}
	recno := pm.recno + 1
	// Record the reconciliation point immediately and commit, as §5.2.1
	// prescribes, so no publisher waits behind the reconciliation. The dedup
	// record rides the same commit.
	err = s.db.Update(func(tx *reldb.Tx) error {
		if err := tx.Upsert(s.peersTab, reldb.Row{
			reldb.Str(string(peer)), reldb.Int(int64(stable)), reldb.Int(int64(recno)),
		}); err != nil {
			return err
		}
		if key != "" {
			return tx.Insert(s.idemTab, idemRow(key, opBegin, int64(recno), int64(from), int64(stable)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pm.lastEpoch = stable
	pm.recno = recno

	return &store.Reconciliation{
		Recno:      recno,
		FromEpoch:  from,
		ToEpoch:    stable,
		Candidates: s.candidatesLocked(pm, peer, from, stable),
	}, nil
}

// candidatesLocked walks the window (from, to] and collects the peer's
// candidates, order-sorted as the walk is. The caller holds the peer's
// lock.
func (s *Store) candidatesLocked(pm *peerMeta, peer core.PeerID, from, to core.Epoch) []*core.Candidate {
	w := newWindowWalk(s, pm, peer)
	defer w.release()
	for en := range s.window(from, to) {
		w.add(en)
	}
	return w.candidates()
}

// replayCandidatesLocked recomputes a memoized reconciliation window's
// candidates for the dedup replay path. It applies the same filter as
// candidatesLocked but collects the window's transactions from the index
// instead of the epoch metas: a live begin always sees its window's epochs
// (compaction cannot pass the peer's own pre-begin frontier), but a
// duplicate can be delivered after those epochs were compacted to void —
// the index, which retains every snapshot-residue entry, is what still
// holds the window's undecided transactions then. Within uncompacted
// windows the two walks agree exactly: the index holds precisely the
// epochs' entries, and sorting by global order reproduces the epoch-order
// walk. The caller holds the peer's lock.
func (s *Store) replayCandidatesLocked(pm *peerMeta, peer core.PeerID, from, to core.Epoch) []*core.Candidate {
	w := newWindowWalk(s, pm, peer)
	defer w.release()
	for _, en := range s.entriesIn(from, to) {
		w.add(en)
	}
	return w.candidates()
}

// windowWalk collects one window's candidates for a peer. The walk finds
// them and their extensions on pooled buffers, back to back; candidates
// then copies them into one block of candidates and one of extension
// transactions, each sized to the window, so a begin allocates three
// times whatever its window holds. Begins of different peers walk side by
// side, each on a walk of its own. The caller holds the peer's lock.
type windowWalk struct {
	s    *Store
	pm   *peerMeta
	peer core.PeerID

	cands []foundCandidate
	// ext holds every extension found, in candidate order; seen and stack
	// are the antecedent closure's visited set (emptied per candidate, by
	// the IDs in seenIDs) and work list.
	ext     []*core.Transaction
	seen    map[core.TxnID]struct{}
	seenIDs []core.TxnID
	stack   []core.TxnID
}

// foundCandidate is a candidate the walk found: its extension ends at
// ext[end], where the next one's begins.
type foundCandidate struct {
	txn  *core.Transaction
	prio int
	end  int
}

var windowPool = sync.Pool{New: func() any {
	return &windowWalk{seen: make(map[core.TxnID]struct{})}
}}

func newWindowWalk(s *Store, pm *peerMeta, peer core.PeerID) *windowWalk {
	w := windowPool.Get().(*windowWalk)
	w.s, w.pm, w.peer = s, pm, peer
	return w
}

// release empties the walk, pinning nothing, and pools it.
func (w *windowWalk) release() {
	clear(w.cands)
	clear(w.ext)
	clear(w.stack[:cap(w.stack)]) // popped IDs stay past the length
	w.s, w.pm, w.peer = nil, nil, ""
	w.cands, w.ext, w.stack = w.cands[:0], w.ext[:0], w.stack[:0]
	windowPool.Put(w)
}

// add is the candidate filter of both window walks: a published
// transaction is a candidate for the peer unless the peer wrote it, has
// already decided it, or does not trust it.
func (w *windowWalk) add(en *entry) {
	x := en.pub.Txn
	if x.ID.Origin == w.peer {
		return
	}
	if _, decided := w.pm.decided.Get(x.ID); decided {
		return
	}
	prio := core.TxnPriority(w.pm.trust, x)
	if prio <= 0 {
		return
	}
	w.extension(en)
	w.cands = append(w.cands, foundCandidate{txn: x, prio: prio, end: len(w.ext)})
}

// extension appends to ext the transaction extension of the root entry
// for the peer: the antecedent closure excluding transactions the peer
// has accepted, sorted by global order.
func (w *windowWalk) extension(root *entry) {
	from := len(w.ext)
	w.ext = append(w.ext, root.pub.Txn)
	if len(root.pub.Antecedents) > 0 {
		w.seen[root.pub.Txn.ID] = struct{}{}
		w.seenIDs = append(w.seenIDs, root.pub.Txn.ID)
		w.push(root)
		for len(w.stack) > 0 {
			id := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			en := w.s.lookup(id)
			if en == nil {
				continue // antecedent from before this store's history
			}
			if d, _ := w.pm.decided.Get(id); d.Decision == core.DecisionAccept {
				continue
			}
			w.ext = append(w.ext, en.pub.Txn)
			w.push(en)
		}
		for _, id := range w.seenIDs {
			delete(w.seen, id)
		}
		clear(w.seenIDs)
		w.seenIDs = w.seenIDs[:0]
	}
	if ext := w.ext[from:]; len(ext) > 1 {
		slices.SortFunc(ext, func(a, b *core.Transaction) int { return cmp.Compare(a.Order, b.Order) })
	}
}

// push puts the antecedents of en not seen yet on the stack, marking them
// seen.
func (w *windowWalk) push(en *entry) {
	for _, a := range en.pub.Antecedents {
		if _, ok := w.seen[a]; !ok {
			w.seen[a] = struct{}{}
			w.seenIDs = append(w.seenIDs, a)
			w.stack = append(w.stack, a)
		}
	}
}

// candidates returns what the walk found: the candidates in one block,
// each extension a capped window of one block of transactions; nil for
// none.
func (w *windowWalk) candidates() []*core.Candidate {
	if len(w.cands) == 0 {
		return nil
	}
	block := make([]core.Candidate, len(w.cands))
	out := make([]*core.Candidate, len(w.cands))
	ext := slices.Clone(w.ext)
	lo := 0
	for i, c := range w.cands {
		block[i] = core.Candidate{Txn: c.txn, Priority: c.prio, Ext: ext[lo:c.end:c.end]}
		out[i] = &block[i]
		lo = c.end
	}
	return out
}

// RecordDecisions implements store.Store as a single-entry batch.
func (s *Store) RecordDecisions(ctx context.Context, peer core.PeerID, recno int, accepted, rejected []core.TxnID) error {
	return s.RecordDecisionsBatch(ctx, []store.DecisionBatch{{
		Peer: peer, Recno: recno, Accepted: accepted, Rejected: rejected,
	}})
}

// RecordDecisionsBatch implements store.Store: every batch's decisions are
// committed in one database transaction — one round trip for a whole
// fan-out wave. Peers are locked in sorted order so concurrent batches
// cannot deadlock. A context carrying an idempotency key makes the call
// safe to redeliver: duplicates of a committed batch succeed without
// writing a second set of decision rows.
func (s *Store) RecordDecisionsBatch(ctx context.Context, batches []store.DecisionBatch) error {
	if err := s.enter(); err != nil {
		return err
	}
	defer s.exit()
	_, _, err := s.keyed(ctx, opDecide, func(key store.IdempotencyKey) (idemResult, error) {
		// The record's retention watermark: the current stable epoch is at or
		// above every batch peer's reconciliation frontier, and the compaction
		// horizon never passes a frontier — so the record survives at least
		// until each of those peers advances its frontier again, which a peer
		// still retrying this very call cannot do (see idempotency.go).
		wm := s.stableEpoch()
		return idemResult{e: wm}, s.recordDecisionsBatch(batches, key, wm)
	})
	return err
}

func (s *Store) recordDecisionsBatch(batches []store.DecisionBatch, key store.IdempotencyKey, wm core.Epoch) error {
	if len(batches) == 0 {
		return nil
	}
	pms := make([]*peerMeta, len(batches))
	for i, b := range batches {
		pm, err := s.peer(b.Peer)
		if err != nil {
			return err
		}
		pms[i] = pm
	}
	// Batches are visited by peer, a stable sort: one peer's batches keep
	// their relative order, so its dseqs are the ones the cache update
	// below assigns, and its decisions come out contiguous — one row.
	order := make([]int, len(batches))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return batches[order[a]].Peer < batches[order[b]].Peer })
	locked := make(map[*peerMeta]bool, len(batches))
	for _, i := range order {
		if locked[pms[i]] {
			continue // same peer twice in one batch: one lock covers both
		}
		lockContended(&pms[i].mu, s.counters.ObservePeerContention)
		locked[pms[i]] = true
	}
	defer func() {
		for pm := range locked {
			pm.mu.Unlock()
		}
	}()

	total := 0
	for i, b := range batches {
		if b.Recno > pms[i].recno {
			return fmt.Errorf("central: decisions for future reconciliation %d (current %d)", b.Recno, pms[i].recno)
		}
		total += len(b.Accepted) + len(b.Rejected)
	}
	if total > 0 {
		// dseq continues each peer's sequence across the whole commit, and
		// each peer's decisions, its batches in visiting order, are one row
		// (decisions.go) keyed by the first dseq they take.
		decisions := [2]core.Decision{core.DecisionAccept, core.DecisionReject}
		var buf []byte
		err := s.db.Update(func(tx *reldb.Tx) error {
			var first, prev, dseq int64
			for p, i := range order {
				b := batches[i]
				if p == 0 || pms[order[p-1]] != pms[i] {
					dseq = pms[i].nextSeq
					first, prev = dseq+1, dseq+1
				}
				for d, ids := range [2][]core.TxnID{b.Accepted, b.Rejected} {
					for _, id := range ids {
						dseq++
						buf = appendDecisionEntry(buf, id, decisions[d], dseq-prev)
						prev = dseq
					}
				}
				if len(buf) > 0 && (p+1 == len(order) || pms[order[p+1]] != pms[i]) {
					if err := tx.Insert(s.decisionsTab, reldb.Row{reldb.Str(string(b.Peer)), reldb.Int(first), reldb.Bytes(buf)}); err != nil {
						return err
					}
					buf = buf[:0]
				}
			}
			if key != "" {
				return tx.Insert(s.idemTab, idemRow(key, opDecide, int64(wm), 0, 0))
			}
			return nil
		})
		if err != nil {
			return err
		}
		for i, b := range batches {
			for _, id := range b.Accepted {
				pms[i].recordDecisionLocked(id, core.DecisionAccept)
			}
			for _, id := range b.Rejected {
				pms[i].recordDecisionLocked(id, core.DecisionReject)
			}
		}
	}
	s.counters.ObserveDecisionRoundTrip(len(batches), total)
	return nil
}

// window is the one walk of the published log: the entries of epochs
// (from, to] in epoch order, publish order within an epoch — the global
// order. It reads each epoch's own entry list and never the index, which
// serves the antecedent chase. A begin walks its reconciliation
// window (candidatesLocked); ReplayFrom walks to the highest allocated
// epoch, behind the compaction guard. A finished epoch's list is immutable
// and read lock-free; an epoch still publishing is copied under its lock.
func (s *Store) window(from, to core.Epoch) iter.Seq[*entry] {
	return func(yield func(*entry) bool) {
		for e := from + 1; e <= to; e++ {
			em := s.epoch(e)
			if em == nil {
				continue
			}
			for _, en := range em.entries() {
				if !yield(en) {
					return
				}
			}
		}
	}
}
