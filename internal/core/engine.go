package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"
)

// Engine is the client-centric reconciliation engine for one participant.
// It owns the participant's materialized instance, its decided table (each
// transaction's accept or reject in two bits: decided.go), and the
// reconstructable soft state (deferred transactions, dirty values,
// conflict groups); a local transaction's antecedent set goes to its
// publisher and is not kept. The update store feeds it
// Candidates; the engine implements ReconcileUpdates of Figure 4 with the
// helper procedures of Figure 5.
//
// Engine is not safe for concurrent use; each participant drives its engine
// from a single goroutine (reconciliation is "done frequently but not in
// real time, by each specific participant"), and Reconcile runs every stage
// on that goroutine. Concurrency lives one level up: System.ReconcileAll
// reconciles its peers' engines side by side.
type Engine struct {
	peer   PeerID
	schema *Schema
	trust  Trust
	inst   *Instance

	// decided only grows, and a decision in it is final; a run records
	// its rejections once its accepted chains are applied (see reconcile).
	decided decidedTable

	// deferredCands carries deferred candidates across reconciliations so
	// ReconcileUpdates can reconsider them without re-fetching, each with
	// the soft state it contributed (see deferredCand).
	deferredCands map[TxnID]*deferredCand
	// dirty is the dirty value set: keys touched by deferred transactions.
	dirty map[tupleKey]bool
	// groups are the conflict groups of the deferred transactions.
	groups map[Conflict]*ConflictGroup
	// unsettled is set by whatever changes what re-evaluating a deferred
	// candidate reads beyond its own component — the trust policy, the own
	// delta, a restore — and makes the next run reconsider every one of
	// them (see Resolve).
	unsettled bool

	// ownSince accumulates the peer's own transactions applied locally
	// since the last reconciliation ("the delta for recno").
	ownSince []*Transaction

	recno   int
	nextSeq uint64
}

// NewEngine returns an engine for the participant with an empty instance.
func NewEngine(peer PeerID, schema *Schema, trust Trust) *Engine {
	return &Engine{
		peer:          peer,
		schema:        schema,
		trust:         trust,
		inst:          NewInstance(schema),
		deferredCands: make(map[TxnID]*deferredCand),
		dirty:         make(map[tupleKey]bool),
		groups:        make(map[Conflict]*ConflictGroup),
	}
}

// Peer returns the participant's ID.
func (e *Engine) Peer() PeerID { return e.peer }

// Schema returns the shared schema.
func (e *Engine) Schema() *Schema { return e.schema }

// Instance returns the participant's live instance. Callers must treat it
// as read-only.
func (e *Engine) Instance() *Instance { return e.inst }

// Trust returns the participant's trust policy.
func (e *Engine) Trust() Trust { return e.trust }

// SetTrust replaces the trust policy; it affects future reconciliations
// only ("once an update has been accepted ... it will not be rolled back").
// Nothing is priced ahead of time: every later price is computed from the
// new policy, and the next run reconsiders every deferred candidate.
func (e *Engine) SetTrust(t Trust) {
	e.trust = t
	e.unsettled = true
}

// TxnPriority computes pri_i(X) under the engine's current trust policy.
func (e *Engine) TxnPriority(x *Transaction) int { return TxnPriority(e.trust, x) }

// RefreshTrust replaces the trust policy mid-stream and re-prices the
// deferred candidates in place, without replaying history: each carried
// candidate's priority is recomputed from the new policy so the next
// reconciliation reconsiders it at its new priority. A candidate whose
// transaction becomes untrusted drops to priority 0 and falls out of the
// candidate set at the next run (its dirty marks clear with the normal
// soft-state rebuild). It returns the number of deferred candidates whose
// priority changed.
//
// When the peer's policy delegates trust, pass the *effective* (resolved)
// policy — the engine prices transactions exactly as given, it does not
// resolve delegation graphs.
func (e *Engine) RefreshTrust(t Trust) int {
	e.SetTrust(t)
	changed := 0
	for _, d := range e.deferredCands {
		if p := TxnPriority(e.trust, d.cand.Txn); p != d.cand.Priority {
			d.cand.Priority = p // the entry's own copy (see deferredCand)
			changed++
		}
	}
	return changed
}

// Recno returns the engine's last reconciliation number.
func (e *Engine) Recno() int { return e.recno }

// Applied reports whether the peer has applied the transaction.
func (e *Engine) Applied(id TxnID) bool { return e.decided.get(id) == DecisionAccept }

// Rejected reports whether the peer has rejected the transaction.
func (e *Engine) Rejected(id TxnID) bool { return e.decided.get(id) == DecisionReject }

// DeferredIDs returns the currently deferred transactions, sorted.
func (e *Engine) DeferredIDs() []TxnID {
	out := make([]TxnID, 0, len(e.deferredCands))
	for id := range e.deferredCands {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// DirtyKeyCount returns the size of the dirty value set.
func (e *Engine) DirtyKeyCount() int { return len(e.dirty) }

// NewLocalTransaction builds, applies, and records a transaction of the
// peer's own edits. The updates must be compatible with the local instance
// — a participant's own instance is always internally consistent. The
// returned transaction carries the next local sequence number and is ready
// to be published with the returned antecedent set (Definition 3), which
// the engine does not keep.
func (e *Engine) NewLocalTransaction(updates ...Update) (*Transaction, []TxnID, error) {
	x := NewTransaction(TxnID{Origin: e.peer, Seq: e.nextSeq}, updates...)
	if err := x.Validate(e.schema); err != nil {
		return nil, nil, err
	}
	if err := e.inst.CompatibleAll(x.Updates); err != nil {
		return nil, nil, fmt.Errorf("core: local transaction %s: %w", x.ID, err)
	}
	antes := e.antecedentIDs(x)
	for _, u := range x.Updates {
		e.inst.applyUnchecked(u)
	}
	e.noteProducers([]*Transaction{x})
	e.nextSeq++
	e.decided.decide(x.ID, DecisionAccept)
	e.ownSince = append(e.ownSince, x)
	e.unsettled = true
	return x, antes, nil
}

// candidateState pairs a candidate with its per-reconciliation soft state.
// A run's scratch lives here, indexed by the candidate's position, rather
// than in maps keyed by transaction; the states themselves are the run
// scratch's (runScratch.states).
type candidateState struct {
	cand     *Candidate
	upEx     UpdateExtension
	decision Decision
	// carried is the deferred entry of a previously deferred candidate
	// the run reconsiders (cand is its Candidate); nil for a fresh one.
	carried *deferredCand
	// shortcut reports that CheckState deferred a fresh candidate by its
	// line-1 checks (a dirty key, a deferred dependency), which a carried
	// candidate skips: the component must be evaluated again.
	shortcut bool
	deferred bool // left deferred by this run (set before UpdateSoftState)
	// conflicts are the run's candidates whose extensions directly conflict
	// with this one's (FindConflicts), in pair order.
	conflicts []*candidateState
	// groups are the conflicts among deferred candidates that involve this
	// one, sorted (UpdateSoftState), and conflictVals their values.
	groups       []Conflict
	conflictVals []tupleKey
}

// pairConflicts is what FindConflicts learned about the run's candidate
// pairs: pairs is enumeratePairs over the candidates, found[pi] the
// conflicts of pair pi (subsumed pairs included), nil for most.
// UpdateSoftState groups by it instead of checking the deferred pairs again.
type pairConflicts struct {
	pairs []uint64
	found [][]Conflict
}

// deferredCand is a deferred candidate together with the soft state it
// contributed, so that a run which does not reconsider it can leave that
// state in place and a run which does can take exactly it back out. It
// owns its Candidate, Ext included: a store may hand out its candidates
// as windows of one block per begin, which a deferral must not pin.
type deferredCand struct {
	cand Candidate
	// dirty are the keys it keeps dirty; groups the conflict groups it is a
	// member of. Candidates of different components share neither.
	dirty  []tupleKey
	groups []Conflict
	// comp identifies its component at its last evaluation (candidates with
	// different comp are not linked, see markComponents); settled reports
	// that evaluating the component again would reproduce its deferrals:
	// the run decided no member and deferred no fresh one by CheckState's
	// line-1 checks.
	comp    uint64
	settled bool
}

// dropDeferred takes a deferred candidate and its soft state out of the
// engine, as Resolve does with its losers. The conflict groups it was a
// member of go with it: the re-run that follows re-evaluates the rest of
// its component.
func (e *Engine) dropDeferred(d *deferredCand) {
	for _, k := range d.dirty {
		delete(e.dirty, k)
	}
	for _, c := range d.groups {
		delete(e.groups, c)
	}
	delete(e.deferredCands, d.cand.Txn.ID)
}

// Reconcile runs ReconcileUpdates (Figure 4) for the next reconciliation:
// fresh holds the newly relevant fully-trusted transactions fetched from the
// update store; previously deferred transactions are reconsidered
// automatically. It returns the decisions made and updates the instance,
// the decided table, and the soft state.
func (e *Engine) Reconcile(fresh []*Candidate) (*Result, error) {
	return e.reconcile(fresh, nil)
}

// reconcile is ReconcileUpdates over the fresh candidates and the carried
// deferred ones, on a pooled run scratch. The carried ones are every
// deferred candidate (carry nil), or (Resolve) those carry reports, a
// union of whole components that holds every unsettled one: the deferred
// candidates left out keep their entries, dirty keys and conflict groups,
// which is what running them again would rebuild.
func (e *Engine) reconcile(fresh []*Candidate, carry func(*deferredCand) bool) (*Result, error) {
	rs := runPool.Get().(*runScratch)
	defer rs.release()
	return e.run(rs, fresh, carry)
}

// run is reconcile on the scratch rs, which it leaves for release.
func (e *Engine) run(rs *runScratch, fresh []*Candidate, carry func(*deferredCand) bool) (*Result, error) {
	for _, d := range e.deferredCands {
		if carry == nil || carry(d) {
			rs.carried = append(rs.carried, d)
		}
	}
	carried := rs.carried
	e.recno++
	res := &Result{Recno: e.recno}
	res.Stats.DeferredCarried = len(carried)

	// Line 1: the undecided fully trusted transactions: new arrivals plus
	// carried-over deferred ones. The states never move: the arena has
	// room for every candidate before the first is added.
	rs.states = slices.Grow(rs.states, len(fresh)+len(carried))
	addCand := func(c *Candidate, carried *deferredCand) {
		if c.Priority <= 0 {
			return // untrusted: never a root
		}
		if e.decided.get(c.Txn.ID) != DecisionNone {
			return // already decided
		}
		rs.states = append(rs.states, candidateState{cand: c, carried: carried})
		rs.order = append(rs.order, &rs.states[len(rs.states)-1])
	}
	for _, d := range carried {
		addCand(&d.cand, d)
	}
	for _, c := range fresh {
		addCand(c, nil)
	}
	order := rs.order
	// A transaction has one position in the published order, so copies of
	// a candidate sort next to each other, the first added first; the
	// first is kept.
	slices.SortStableFunc(order, func(a, b *candidateState) int {
		x, y := a.cand.Txn, b.cand.Txn
		if c := cmp.Compare(x.Order, y.Order); c != 0 {
			return c
		}
		return compareTxnIDs(x.ID, y.ID)
	})
	order = slices.CompactFunc(order, func(a, b *candidateState) bool {
		return a.cand.Txn.ID == b.cand.Txn.ID
	})
	rs.order = order // CompactFunc zeroed the tail
	res.Stats.Candidates = len(order)

	// Complete the per-update encoding caches once, key projections included,
	// before the stages below read them: a candidate a remote client decoded
	// arrives with only its tuple encodings seeded, and an update with no
	// cached key computes it again on every read. (Stores that share
	// transactions across peers warm them at ingestion; this pass is then a
	// cheap no-op that covers direct users of the engine API.)
	for _, st := range order {
		st.cand.Txn.PrecomputeEncodings(e.schema)
		for _, x := range st.cand.Ext {
			x.PrecomputeEncodings(e.schema)
		}
	}

	// The peer's own delta for this recno, used by CheckState line 7.
	ownDelta, err := rs.flattenList(e.schema, nil, e.ownSince)
	if err != nil {
		// A peer's own applied transactions always flatten; failure here
		// indicates a bug upstream.
		return nil, fmt.Errorf("core: flatten own delta: %v", err)
	}
	// One index over it serves every candidate: CheckState only probes it.
	var ownIdx *conflictIndex
	if len(ownDelta) > 0 {
		own := rs.index.newIndex(e.schema, ownDelta)
		ownIdx = &own
	}

	// Lines 5-8: flattened update extensions + CheckState. Each candidate is
	// independent: it reads only the engine's decided table, dirty keys and
	// instance, none of which this stage changes.
	start := time.Now()
	for _, st := range order {
		ext := e.filterApplied(st.cand.Ext, st.cand.Txn)
		st.upEx.init(e.schema, e.inst, rs, st.cand.Txn.ID, ext, st.cand.Priority)
		st.decision = e.checkState(&st.upEx, ownIdx, st.carried != nil)
		st.shortcut = st.carried == nil && st.decision == DecisionDefer
		res.Stats.ExtensionTxns += len(st.upEx.Source)
		res.Stats.FlattenedOps += len(st.upEx.Operation)
	}
	res.Stats.CheckNanos = time.Since(start).Nanoseconds()

	// Line 9: FindConflicts over the flattened extensions.
	start = time.Now()
	pairs := e.findConflicts(rs, order, &res.Stats)
	res.Stats.ConflictNanos = time.Since(start).Nanoseconds()

	// Lines 10-12: DoGroup per priority, in decreasing order. Sequential:
	// decisions at one priority feed the next.
	start = time.Now()
	rs.prios = resized(rs.prios, len(order))
	for i, st := range order {
		rs.prios[i] = st.upEx.Priority
	}
	slices.Sort(rs.prios)
	prios := slices.Compact(rs.prios)
	for i := len(prios) - 1; i >= 0; i-- {
		rs.doGroup(prios[i], order)
	}
	res.Stats.GroupNanos = time.Since(start).Nanoseconds()

	// Lines 13-19: apply accepted extensions in global order, each
	// recomputed without what is applied by now, then record the run's
	// rejections.
	//
	// A transaction rejected standalone earlier in this run (e.g. its own
	// flattened chain is instance-incompatible) may still ride along as the
	// superseded prefix of an accepted chain — the §4.2 least-interaction
	// example. Applying the chain rescinds such same-run rejections, so a
	// rejection is recorded only if nothing applied the transaction (the
	// decided table keeps the accept); rejections from earlier
	// reconciliations are final (CheckState already rejected any dependent
	// root before it reached this loop).
	start = time.Now()
	accepted := rs.accepted
	for _, st := range order {
		if st.decision != DecisionAccept {
			continue
		}
		ext, flat, ferr := e.applicable(st)
		if ferr != nil {
			st.decision = DecisionReject
			continue
		}
		if !e.inst.compatibleAll(flat) {
			// Defensive: Proposition 1 says this cannot happen for
			// greedy processing; reject rather than corrupt the
			// instance if it ever does.
			st.decision = DecisionReject
			continue
		}
		for _, u := range flat {
			e.inst.applyUnchecked(u)
		}
		e.noteProducers(ext)
		res.Stats.AppliedUpdates += len(flat)
		for _, x := range ext {
			e.decided.decide(x.ID, DecisionAccept)
			accepted = append(accepted, x.ID)
		}
	}
	rs.accepted = accepted
	if len(accepted) > 0 {
		res.Accepted = slices.Clone(accepted)
	}
	rejected := rs.rejected
	for _, st := range order {
		if id := st.cand.Txn.ID; st.decision == DecisionReject && e.decided.decide(id, DecisionReject) {
			rejected = append(rejected, id)
		}
	}
	rs.rejected = rejected
	if len(rejected) > 0 {
		res.Rejected = slices.Clone(rejected)
		slices.SortFunc(res.Rejected, compareTxnIDs)
	}
	res.Stats.ApplyNanos = time.Since(start).Nanoseconds()

	// Lines 20-21: UpdateSoftState for the deferred set. A transaction
	// that was applied as part of an accepted dependent's extension in
	// this very run (its conflicting intermediate state was superseded —
	// "least interaction") is no longer deferred.
	start = time.Now()
	for _, st := range order {
		st.deferred = st.decision == DecisionDefer && e.decided.get(st.cand.Txn.ID) == DecisionNone
	}
	e.updateSoftState(rs, order, carried, pairs)
	if len(rs.deferred) > 0 {
		res.Deferred = make([]TxnID, len(rs.deferred))
		for i, st := range rs.deferred {
			res.Deferred[i] = st.cand.Txn.ID
		}
	}
	res.Stats.DirtyKeys = len(e.dirty)
	res.Stats.SoftStateNanos = time.Since(start).Nanoseconds()
	e.ownSince = nil
	e.unsettled = false
	return res, nil
}

// filterApplied returns the extension with already-applied transactions
// removed; the root is always kept. An extension that loses nothing is
// returned as it is, with no room to grow: candidates are read-only.
func (e *Engine) filterApplied(ext []*Transaction, root *Transaction) []*Transaction {
	var out []*Transaction // nil while nothing is removed
	rootSeen := false
	for i, x := range ext {
		keep := x.ID == root.ID
		if keep {
			rootSeen = true
		} else {
			keep = e.decided.get(x.ID) != DecisionAccept
		}
		switch {
		case keep && out != nil:
			out = append(out, x)
		case !keep && out == nil:
			out = make([]*Transaction, i, len(ext))
			copy(out, ext[:i])
		}
	}
	if out == nil {
		out = ext[:len(ext):len(ext)]
	}
	if !rootSeen {
		out = append(out, root)
		sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	}
	return out
}

// applicable returns what applying an accepted candidate applies: its
// extension without the transactions applied by now, and that list's
// operation flattened on the instance as it is now. A list that lost
// nothing since CheckState is the update extension's source (a
// one-transaction source always is, since it holds only the root, which
// stays), and its operation is reused unless flattening it read the
// instance then or would now: an accepted candidate applied before it may
// have inserted or removed a value it inserts.
func (e *Engine) applicable(st *candidateState) ([]*Transaction, []Update, error) {
	upEx := &st.upEx
	ext := upEx.Source
	if len(ext) > 1 {
		ext = e.filterApplied(st.cand.Ext, st.cand.Txn)
	}
	if upEx.Malformed() == nil && slices.Equal(ext, upEx.Source) && upEx.base == nil && !readsBase(e.inst, ext) {
		return ext, upEx.Operation, nil
	}
	flat, err := upEx.run.flattenList(e.schema, e.inst, ext)
	return ext, flat, err
}

// checkState implements CheckState of Figure 5: it classifies one update
// extension against the dirty value set, the decided transactions, the
// materialized instance, and the peer's own delta for this reconciliation
// (own is the index over it, nil when the delta is empty).
//
// Carried candidates — the previously deferred transactions being
// reconsidered by this run — skip the dirty-value and deferred-dependency
// checks: every deferred transaction is itself a candidate again, so their
// mutual conflicts are re-detected by FindConflicts/DoGroup, and blocking
// them on their own dirty marks would make deferral permanent.
func (e *Engine) checkState(upEx *UpdateExtension, own *conflictIndex, carried bool) Decision {
	if !carried {
		// Line 1: anything touching a dirty value is deferred so that a
		// previously deferred transaction can always be accepted later.
		if len(e.dirty) > 0 {
			for _, k := range upEx.TouchedKeys(e.schema) {
				if e.dirty[k] {
					return DecisionDefer
				}
			}
		}
		// Dependency on a deferred transaction defers (the dirty check
		// catches this in almost all cases; this is the explicit guarantee).
		for _, id := range upEx.IDs {
			if id == upEx.Root {
				continue
			}
			if _, isDeferred := e.deferredCands[id]; isDeferred {
				return DecisionDefer
			}
		}
	}
	// Line 3: an extension containing an already rejected transaction is
	// rejected.
	for _, id := range upEx.IDs {
		if e.decided.get(id) == DecisionReject {
			return DecisionReject
		}
	}
	// A malformed (un-flattenable) extension can never be applied.
	if upEx.Malformed() != nil {
		return DecisionReject
	}
	// Line 5: incompatible with the instance at recno.
	if !e.inst.compatibleAll(upEx.Operation) {
		return DecisionReject
	}
	// Line 7: conflicts with the peer's own delta — the participant always
	// picks its own version first.
	if own != nil && own.conflictsAny(upEx.Operation) {
		return DecisionReject
	}
	return DecisionAccept
}

// packPair packs an ordered candidate-index pair (i < j) into one map key;
// candidate counts are far below 2³², so 32 bits per side suffice.
func packPair(i, j int) uint64 { return uint64(uint32(i))<<32 | uint64(uint32(j)) }

func unpackPair(p uint64) (i, j int) { return int(p >> 32), int(uint32(p)) }

// enumeratePairs returns the unique candidate pairs that share a touched
// key, packed via packPair, pruning with an inverted index from touched
// keys to candidates so only potentially conflicting pairs are emitted.
// The order is deterministic — ascending in i, and for fixed i following
// the candidate's TouchedKeys/posting-list order (NOT ascending j) — which
// is what keeps downstream results identical across runs. The index is
// one array of posting lists, each ascending, over the touched keys
// numbered in first-touch order; a pair (i, j) is new while the mark of j
// is not i's, since pairs of one i are all emitted together.
func (rs *runScratch) enumeratePairs(schema *Schema, states []*candidateState) []uint64 {
	refs := rs.refs[:0] // each candidate's touched keys by number, in order
	for _, st := range states {
		for _, k := range st.upEx.TouchedKeys(schema) {
			id, ok := rs.keyIDs[k]
			if !ok {
				id = int32(len(rs.keyIDs))
				rs.keyIDs[k] = id
			}
			refs = append(refs, id)
		}
	}
	rs.refs = refs
	nkeys := len(rs.keyIDs)
	for _, st := range states {
		for _, k := range st.upEx.TouchedKeys(schema) {
			delete(rs.keyIDs, k)
		}
	}

	// Key id's posting list is post[pos[id]:pos[id+1]]: count, sum to
	// each list's end, then fill backwards, the last candidate first.
	rs.pos = resized(rs.pos, nkeys+1)
	pos := rs.pos
	for _, id := range refs {
		pos[id]++
	}
	for id := 1; id < nkeys; id++ {
		pos[id] += pos[id-1]
	}
	pos[nkeys] = int32(len(refs))
	rs.post = resized(rs.post, len(refs))
	post := rs.post
	r := len(refs)
	for i := len(states) - 1; i >= 0; i-- {
		n := len(states[i].upEx.touched)
		for _, id := range refs[r-n : r] {
			pos[id]--
			post[pos[id]] = int32(i)
		}
		r -= n
	}

	// r is 0 again: the walk below goes forwards.
	rs.last = resized(rs.last, len(states))
	last := rs.last // last[j] = i+1 once (i, j) is emitted
	pairs := rs.pairs[:0]
	for i, st := range states {
		n := len(st.upEx.touched)
		for _, id := range refs[r : r+n] {
			for _, j := range post[pos[id]:pos[id+1]] {
				if int(j) <= i || last[j] == int32(i+1) {
					continue
				}
				last[j] = int32(i + 1)
				pairs = append(pairs, packPair(i, int(j)))
			}
		}
		r += n
	}
	rs.pairs = pairs
	return pairs
}

// findConflicts implements FindConflicts of Figure 5 over the candidates'
// flattened update extensions, skipping pairs where one extension subsumes
// the other; it records each candidate's conflicting candidates in its
// state. Pairs are enumerated deterministically (enumeratePairs) and
// checked in that order. Every extension is indexed at most once per run,
// and only if it is the indexed side of some pair with two updates or more
// (the memo is lazy): most candidates of a quiet run are in none, and an
// index built for them would be pure allocation.
func (e *Engine) findConflicts(rs *runScratch, order []*candidateState, stats *ReconcileStats) pairConflicts {
	if len(order) < 2 {
		return pairConflicts{}
	}
	pc := pairConflicts{pairs: rs.enumeratePairs(e.schema, order)}
	stats.ConflictPairs += len(pc.pairs)
	if len(pc.pairs) == 0 {
		return pc
	}
	rs.found = resized(rs.found, len(pc.pairs))
	pc.found = rs.found
	// Each pair's conflicts are a window of one buffer. A window taken
	// before the buffer grew reads the old array, which keeps what it held.
	buf := rs.foundBuf
	hits := rs.hits[:0] // the conflicting, non-subsuming pairs
	for pi, p := range pc.pairs {
		i, j := unpackPair(p)
		si, sj := &order[i].upEx, &order[j].upEx
		from := len(buf)
		buf = si.appendConflicts(buf, e.schema, sj)
		if len(buf) == from {
			continue
		}
		pc.found[pi] = buf[from:len(buf):len(buf)]
		if si.Subsumes(sj) || sj.Subsumes(si) {
			continue
		}
		stats.ConflictsFound++
		hits = append(hits, int32(pi))
	}
	rs.foundBuf = buf
	rs.hits = hits
	rs.linkConflicts(order, pc.pairs, hits)
	return pc
}

// linkConflicts gives each candidate the candidates it conflicts with, in
// the order of the pairs hits lists: counted first, then appended into a
// window of one buffer sized to the count.
func (rs *runScratch) linkConflicts(order []*candidateState, pairs []uint64, hits []int32) {
	if len(hits) == 0 {
		return
	}
	rs.counts = resized(rs.counts, len(order))
	counts := rs.counts
	for _, pi := range hits {
		i, j := unpackPair(pairs[pi])
		counts[i]++
		counts[j]++
	}
	rs.conflicts = resized(rs.conflicts, 2*len(hits))
	off := 0
	for i, n := range counts {
		order[i].conflicts = rs.conflicts[off : off : off+int(n)]
		off += int(n)
	}
	for _, pi := range hits {
		i, j := unpackPair(pairs[pi])
		si, sj := order[i], order[j]
		si.conflicts = append(si.conflicts, sj)
		sj.conflicts = append(sj.conflicts, si)
	}
}

// doGroup implements DoGroup of Figure 5 for one priority level: reject
// members that conflict with higher-priority accepted transactions, defer
// members that conflict with higher-priority deferred ones, then defer every
// conflicting pair within the group.
func (rs *runScratch) doGroup(prio int, order []*candidateState) {
	grp := rs.grp
	for _, st := range order {
		if st.upEx.Priority == prio && st.decision != DecisionReject {
			grp = append(grp, st)
		}
	}
	rs.grp = grp
	// Lines 4-12: interactions with strictly higher priorities.
	kept := grp[:0]
	for _, st := range grp {
		rejected := false
		for _, c := range st.conflicts {
			if c.upEx.Priority <= prio {
				continue
			}
			switch c.decision {
			case DecisionAccept:
				st.decision = DecisionReject
				rejected = true
			case DecisionDefer:
				st.decision = DecisionDefer
			}
			if rejected {
				break
			}
		}
		if !rejected {
			kept = append(kept, st)
		}
	}
	grp = kept
	// Lines 13-17: conflicts within the group defer both sides.
	for _, st := range grp {
		for _, c := range st.conflicts {
			if c.upEx.Priority != prio || c.decision == DecisionReject {
				continue
			}
			st.decision = DecisionDefer
			c.decision = DecisionDefer
		}
	}
	rs.grp = zeroed(rs.grp)
}
