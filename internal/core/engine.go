package core

import (
	"fmt"
	"sort"
	"time"
)

// Engine is the client-centric reconciliation engine for one participant.
// It owns the participant's materialized instance, its applied/rejected
// transaction sets, and the reconstructable soft state (deferred
// transactions, dirty values, conflict groups). The update store feeds it
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

	applied  TxnSet
	rejected TxnSet

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

	// producers maps each tuple value in the instance to the transaction
	// that produced it (provenance; see provenance.go).
	producers map[tupleKey]TxnID
	// localAntes records the antecedent sets of the peer's own
	// transactions, computed at creation time for publishing.
	localAntes map[TxnID][]TxnID

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
		applied:       make(TxnSet),
		rejected:      make(TxnSet),
		deferredCands: make(map[TxnID]*deferredCand),
		dirty:         make(map[tupleKey]bool),
		groups:        make(map[Conflict]*ConflictGroup),
		producers:     make(map[tupleKey]TxnID),
		localAntes:    make(map[TxnID][]TxnID),
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
		p := TxnPriority(e.trust, d.cand.Txn)
		if p == d.cand.Priority {
			continue
		}
		// Candidates may be shared with the store layer; re-price a copy.
		cc := *d.cand
		cc.Priority = p
		d.cand = &cc
		changed++
	}
	return changed
}

// Recno returns the engine's last reconciliation number.
func (e *Engine) Recno() int { return e.recno }

// Applied reports whether the peer has applied the transaction.
func (e *Engine) Applied(id TxnID) bool { return e.applied.Has(id) }

// Rejected reports whether the peer has rejected the transaction.
func (e *Engine) Rejected(id TxnID) bool { return e.rejected.Has(id) }

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
// to be published.
func (e *Engine) NewLocalTransaction(updates ...Update) (*Transaction, error) {
	x := NewTransaction(TxnID{Origin: e.peer, Seq: e.nextSeq}, updates...)
	if err := x.Validate(e.schema); err != nil {
		return nil, err
	}
	if err := e.inst.CompatibleAll(x.Updates); err != nil {
		return nil, fmt.Errorf("core: local transaction %s: %w", x.ID, err)
	}
	e.localAntes[x.ID] = e.antecedentIDs(x)
	for _, u := range x.Updates {
		e.inst.applyUnchecked(u)
	}
	e.noteProducers([]*Transaction{x})
	e.nextSeq++
	e.applied.Add(x.ID)
	e.ownSince = append(e.ownSince, x)
	e.unsettled = true
	return x, nil
}

// LocalAntecedents returns the antecedent set computed when the peer's own
// transaction was created; the publisher ships it to the update store.
func (e *Engine) LocalAntecedents(id TxnID) []TxnID { return e.localAntes[id] }

// candidateState pairs a candidate with its per-reconciliation soft state.
type candidateState struct {
	cand     *Candidate
	upEx     *UpdateExtension
	decision Decision
	carried  bool // previously deferred, reconsidered this run
	deferred bool // left deferred by this run (set before UpdateSoftState)
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
// state in place and a run which does can take exactly it back out.
type deferredCand struct {
	cand *Candidate
	// dirty are the keys it keeps dirty; groups the conflict groups it is a
	// member of. Candidates of different components share neither.
	dirty  []tupleKey
	groups []Conflict
	// comp identifies its component at its last evaluation (candidates with
	// different comp are not linked, see markComponents); settled reports
	// that evaluating the component again would decide nothing.
	comp    uint64
	settled bool
}

// dropDeferred takes a deferred candidate and its soft state out of the
// engine. The conflict groups it was a member of go with it: a run that
// drops one member of a component drops or re-evaluates all of them.
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
// the applied/rejected sets, and the soft state.
func (e *Engine) Reconcile(fresh []*Candidate) (*Result, error) {
	carried := make([]*deferredCand, 0, len(e.deferredCands))
	for _, d := range e.deferredCands {
		carried = append(carried, d)
	}
	return e.reconcile(fresh, carried)
}

// reconcile is ReconcileUpdates over the fresh candidates and the carried
// deferred ones. carried is every deferred candidate, or (Resolve) a union
// of whole components that holds every unsettled one: the deferred
// candidates left out keep their entries, dirty keys and conflict groups,
// which is what running them again would rebuild.
func (e *Engine) reconcile(fresh []*Candidate, carried []*deferredCand) (*Result, error) {
	e.recno++
	res := &Result{Recno: e.recno}
	res.Stats.DeferredCarried = len(carried)

	// Line 1: the undecided fully trusted transactions: new arrivals plus
	// carried-over deferred ones.
	states := make(map[TxnID]*candidateState, len(fresh)+len(carried))
	var order []*candidateState
	addCand := func(c *Candidate, carried bool) {
		if c.Priority <= 0 {
			return // untrusted: never a root
		}
		if e.applied.Has(c.Txn.ID) || e.rejected.Has(c.Txn.ID) {
			return // already decided
		}
		if _, dup := states[c.Txn.ID]; dup {
			return
		}
		st := &candidateState{cand: c, carried: carried}
		states[c.Txn.ID] = st
		order = append(order, st)
	}
	for _, d := range carried {
		addCand(d.cand, true)
	}
	for _, c := range fresh {
		addCand(c, false)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i].cand.Txn, order[j].cand.Txn
		if a.Order != b.Order {
			return a.Order < b.Order
		}
		return a.ID.Less(b.ID)
	})
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
	ownDelta, err := Flatten(e.schema, UpdateFootprint(e.ownSince))
	if err != nil {
		// A peer's own applied transactions always flatten; failure here
		// indicates a bug upstream.
		return nil, fmt.Errorf("core: flatten own delta: %v", err)
	}
	// One index over it serves every candidate: CheckState only probes it.
	var ownIdx *conflictIndex
	if len(ownDelta) > 0 {
		ownIdx = newConflictIndex(e.schema, ownDelta)
	}

	// Lines 5-8: flattened update extensions + CheckState. Each candidate is
	// independent: it reads only the engine's decided sets, dirty keys and
	// instance, none of which this stage changes.
	start := time.Now()
	for _, st := range order {
		ext := e.filterApplied(st.cand.Ext, st.cand.Txn)
		st.upEx = NewUpdateExtension(e.schema, st.cand.Txn.ID, ext, st.cand.Priority)
		st.decision = e.checkState(st.upEx, ownIdx, st.carried)
		res.Stats.ExtensionTxns += len(st.upEx.Source)
		res.Stats.FlattenedOps += len(st.upEx.Operation)
	}
	res.Stats.CheckNanos = time.Since(start).Nanoseconds()

	// Line 9: FindConflicts over the flattened extensions.
	start = time.Now()
	conflicts, pairs := e.findConflicts(order, &res.Stats)
	res.Stats.ConflictNanos = time.Since(start).Nanoseconds()

	// Lines 10-12: DoGroup per priority, in decreasing order. Sequential:
	// decisions at one priority feed the next.
	start = time.Now()
	prios := map[int]bool{}
	for _, st := range order {
		prios[st.upEx.Priority] = true
	}
	sortedPrios := make([]int, 0, len(prios))
	for p := range prios {
		sortedPrios = append(sortedPrios, p)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sortedPrios)))
	for _, p := range sortedPrios {
		e.doGroup(p, order, conflicts, states)
	}
	res.Stats.GroupNanos = time.Since(start).Nanoseconds()

	// Lines 13-19: record decisions and apply accepted extensions in global
	// order, recomputing each extension against the Used set.
	//
	// A transaction rejected standalone earlier in this run (e.g. its own
	// flattened chain is instance-incompatible) may still ride along as the
	// superseded prefix of an accepted chain — the §4.2 least-interaction
	// example. Applying the chain rescinds such same-run rejections so the
	// final decision sets stay disjoint; rejections from earlier
	// reconciliations are final (CheckState already rejected any dependent
	// root before it reached this loop).
	start = time.Now()
	used := make(TxnSet)
	runRejected := make(TxnSet)
	reject := func(id TxnID) {
		runRejected.Add(id)
		e.rejected.Add(id)
	}
	for _, st := range order {
		switch st.decision {
		case DecisionAccept:
			ext := e.filterAppliedOrUsed(st.cand.Ext, st.cand.Txn, used)
			flat, ferr := Flatten(e.schema, UpdateFootprint(ext))
			if ferr != nil {
				st.decision = DecisionReject
				reject(st.cand.Txn.ID)
				continue
			}
			if cerr := e.inst.CompatibleAll(flat); cerr != nil {
				// Defensive: Proposition 1 says this cannot happen for
				// greedy processing; reject rather than corrupt the
				// instance if it ever does.
				st.decision = DecisionReject
				reject(st.cand.Txn.ID)
				continue
			}
			for _, u := range flat {
				e.inst.applyUnchecked(u)
			}
			e.noteProducers(ext)
			res.Stats.AppliedUpdates += len(flat)
			for _, x := range ext {
				used.Add(x.ID)
				e.applied.Add(x.ID)
				res.Accepted = append(res.Accepted, x.ID)
				if runRejected.Has(x.ID) {
					delete(runRejected, x.ID)
					delete(e.rejected, x.ID)
				}
			}
		case DecisionReject:
			reject(st.cand.Txn.ID)
		}
	}
	res.Rejected = runRejected.Sorted()
	res.Stats.ApplyNanos = time.Since(start).Nanoseconds()

	// Lines 20-21: UpdateSoftState for the deferred set. A transaction
	// that was applied as part of an accepted dependent's extension in
	// this very run (its conflicting intermediate state was superseded —
	// "least interaction") is no longer deferred.
	start = time.Now()
	for _, st := range order {
		id := st.cand.Txn.ID
		st.deferred = st.decision == DecisionDefer && !e.applied.Has(id) && !e.rejected.Has(id)
	}
	e.updateSoftState(order, carried, pairs)
	res.Deferred = e.deferredInOrder()
	if len(e.groups) > 0 {
		res.Groups = e.ConflictGroups()
	}
	res.Stats.DirtyKeys = len(e.dirty)
	res.Stats.SoftStateNanos = time.Since(start).Nanoseconds()
	e.ownSince = nil
	e.unsettled = false
	return res, nil
}

// deferredInOrder lists the deferred transactions in the order runs
// consider candidates (publication order, then ID); nil when there are none.
func (e *Engine) deferredInOrder() []TxnID {
	if len(e.deferredCands) == 0 {
		return nil
	}
	txns := make([]*Transaction, 0, len(e.deferredCands))
	for _, d := range e.deferredCands {
		txns = append(txns, d.cand.Txn)
	}
	SortTxns(txns)
	out := make([]TxnID, len(txns))
	for i, x := range txns {
		out[i] = x.ID
	}
	return out
}

// filterApplied returns the extension with already-applied transactions
// removed; the root is always kept.
func (e *Engine) filterApplied(ext []*Transaction, root *Transaction) []*Transaction {
	out := make([]*Transaction, 0, len(ext))
	rootSeen := false
	for _, x := range ext {
		if x.ID == root.ID {
			rootSeen = true
			out = append(out, x)
			continue
		}
		if !e.applied.Has(x.ID) {
			out = append(out, x)
		}
	}
	if !rootSeen {
		out = append(out, root)
		sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	}
	return out
}

func (e *Engine) filterAppliedOrUsed(ext []*Transaction, root *Transaction, used TxnSet) []*Transaction {
	out := make([]*Transaction, 0, len(ext))
	rootSeen := false
	for _, x := range ext {
		if x.ID == root.ID {
			rootSeen = true
			out = append(out, x)
			continue
		}
		if !e.applied.Has(x.ID) && !used.Has(x.ID) {
			out = append(out, x)
		}
	}
	if !rootSeen {
		out = append(out, root)
		sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	}
	return out
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
		for id := range upEx.IDs {
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
	for id := range upEx.IDs {
		if e.rejected.Has(id) {
			return DecisionReject
		}
	}
	// A malformed (un-flattenable) extension can never be applied.
	if upEx.Malformed() != nil {
		return DecisionReject
	}
	// Line 5: incompatible with the instance at recno.
	if err := e.inst.CompatibleAll(upEx.Operation); err != nil {
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
// is what keeps downstream results identical across runs; dedup uses a
// packed-uint64 set rather than a map[[2]int]bool.
func enumeratePairs(schema *Schema, states []*candidateState) []uint64 {
	byKey := make(map[tupleKey][]int32, len(states))
	for i, st := range states {
		for _, k := range st.upEx.TouchedKeys(schema) {
			byKey[k] = append(byKey[k], int32(i))
		}
	}
	pairSeen := make(map[uint64]struct{})
	var pairs []uint64
	for i, st := range states {
		for _, k := range st.upEx.TouchedKeys(schema) {
			for _, j32 := range byKey[k] {
				j := int(j32)
				if j <= i {
					continue
				}
				p := packPair(i, j)
				if _, dup := pairSeen[p]; dup {
					continue
				}
				pairSeen[p] = struct{}{}
				pairs = append(pairs, p)
			}
		}
	}
	return pairs
}

// findConflicts implements FindConflicts of Figure 5 over the candidates'
// flattened update extensions, skipping pairs where one extension subsumes
// the other. Pairs are enumerated deterministically (enumeratePairs) and
// checked in that order. Every extension is indexed at most once per run,
// and only if it is the indexed side of some pair (the memo is lazy): most
// candidates of a quiet run are in none, and an index built for them would
// be pure allocation.
func (e *Engine) findConflicts(order []*candidateState, stats *ReconcileStats) (map[TxnID][]*candidateState, pairConflicts) {
	conflicts := make(map[TxnID][]*candidateState)
	if len(order) < 2 {
		return conflicts, pairConflicts{}
	}
	pc := pairConflicts{pairs: enumeratePairs(e.schema, order)}
	stats.ConflictPairs += len(pc.pairs)
	if len(pc.pairs) == 0 {
		return conflicts, pc
	}
	pc.found = make([][]Conflict, len(pc.pairs))
	for pi, p := range pc.pairs {
		i, j := unpackPair(p)
		si, sj := order[i], order[j]
		cs := si.upEx.Conflicts(e.schema, sj.upEx)
		if len(cs) == 0 {
			continue
		}
		pc.found[pi] = cs
		if si.upEx.Subsumes(sj.upEx) || sj.upEx.Subsumes(si.upEx) {
			continue
		}
		stats.ConflictsFound++
		conflicts[si.cand.Txn.ID] = append(conflicts[si.cand.Txn.ID], sj)
		conflicts[sj.cand.Txn.ID] = append(conflicts[sj.cand.Txn.ID], si)
	}
	return conflicts, pc
}

// doGroup implements DoGroup of Figure 5 for one priority level: reject
// members that conflict with higher-priority accepted transactions, defer
// members that conflict with higher-priority deferred ones, then defer every
// conflicting pair within the group.
func (e *Engine) doGroup(prio int, order []*candidateState, conflicts map[TxnID][]*candidateState, states map[TxnID]*candidateState) {
	var grp []*candidateState
	for _, st := range order {
		if st.upEx.Priority == prio && st.decision != DecisionReject {
			grp = append(grp, st)
		}
	}
	// Lines 4-12: interactions with strictly higher priorities.
	kept := grp[:0]
	for _, st := range grp {
		rejected := false
		for _, c := range conflicts[st.cand.Txn.ID] {
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
		for _, c := range conflicts[st.cand.Txn.ID] {
			if c.upEx.Priority != prio || c.decision == DecisionReject {
				continue
			}
			if states[c.cand.Txn.ID] == nil {
				continue
			}
			st.decision = DecisionDefer
			c.decision = DecisionDefer
		}
	}
}
