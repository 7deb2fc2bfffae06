package core

import (
	"slices"
	"sync"
)

// runScratch holds the working state of one reconciliation run (see
// Engine.reconcile). Nothing in it outlives the run: what does — the
// Result, each deferred candidate with its dirty keys, conflict groups and
// their options — gets an exact-size allocation of its own, made only when
// the run did not reproduce what the engine holds. Instances are
// pooled, in the style of flattenScratch: every candidate of every run
// would otherwise allocate its state, its update extension, its touched
// keys and its share of the pair and component maps, and a deferred
// transaction is a candidate again on every run until it is decided.
//
// Slices are reused and zeroed when the run ends, so an idle scratch pins
// no candidate; maps are emptied by deleting the keys the run wrote.
type runScratch struct {
	// states holds the run's candidate states, each with its update
	// extension; order points into it. carried are the deferred candidates
	// the run reconsiders.
	states  []candidateState
	order   []*candidateState
	carried []*deferredCand

	// Every extension's IDs (beyond one transaction), TouchedKeys and
	// conflict index are carved out of these; seen dedups the touched keys
	// of a multi-update operation.
	ids     []TxnID
	touched []tupleKey
	// footprint is the update footprint a flatten reads (see flattenList).
	footprint []Update
	seen      map[tupleKey]struct{}
	index     indexTable

	// FindConflicts: enumeratePairs' key numbering, posting lists and
	// per-candidate pair marks; the pairs, their conflicts (windows of
	// foundBuf), the pairs that link two candidates (hits) and the windows
	// of conflicts that back each state's conflicts.
	keyIDs    map[tupleKey]int32
	refs      []int32
	pos       []int32
	post      []int32
	last      []int32
	pairs     []uint64
	found     [][]Conflict
	foundBuf  []Conflict
	hits      []int32
	counts    []int32
	conflicts []*candidateState

	// DoGroup, the apply loop and UpdateSoftState; groupOf and vals back
	// each deferred state's groups and their values, touch each group
	// member's updates on its conflicted value, and opts and optTxns the
	// options of the group being made.
	prios     []int
	grp       []*candidateState
	accepted  []TxnID
	rejected  []TxnID
	deferred  []*candidateState
	trimmed   []Update
	members   []groupMember
	groupOf   []Conflict
	vals      []tupleKey
	touch     []*Update
	opts      []optionSpan
	optTxns   []TxnID
	parent    []int32
	linkOf    map[tupleKey]int32
	linkKeys  []tupleKey
	unsettled []bool
}

var runPool = sync.Pool{New: func() any { return newRunScratch() }}

// newRunScratch returns an empty scratch. NewUpdateExtension gives each
// extension it builds one of its own, which it keeps.
func newRunScratch() *runScratch {
	return &runScratch{
		seen:   make(map[tupleKey]struct{}),
		keyIDs: make(map[tupleKey]int32),
		linkOf: make(map[tupleKey]int32),
	}
}

// reset zeroes what the run used and empties the maps, for the next run.
func (rs *runScratch) reset() {
	rs.states = zeroed(rs.states)
	rs.order = zeroed(rs.order)
	rs.carried = zeroed(rs.carried)
	rs.ids = zeroed(rs.ids)
	rs.touched = zeroed(rs.touched)
	rs.footprint = zeroed(rs.footprint)
	rs.index.reset()
	rs.refs = zeroed(rs.refs)
	rs.pos = zeroed(rs.pos)
	rs.post = zeroed(rs.post)
	rs.last = zeroed(rs.last)
	rs.pairs = zeroed(rs.pairs)
	rs.found = zeroed(rs.found)
	rs.foundBuf = zeroed(rs.foundBuf)
	rs.hits = zeroed(rs.hits)
	rs.counts = zeroed(rs.counts)
	rs.conflicts = zeroed(rs.conflicts)
	rs.prios = zeroed(rs.prios)
	rs.grp = zeroed(rs.grp)
	rs.accepted = zeroed(rs.accepted)
	rs.rejected = zeroed(rs.rejected)
	rs.deferred = zeroed(rs.deferred)
	rs.trimmed = zeroed(rs.trimmed)
	rs.members = zeroed(rs.members)
	rs.groupOf = zeroed(rs.groupOf)
	rs.vals = zeroed(rs.vals)
	rs.touch = zeroed(rs.touch)
	rs.opts = zeroed(rs.opts)
	rs.optTxns = zeroed(rs.optTxns)
	rs.parent = zeroed(rs.parent)
	rs.linkKeys = zeroed(rs.linkKeys)
	rs.unsettled = zeroed(rs.unsettled)
	// The maps are emptied as they are used; this covers a run that a
	// panic cut short.
	clear(rs.seen)
	clear(rs.keyIDs)
	clear(rs.linkOf)
}

// release resets the scratch and returns it to the pool.
func (rs *runScratch) release() {
	rs.reset()
	runPool.Put(rs)
}

// zeroed returns s emptied, with what it held cleared.
func zeroed[E any](s []E) []E {
	clear(s)
	return s[:0]
}

// resized returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resized[E any](s []E, n int) []E {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// txnIDs returns room for n transaction IDs, a window of the run's ID
// buffer.
func (rs *runScratch) txnIDs(n int) []TxnID {
	from := len(rs.ids)
	rs.ids = slices.Grow(rs.ids, n)[:from+n]
	return rs.ids[from : from+n : from+n]
}

// flattenList returns flattenOn(s, base, …) of the list's update
// footprint, which it builds in the run's footprint buffer: the output does
// not share its input.
func (rs *runScratch) flattenList(s *Schema, base *Instance, list []*Transaction) ([]Update, error) {
	fp := rs.footprint
	for _, x := range list {
		fp = append(fp, x.Updates...)
	}
	op, err := flattenOn(s, base, fp)
	rs.footprint = zeroed(fp)
	return op, err
}
