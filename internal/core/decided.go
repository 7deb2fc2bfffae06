package core

import (
	"fmt"
	"hash/maphash"
	"maps"
	"math/bits"
	"slices"
	"sort"
)

// A decided table maps transaction ids to what a peer decided about them,
// for the sets that grow over the peer's whole life: the engine's applied
// and rejected sets (DecidedSet, a bit per id) and the store's per-peer
// decision cache (DecisionTable, a word per id). A Seq is a dense
// per-origin counter from 0, so what one origin contributes is almost a
// prefix of seqs. The table is therefore an origin directory and, per
// origin, pages of pageIDs consecutive seqs, each allocated when first
// written and freed when emptied. A seq at or past denseBound goes to the
// origin's overflow map instead, so memory is O(ids held + pages touched),
// plus at most denseBound/pageIDs + 1 page slots per origin, whatever the
// largest seq. Reads never write: Has, Get and the exports may run side by
// side, but not beside a write.
//
// The peers of a fleet decide the same origins' ids in the same rounds. Had
// every table's pages started at multiples of pageIDs, all of them would
// allocate a page for an origin in the same round. So the faces seed their
// table on its first write, and a seeded table shifts each origin row's
// page boundaries by an offset drawn from its seed (originRow.off), as
// spread.Map seeds its hash: each table allocates at seqs of its own.

const (
	pageShift  = 9
	pageIDs    = 1 << pageShift // seqs per page
	denseBound = 1 << 20        // seqs at or past it go to the overflow map
)

// originRow is one origin's ids.
type originRow struct {
	origin PeerID
	// off shifts the page boundaries: seq s sits at slot s+off, and
	// pages[i] holds slots [i<<pageShift, (i+1)<<pageShift), nil while it
	// holds none; held[i] counts the ids it holds.
	off   uint64
	pages [][]uint64
	held  []uint16
	// over holds the seqs at or past denseBound.
	over map[uint64]uint64
}

// idTable is the storage of both faces. A slot holds a non-zero value or
// nothing (0). A wide table spends a word per slot, a narrow one a bit: its
// only value is 1. Every method takes the width from its face.
type idTable struct {
	rows  []*originRow          // in the order origins were first written, for iteration
	index map[PeerID]*originRow // the origin directory
	n     int
	// seed draws each new row's offset; the zero seed gives every row
	// offset 0.
	seed maphash.Seed
}

// seeded gives the table its seed if it has none yet, and returns it.
func (t *idTable) seeded() *idTable {
	if t.seed == (maphash.Seed{}) {
		t.seed = maphash.MakeSeed()
	}
	return t
}

func pageWords(wide bool) int {
	if wide {
		return pageIDs
	}
	return pageIDs / 64
}

func (t *idTable) row(o PeerID) *originRow { return t.index[o] }

func (t *idTable) addRow(o PeerID) *originRow {
	r := &originRow{origin: o}
	if t.seed != (maphash.Seed{}) {
		r.off = maphash.String(t.seed, string(o)) & (pageIDs - 1)
	}
	t.rows = append(t.rows, r)
	if t.index == nil {
		t.index = make(map[PeerID]*originRow)
	}
	t.index[o] = r
	return r
}

func (t *idTable) get(id TxnID, wide bool) uint64 {
	r := t.row(id.Origin)
	if r == nil {
		return 0
	}
	if id.Seq >= denseBound {
		return r.over[id.Seq]
	}
	slot := id.Seq + r.off
	pi, s := slot>>pageShift, slot&(pageIDs-1)
	if pi >= uint64(len(r.pages)) || r.pages[pi] == nil {
		return 0
	}
	if wide {
		return r.pages[pi][s]
	}
	return r.pages[pi][s>>6] >> (s & 63) & 1
}

// set stores v for id, 0 removing it, and returns the value it replaced.
func (t *idTable) set(id TxnID, v uint64, wide bool) uint64 {
	r := t.row(id.Origin)
	if r == nil {
		if v == 0 {
			return 0
		}
		r = t.addRow(id.Origin)
	}
	var old uint64
	if id.Seq >= denseBound {
		old = r.over[id.Seq]
		if v == 0 {
			delete(r.over, id.Seq)
		} else {
			if r.over == nil {
				r.over = make(map[uint64]uint64)
			}
			r.over[id.Seq] = v
		}
	} else {
		slot := id.Seq + r.off
		pi, s := slot>>pageShift, slot&(pageIDs-1)
		if pi >= uint64(len(r.pages)) || r.pages[pi] == nil {
			if v == 0 {
				return 0
			}
			if n := int(pi) + 1; n > len(r.pages) {
				r.pages = append(r.pages, make([][]uint64, n-len(r.pages))...)
				r.held = append(r.held, make([]uint16, n-len(r.held))...)
			}
			r.pages[pi] = make([]uint64, pageWords(wide))
		}
		p := r.pages[pi]
		if wide {
			old, p[s] = p[s], v
		} else {
			old = p[s>>6] >> (s & 63) & 1
			p[s>>6] = p[s>>6]&^(1<<(s&63)) | v<<(s&63)
		}
		switch {
		case old == 0 && v != 0:
			r.held[pi]++
		case old != 0 && v == 0:
			if r.held[pi]--; r.held[pi] == 0 {
				r.pages[pi] = nil
			}
		}
	}
	switch {
	case old == 0 && v != 0:
		t.n++
	case old != 0 && v == 0:
		t.n--
	}
	return old
}

// each calls fn for every id the row holds: the paged seqs ascending, then
// the overflow in no order.
func (r *originRow) each(wide bool, fn func(TxnID, uint64)) {
	for pi, p := range r.pages {
		if p == nil {
			continue
		}
		base := uint64(pi)<<pageShift - r.off // wraps for page 0; the sums below do not
		if wide {
			for s, v := range p {
				if v != 0 {
					fn(TxnID{Origin: r.origin, Seq: base + uint64(s)}, v)
				}
			}
			continue
		}
		for w, word := range p {
			for ; word != 0; word &= word - 1 {
				fn(TxnID{Origin: r.origin, Seq: base + uint64(w<<6+bits.TrailingZeros64(word))}, 1)
			}
		}
	}
	for seq, v := range r.over {
		fn(TxnID{Origin: r.origin, Seq: seq}, v)
	}
}

func (t *idTable) each(wide bool, fn func(TxnID, uint64)) {
	for _, r := range t.rows {
		r.each(wide, fn)
	}
}

// sorted returns the ids held in TxnID.Less order.
func (t *idTable) sorted(wide bool) []TxnID {
	rows := slices.Clone(t.rows)
	sort.Slice(rows, func(i, j int) bool { return rows[i].origin < rows[j].origin })
	out := make([]TxnID, 0, t.n)
	for _, r := range rows {
		r.each(wide, func(id TxnID, _ uint64) { out = append(out, id) })
		// Every overflow seq is past every paged one.
		over := out[len(out)-len(r.over):]
		sort.Slice(over, func(i, j int) bool { return over[i].Seq < over[j].Seq })
	}
	return out
}

// clone returns a copy that shares nothing with t.
func (t *idTable) clone() idTable {
	c := idTable{rows: make([]*originRow, len(t.rows)), index: make(map[PeerID]*originRow, len(t.rows)), n: t.n, seed: t.seed}
	for i, r := range t.rows {
		cr := &originRow{
			origin: r.origin,
			off:    r.off,
			pages:  make([][]uint64, len(r.pages)),
			held:   slices.Clone(r.held),
			over:   maps.Clone(r.over),
		}
		for pi, p := range r.pages {
			if p != nil {
				cr.pages[pi] = slices.Clone(p)
			}
		}
		c.rows[i], c.index[r.origin] = cr, cr
	}
	return c
}

// DecidedSet is a set of transaction ids held as a bit per id in a decided
// table: the engine's applied and rejected sets. The zero value is an
// empty set. A run's short-lived sets are sorted slices of ids.
type DecidedSet struct{ t idTable }

// Has reports membership.
func (s *DecidedSet) Has(id TxnID) bool { return s.t.get(id, false) != 0 }

// Add inserts an id.
func (s *DecidedSet) Add(id TxnID) { s.t.seeded().set(id, 1, false) }

// Len returns the number of ids held.
func (s *DecidedSet) Len() int { return s.t.n }

// Sorted returns the members sorted by ID, for deterministic output.
func (s *DecidedSet) Sorted() []TxnID { return s.t.sorted(false) }

// MaxDecisionSeq is the largest RestoredDecision.Seq a DecisionTable holds.
const MaxDecisionSeq = 1<<61 - 1

// DecisionTable maps transaction ids to RestoredDecisions, a word per id in
// a decided table: the store's per-peer decision cache. The word packs the
// sequence, the decision and a presence bit, so a Seq must lie in
// [0, MaxDecisionSeq]. The zero value is an empty table.
type DecisionTable struct{ t idTable }

func packDecision(d RestoredDecision) uint64 {
	if d.Seq < 0 || d.Seq > MaxDecisionSeq || d.Decision > DecisionDefer {
		panic(fmt.Sprintf("core: decision %v at seq %d does not fit a DecisionTable", d.Decision, d.Seq))
	}
	return uint64(d.Seq)<<3 | uint64(d.Decision)<<1 | 1
}

func unpackDecision(v uint64) RestoredDecision {
	return RestoredDecision{Decision: Decision(v >> 1 & 3), Seq: int64(v >> 3)}
}

// Get returns the decision recorded for id and whether there is one; the
// zero RestoredDecision when there is not.
func (m *DecisionTable) Get(id TxnID) (RestoredDecision, bool) {
	v := m.t.get(id, true)
	return unpackDecision(v), v != 0
}

// Set records d for id, replacing any earlier decision.
func (m *DecisionTable) Set(id TxnID, d RestoredDecision) {
	m.t.seeded().set(id, packDecision(d), true)
}

// Delete forgets id.
func (m *DecisionTable) Delete(id TxnID) { m.t.set(id, 0, true) }

// Len returns the number of ids held.
func (m *DecisionTable) Len() int { return m.t.n }

// Range calls fn for every id held, in no particular order.
func (m *DecisionTable) Range(fn func(TxnID, RestoredDecision)) {
	m.t.each(true, func(id TxnID, v uint64) { fn(id, unpackDecision(v)) })
}

// Map returns the table's contents as a map the caller owns.
func (m *DecisionTable) Map() map[TxnID]RestoredDecision {
	out := make(map[TxnID]RestoredDecision, m.t.n)
	m.Range(func(id TxnID, d RestoredDecision) { out[id] = d })
	return out
}

// Clone returns a copy that shares nothing with m.
func (m *DecisionTable) Clone() DecisionTable { return DecisionTable{t: m.t.clone()} }
