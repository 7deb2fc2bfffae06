package core

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"maps"
	"math/bits"
	"slices"
)

// A decided table maps transaction ids to what a peer decided about them,
// for the state that grows over the peer's whole life. It has two faces,
// which differ only in their slot width: the engine's decidedTable (two
// bits per id: none, accept or reject) and the store's per-peer decision
// cache (DecisionTable, a word per id). A Seq is a dense per-origin counter
// from 0, so what one origin contributes is almost a prefix of seqs. The
// table is therefore an origin directory and, per origin, pages of pageIDs
// consecutive seqs, each allocated when first written and freed when
// emptied. A seq at or past denseBound goes to the origin's overflow map
// instead, so memory is O(ids held + pages touched), plus at most
// denseBound/pageIDs + 1 page slots per origin, whatever the largest seq.
// Reads never write: get, Get and the exports may run side by side, but
// not beside a write.
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

// A slot is 1<<lw bits wide; each face passes its lw as a constant.
const (
	decidedLW  = 1 // the engine's decidedTable: 2-bit slots
	decisionLW = 6 // DecisionTable: 64-bit slots
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
// nothing (0). Every method takes the slot width from its face: slots of
// 1<<lw bits, 64>>lw to a word.
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

// slotMask is the value mask of a slot of 1<<lw bits.
func slotMask(lw uint) uint64 { return 1<<(1<<lw) - 1 }

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

func (t *idTable) get(id TxnID, lw uint) uint64 {
	r := t.index[id.Origin]
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
	return r.pages[pi][s>>(6-lw)] >> (s << lw & 63) & slotMask(lw)
}

// set stores v for id, 0 removing it, and returns the value it replaced.
func (t *idTable) set(id TxnID, v uint64, lw uint) uint64 {
	r := t.index[id.Origin]
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
			r.pages[pi] = make([]uint64, pageIDs<<lw>>6)
		}
		p := r.pages[pi]
		w, sh := s>>(6-lw), s<<lw&63
		old = p[w] >> sh & slotMask(lw)
		p[w] = p[w]&^(slotMask(lw)<<sh) | v<<sh
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
func (r *originRow) each(lw uint, fn func(TxnID, uint64)) {
	mask := slotMask(lw)
	for pi, p := range r.pages {
		base := uint64(pi)<<pageShift - r.off // wraps for page 0; the sums below do not
		for w, word := range p {
			for word != 0 {
				i := uint(bits.TrailingZeros64(word)) >> lw // the slot within the word
				fn(TxnID{Origin: r.origin, Seq: base + uint64(w)<<(6-lw) + uint64(i)}, word>>(i<<lw)&mask)
				word &^= mask << (i << lw)
			}
		}
	}
	for seq, v := range r.over {
		fn(TxnID{Origin: r.origin, Seq: seq}, v)
	}
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

// decidedTable is the engine's decided table: the peer's Decision for
// each id, DecisionNone for one it has not decided, in a 2-bit slot. A
// decision is final: decide never changes one. The zero value is empty.
// A run's short-lived sets are sorted slices of ids.
type decidedTable struct{ t idTable }

// get returns the decision recorded for id.
func (d *decidedTable) get(id TxnID) Decision { return Decision(d.t.get(id, decidedLW)) }

// decide records dec, DecisionAccept or DecisionReject, for an undecided
// id, and reports whether id's decision is now dec: false when it was
// decided otherwise before.
func (d *decidedTable) decide(id TxnID, dec Decision) bool {
	if dec != DecisionAccept && dec != DecisionReject {
		panic(fmt.Sprintf("core: %v is not a final decision", dec))
	}
	if old := d.get(id); old != DecisionNone {
		return old == dec
	}
	d.t.seeded().set(id, uint64(dec), decidedLW)
	return true
}

// sorted returns the accepted and the rejected ids, each in TxnID.Less
// order.
func (d *decidedTable) sorted() (accepted, rejected []TxnID) {
	rows := slices.Clone(d.t.rows)
	slices.SortFunc(rows, func(a, b *originRow) int { return cmp.Compare(a.origin, b.origin) })
	for _, r := range rows {
		na, nr := len(accepted), len(rejected)
		r.each(decidedLW, func(id TxnID, v uint64) {
			if Decision(v) == DecisionAccept {
				accepted = append(accepted, id)
			} else {
				rejected = append(rejected, id)
			}
		})
		if len(r.over) > 0 { // past every paged seq, in no order
			slices.SortFunc(accepted[na:], compareTxnIDs)
			slices.SortFunc(rejected[nr:], compareTxnIDs)
		}
	}
	return accepted, rejected
}

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
	v := m.t.get(id, decisionLW)
	return unpackDecision(v), v != 0
}

// Set records d for id, replacing any earlier decision.
func (m *DecisionTable) Set(id TxnID, d RestoredDecision) {
	m.t.seeded().set(id, packDecision(d), decisionLW)
}

// Delete forgets id.
func (m *DecisionTable) Delete(id TxnID) { m.t.set(id, 0, decisionLW) }

// Len returns the number of ids held.
func (m *DecisionTable) Len() int { return m.t.n }

// Range calls fn for every id held, in no particular order.
func (m *DecisionTable) Range(fn func(TxnID, RestoredDecision)) {
	for _, r := range m.t.rows {
		r.each(decisionLW, func(id TxnID, v uint64) { fn(id, unpackDecision(v)) })
	}
}

// Map returns the table's contents as a map the caller owns.
func (m *DecisionTable) Map() map[TxnID]RestoredDecision {
	out := make(map[TxnID]RestoredDecision, m.t.n)
	m.Range(func(id TxnID, d RestoredDecision) { out[id] = d })
	return out
}

// Clone returns a copy that shares nothing with m.
func (m *DecisionTable) Clone() DecisionTable { return DecisionTable{t: m.t.clone()} }
