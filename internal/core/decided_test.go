package core

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// pagesAndOverflow counts the pages allocated and the overflow entries held
// across a table's origins.
func pagesAndOverflow(t *idTable) (pages, over int) {
	for _, r := range t.rows {
		for _, p := range r.pages {
			if p != nil {
				pages++
			}
		}
		over += len(r.over)
	}
	return pages, over
}

func TestDecidedTableAllocatesWhatItTouches(t *testing.T) {
	for _, wide := range []bool{false, true} {
		var tab idTable
		tab.set(TxnID{Origin: "o", Seq: 1 << 40}, 1, wide)
		if pages, over := pagesAndOverflow(&tab); pages != 0 || over != 1 {
			t.Errorf("wide=%v: one id at seq 1<<40 allocated %d pages and %d overflow entries, want 0 and 1", wide, pages, over)
		}
		if len(tab.rows[0].pages) != 0 {
			t.Errorf("wide=%v: seq 1<<40 grew the page directory to %d", wide, len(tab.rows[0].pages))
		}

		tab = idTable{}
		n := 0
		for seq := uint64(0); seq < denseBound; seq += pageIDs << 7 {
			tab.set(TxnID{Origin: "o", Seq: seq}, 1, wide)
			tab.set(TxnID{Origin: "o", Seq: seq + pageIDs - 1}, 1, wide)
			n++
		}
		if pages, over := pagesAndOverflow(&tab); pages != n || over != 0 {
			t.Errorf("wide=%v: ids at %d page boundaries allocated %d pages and %d overflow entries", wide, n, pages, over)
		}
		for _, p := range tab.rows[0].pages {
			if p != nil && len(p) != pageWords(wide) {
				t.Fatalf("wide=%v: a page has %d words, want %d", wide, len(p), pageWords(wide))
			}
		}
		for seq := uint64(0); seq < denseBound; seq += pageIDs << 7 {
			tab.set(TxnID{Origin: "o", Seq: seq}, 0, wide)
			tab.set(TxnID{Origin: "o", Seq: seq + pageIDs - 1}, 0, wide)
		}
		if pages, _ := pagesAndOverflow(&tab); pages != 0 || tab.n != 0 {
			t.Errorf("wide=%v: emptying every page left %d pages and %d ids", wide, pages, tab.n)
		}
	}
}

// TestDecidedPagesStaggered: tables fed the same ids, as the peers of a
// fleet are, allocate their pages at different seqs, so that many tables
// do not all grow in the same round; and each still holds every id.
func TestDecidedPagesStaggered(t *testing.T) {
	const tables, ids = 8, 3 * pageIDs
	for _, wide := range []bool{false, true} {
		var firsts []uint64 // the seq at which each table took its second page
		for range tables {
			var set DecidedSet
			var tab DecisionTable
			tt := &set.t
			if wide {
				tt = &tab.t
			}
			var grew []uint64
			for seq := uint64(0); seq < ids; seq++ {
				id := TxnID{Origin: "o", Seq: seq}
				before, _ := pagesAndOverflow(tt)
				if wide {
					tab.Set(id, RestoredDecision{Decision: DecisionAccept, Seq: int64(seq)})
				} else {
					set.Add(id)
				}
				if after, _ := pagesAndOverflow(tt); after > before {
					grew = append(grew, seq)
				}
			}
			for seq := uint64(0); seq < ids; seq++ {
				if tt.get(TxnID{Origin: "o", Seq: seq}, wide) == 0 {
					t.Fatalf("wide=%v: seq %d lost", wide, seq)
				}
			}
			if len(grew) < 2 || grew[0] != 0 {
				t.Fatalf("wide=%v: pages allocated at seqs %v", wide, grew)
			}
			firsts = append(firsts, grew[1])
		}
		slices.Sort(firsts)
		if len(slices.Compact(firsts)) == 1 {
			t.Errorf("wide=%v: %d tables fed the same ids all took their second page at seq %d", wide, tables, firsts[0])
		}
	}
}

func TestDecisionTablePacksItsRange(t *testing.T) {
	var m DecisionTable
	for _, d := range []RestoredDecision{
		{Decision: DecisionNone, Seq: 0},
		{Decision: DecisionAccept, Seq: 1},
		{Decision: DecisionReject, Seq: MaxDecisionSeq},
		{Decision: DecisionDefer, Seq: 1 << 40},
	} {
		id := TxnID{Origin: "o", Seq: uint64(d.Seq)}
		m.Set(id, d)
		if got, ok := m.Get(id); !ok || got != d {
			t.Errorf("Get after Set(%v) = %v, %v", d, got, ok)
		}
	}
	for _, d := range []RestoredDecision{{Seq: -1}, {Seq: MaxDecisionSeq + 1}, {Decision: DecisionDefer + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%v) did not panic", d)
				}
			}()
			m.Set(TxnID{Origin: "o"}, d)
		}()
	}
}

// decidedSeqs are the seqs a fuzz input names with one byte below 16: seq
// 0, page boundaries, the dense bound and the top of the seq space.
var decidedSeqs = [16]uint64{
	0, 1, 63, 64, pageIDs - 1, pageIDs, pageIDs + 1, 2*pageIDs - 1, 2 * pageIDs,
	denseBound - 1, denseBound, denseBound + 1, 1 << 40, 1<<63 - 1, 1 << 63, math.MaxUint64,
}

// decidedOrigins are the origins a fuzz input picks from: the empty origin
// and eleven others.
var decidedOrigins = []PeerID{"", "p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9", "p10"}

// FuzzDecidedTable interprets its input as Add on a DecidedSet and
// Set/Delete/Get on a DecisionTable, each against a plain-map model, and
// compares table and model after every op (kind 1 is no op, so the corpus
// keeps its meaning): the op's id, Len, Sorted and the Map export. Each op is a kind byte, an origin byte and a seq (one
// byte: decidedSeqs below 16, the value itself below 128, else eight more
// bytes); Set adds a decision byte and a dseq read the same way. At the
// end, a Clone must not see later writes to the original.
func FuzzDecidedTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 1, 0, 1, 4, 1, 1, 0, 0, 3, 1, 0, 4, 0, 0})
	f.Fuzz(checkDecidedOps)
}

func checkDecidedOps(t *testing.T, in []byte) {
	var set DecidedSet
	var tab DecisionTable
	setModel := map[TxnID]bool{}
	tabModel := map[TxnID]RestoredDecision{}
	next := func() (byte, bool) {
		if len(in) == 0 {
			return 0, false
		}
		b := in[0]
		in = in[1:]
		return b, true
	}
	seq := func() (uint64, bool) {
		b, ok := next()
		switch {
		case !ok:
			return 0, false
		case b < 16:
			return decidedSeqs[b], true
		case b < 128:
			return uint64(b), true
		case len(in) < 8:
			return 0, false
		}
		v := binary.LittleEndian.Uint64(in)
		in = in[8:]
		return v, true
	}
	for len(in) > 0 {
		kind, _ := next()
		o, ok := next()
		if !ok {
			return
		}
		s, ok := seq()
		if !ok {
			return
		}
		id := TxnID{Origin: decidedOrigins[int(o)%len(decidedOrigins)], Seq: s}
		switch kind % 5 {
		case 0:
			set.Add(id)
			setModel[id] = true
		case 2:
			d, ok := next()
			if !ok {
				return
			}
			dseq, ok := seq()
			if !ok {
				return
			}
			rd := RestoredDecision{Decision: Decision(d & 3), Seq: int64(dseq & MaxDecisionSeq)}
			tab.Set(id, rd)
			tabModel[id] = rd
		case 3:
			tab.Delete(id)
			delete(tabModel, id)
		case 4:
			got, ok := tab.Get(id)
			want, wok := tabModel[id]
			if got != want || ok != wok {
				t.Fatalf("Get(%v) = %v, %v; model %v, %v", id, got, ok, want, wok)
			}
		}
		if set.Has(id) != setModel[id] {
			t.Fatalf("Has(%v) = %v; model %v", id, set.Has(id), setModel[id])
		}
		if set.Len() != len(setModel) {
			t.Fatalf("set Len %d; model %d", set.Len(), len(setModel))
		}
		want := make([]TxnID, 0, len(setModel))
		for id := range setModel {
			want = append(want, id)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		if got := set.Sorted(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Sorted %v; model %v", got, want)
		}
		if tab.Len() != len(tabModel) {
			t.Fatalf("table Len %d; model %d", tab.Len(), len(tabModel))
		}
		if got := tab.Map(); !reflect.DeepEqual(got, tabModel) {
			t.Fatalf("Map %v; model %v", got, tabModel)
		}
	}
	c := tab.Clone()
	tab.Set(TxnID{Origin: "p0"}, RestoredDecision{Decision: DecisionAccept, Seq: 1})
	tab.Delete(TxnID{Origin: "p0", Seq: 1})
	if got := c.Map(); !reflect.DeepEqual(got, tabModel) {
		t.Fatalf("Clone's Map after writes to the original %v; model %v", got, tabModel)
	}
}
