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

// faceLWs are the slot widths of the two faces, the engine's decidedTable
// and DecisionTable.
var faceLWs = []uint{decidedLW, decisionLW}

func TestDecidedTableAllocatesWhatItTouches(t *testing.T) {
	for _, lw := range faceLWs {
		var tab idTable
		tab.set(TxnID{Origin: "o", Seq: 1 << 40}, 1, lw)
		if pages, over := pagesAndOverflow(&tab); pages != 0 || over != 1 {
			t.Errorf("lw=%d: one id at seq 1<<40 allocated %d pages and %d overflow entries, want 0 and 1", lw, pages, over)
		}
		if len(tab.rows[0].pages) != 0 {
			t.Errorf("lw=%d: seq 1<<40 grew the page directory to %d", lw, len(tab.rows[0].pages))
		}

		tab = idTable{}
		n := 0
		for seq := uint64(0); seq < denseBound; seq += pageIDs << 7 {
			tab.set(TxnID{Origin: "o", Seq: seq}, 1, lw)
			tab.set(TxnID{Origin: "o", Seq: seq + pageIDs - 1}, 1, lw)
			n++
		}
		if pages, over := pagesAndOverflow(&tab); pages != n || over != 0 {
			t.Errorf("lw=%d: ids at %d page boundaries allocated %d pages and %d overflow entries", lw, n, pages, over)
		}
		want := pageIDs << lw / 64 // 1<<lw bits per id
		for _, p := range tab.rows[0].pages {
			if p != nil && len(p) != want {
				t.Fatalf("lw=%d: a page has %d words, want %d", lw, len(p), want)
			}
		}
		for seq := uint64(0); seq < denseBound; seq += pageIDs << 7 {
			tab.set(TxnID{Origin: "o", Seq: seq}, 0, lw)
			tab.set(TxnID{Origin: "o", Seq: seq + pageIDs - 1}, 0, lw)
		}
		if pages, _ := pagesAndOverflow(&tab); pages != 0 || tab.n != 0 {
			t.Errorf("lw=%d: emptying every page left %d pages and %d ids", lw, pages, tab.n)
		}
	}
}

// TestDecidedPagesStaggered: tables fed the same ids, as the peers of a
// fleet are, allocate their pages at different seqs, so that many tables
// do not all grow in the same round; and each still holds every id.
func TestDecidedPagesStaggered(t *testing.T) {
	const tables, ids = 8, 3 * pageIDs
	for _, lw := range faceLWs {
		var firsts []uint64 // the seq at which each table took its second page
		for range tables {
			var dec decidedTable
			var tab DecisionTable
			tt := &dec.t
			if lw == decisionLW {
				tt = &tab.t
			}
			var grew []uint64
			for seq := uint64(0); seq < ids; seq++ {
				id := TxnID{Origin: "o", Seq: seq}
				before, _ := pagesAndOverflow(tt)
				if lw == decisionLW {
					tab.Set(id, RestoredDecision{Decision: DecisionAccept, Seq: int64(seq)})
				} else {
					dec.decide(id, DecisionAccept)
				}
				if after, _ := pagesAndOverflow(tt); after > before {
					grew = append(grew, seq)
				}
			}
			for seq := uint64(0); seq < ids; seq++ {
				if tt.get(TxnID{Origin: "o", Seq: seq}, lw) == 0 {
					t.Fatalf("lw=%d: seq %d lost", lw, seq)
				}
			}
			if len(grew) < 2 || grew[0] != 0 {
				t.Fatalf("lw=%d: pages allocated at seqs %v", lw, grew)
			}
			firsts = append(firsts, grew[1])
		}
		slices.Sort(firsts)
		if len(slices.Compact(firsts)) == 1 {
			t.Errorf("lw=%d: %d tables fed the same ids all took their second page at seq %d", lw, tables, firsts[0])
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

// FuzzDecidedTable interprets its input as decide (kind 0 accept, kind 1
// reject) on the engine's decidedTable and Set/Delete/Get on a
// DecisionTable, each against a plain-map model, and compares table and
// model after every op: the op's id, the count held, and the sorted and
// Map exports. A decide of an id decided otherwise must report false and
// change nothing. Each op is a kind byte, an origin byte and a seq (one
// byte: decidedSeqs below 16, the value itself below 128, else eight more
// bytes); Set adds a decision byte and a dseq read the same way. At the
// end, a Clone must not see later writes to the original.
func FuzzDecidedTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 1, 0, 1, 4, 1, 1, 0, 0, 3, 1, 0, 4, 0, 0})
	f.Fuzz(checkDecidedOps)
}

func checkDecidedOps(t *testing.T, in []byte) {
	var dec decidedTable
	var tab DecisionTable
	decModel := map[TxnID]Decision{}
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
		case 0, 1:
			d := DecisionAccept + Decision(kind%5)
			old := decModel[id]
			if got := dec.decide(id, d); got != (old == DecisionNone || old == d) {
				t.Fatalf("decide(%v, %v) = %v with %v recorded", id, d, got, old)
			}
			if old == DecisionNone {
				decModel[id] = d
			}
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
		if got := dec.get(id); got != decModel[id] {
			t.Fatalf("get(%v) = %v; model %v", id, got, decModel[id])
		}
		if dec.t.n != len(decModel) {
			t.Fatalf("decided table holds %d; model %d", dec.t.n, len(decModel))
		}
		var wantAcc, wantRej []TxnID
		for id, d := range decModel {
			if d == DecisionAccept {
				wantAcc = append(wantAcc, id)
			} else {
				wantRej = append(wantRej, id)
			}
		}
		sort.Slice(wantAcc, func(i, j int) bool { return wantAcc[i].Less(wantAcc[j]) })
		sort.Slice(wantRej, func(i, j int) bool { return wantRej[i].Less(wantRej[j]) })
		if acc, rej := dec.sorted(); !reflect.DeepEqual(acc, wantAcc) || !reflect.DeepEqual(rej, wantRej) {
			t.Fatalf("sorted %v, %v; model %v, %v", acc, rej, wantAcc, wantRej)
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
