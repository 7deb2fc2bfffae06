package central

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/reldb"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
)

// FuzzDecodeDecisionRow holds the decision-row decoder to the contract of
// the other codec fuzz targets: never panic, refuse an empty payload, and
// re-encode whatever it accepts to exactly the bytes it was decoded from.
// The seeds (testdata/fuzz) are an accept-only, a reject-only and a mixed
// row, a row deciding one id twice, and an empty payload.
func FuzzDecodeDecisionRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, first int64, data []byte) {
		es, err := decodeDecisionRow(first, string(data))
		if err != nil {
			return
		}
		if len(data) == 0 {
			t.Fatal("an empty decision row decoded")
		}
		if got := appendDecisionRow(nil, first, es); !bytes.Equal(got, data) {
			t.Fatalf("decode not canonical: %x re-encodes to %x", data, got)
		}
	})
}

// decisionRowCount maps each peer to its number of rows in s's
// decisions table.
func decisionRowCount(t *testing.T, s *Store) map[core.PeerID]int {
	t.Helper()
	n := map[core.PeerID]int{}
	err := s.db.View(func(tx *reldb.Tx) error {
		return tx.Scan(s.decisionsTab, func(r reldb.Row) bool {
			n[core.PeerID(r[0].S())]++
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// peerDecision is one decoded decision-row entry with the peer it is for.
type peerDecision struct {
	peer core.PeerID
	decisionEntry
}

// decisionRows decodes every entry of s's decisions table, sorted by peer
// and dseq.
func decisionRows(t *testing.T, s *Store) []peerDecision {
	t.Helper()
	var out []peerDecision
	err := s.db.View(func(tx *reldb.Tx) error {
		return tx.Scan(s.decisionsTab, func(r reldb.Row) bool {
			es, err := decodeDecisionRow(r[1].I(), r[2].S())
			if err != nil {
				t.Errorf("%s: %v", s.decisionsTab, err)
			}
			for _, e := range es {
				out = append(out, peerDecision{peer: core.PeerID(r[0].S()), decisionEntry: e})
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].peer != out[j].peer {
			return out[i].peer < out[j].peer
		}
		return out[i].dseq < out[j].dseq
	})
	return out
}

// TestDecisionRowsPerBatch pins the row shape: a publish of n transactions
// writes one decision row, and a decision batch writes one row per peer,
// whatever the number of decisions and the epochs they fall in, even when
// one peer's decisions come in two batches with another peer's between
// them. The rows and the decision cache agree on every dseq.
func TestDecisionRowsPerBatch(t *testing.T) {
	ctx := context.Background()
	s := MustOpenMemory(storetest.Schema(t))
	defer s.Close()
	for _, p := range []core.PeerID{"pa", "pb", "pc"} {
		if err := s.RegisterPeer(ctx, p, core.TrustAll(1)); err != nil {
			t.Fatal(err)
		}
	}
	var ids []core.TxnID
	for i := 0; i < 24; i++ {
		before := decisionRowCount(t, s)["pa"]
		ids = append(ids, pubBatch(t, s, "pa", uint64(10*i), 5)...)
		if got := decisionRowCount(t, s)["pa"] - before; got != 1 {
			t.Fatalf("a publish of 5 transactions wrote %d decision rows, want 1", got)
		}
	}
	recno := map[core.PeerID]int{}
	for _, p := range []core.PeerID{"pb", "pc"} {
		rec, err := s.BeginReconciliation(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		recno[p] = rec.Recno
	}
	half := len(ids) / 2
	if err := s.RecordDecisionsBatch(ctx, []store.DecisionBatch{
		{Peer: "pb", Recno: recno["pb"], Accepted: ids[:half]},
		{Peer: "pc", Recno: recno["pc"], Rejected: ids},
		{Peer: "pb", Recno: recno["pb"], Rejected: ids[half:]},
	}); err != nil {
		t.Fatal(err)
	}
	rows := decisionRowCount(t, s)
	for _, p := range []core.PeerID{"pb", "pc"} {
		if rows[p] != 1 {
			t.Errorf("a batch of %d decisions wrote %d rows for %s, want 1", len(ids), rows[p], p)
		}
	}
	folded := map[core.PeerID]map[core.TxnID]core.RestoredDecision{}
	for _, d := range decisionRows(t, s) {
		if folded[d.peer] == nil {
			folded[d.peer] = map[core.TxnID]core.RestoredDecision{}
		}
		folded[d.peer][d.id] = core.RestoredDecision{Decision: d.d, Seq: d.dseq}
	}
	for _, p := range []core.PeerID{"pa", "pb", "pc"} {
		if cache := s.peers[p].decided.Map(); !reflect.DeepEqual(folded[p], cache) {
			t.Errorf("%s's rows and decision cache disagree:\n rows  %v\n cache %v", p, folded[p], cache)
		}
	}
}

// TestRedecidedSurvivesReopen: one id decided twice by unkeyed calls —
// two rows — and once twice within one call — one row — recovers to
// exactly the decisions, sequence numbers included, the live store held,
// and the sequence continues from there.
func TestRedecidedSurvivesReopen(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	dir := t.TempDir()
	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.PeerID{"pa", "pb"} {
		if err := s.RegisterPeer(ctx, p, core.TrustAll(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Many publishes, so that each peer has several rows, which a scan
	// visits in no particular order.
	ids := pubBatch(t, s, "pa", 1, 3)
	for i := 0; i < 8; i++ {
		ids = append(ids, pubBatch(t, s, "pa", uint64(10+i), 1)...)
	}
	rec, err := s.BeginReconciliation(ctx, "pb")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct{ acc, rej []core.TxnID }{
		{rej: ids},
		{acc: ids},
		{rej: ids[:2]},
		{acc: ids[3:4], rej: ids[3:4]},
	} {
		if err := s.RecordDecisions(ctx, "pb", rec.Recno, d.acc, d.rej); err != nil {
			t.Fatal(err)
		}
	}
	live := map[core.PeerID]map[core.TxnID]core.RestoredDecision{}
	for _, p := range []core.PeerID{"pa", "pb"} {
		if _, live[p], err = s.ReplayFrom(ctx, p, 0, -1); err != nil {
			t.Fatal(err)
		}
	}
	n := int64(len(ids))
	if got := live["pb"][ids[0]]; got.Decision != core.DecisionReject || got.Seq != 2*n+1 {
		t.Fatalf("live decision on %s = %+v, want the last: reject at seq %d", ids[0], got, 2*n+1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, p := range []core.PeerID{"pa", "pb"} {
		_, got, err := s2.ReplayFrom(ctx, p, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, live[p]) {
			t.Errorf("%s's decisions after reopen:\n got %v\nwant %v", p, got, live[p])
		}
	}
	if err := s2.RecordDecisions(ctx, "pb", rec.Recno, nil, ids[1:2]); err != nil {
		t.Fatal(err)
	}
	_, got, err := s2.ReplayFrom(ctx, "pb", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if d := got[ids[1]]; d.Decision != core.DecisionReject || d.Seq != 2*n+5 {
		t.Errorf("decision after reopen = %+v, want reject at seq %d", d, 2*n+5)
	}
}

// TestCompactionSplitsDecisionRow: a horizon that falls between the epochs
// of one decision row's entries rewrites the row to exactly the entries
// the per-decision rule keeps — an entry goes when its epoch is at or
// below the horizon and its dseq at or below the peer's snapshot
// high-water mark — and a reopened store recovers the same decisions.
func TestCompactionSplitsDecisionRow(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	dir := t.TempDir()
	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.PeerID{"pa", "pb"} {
		if err := s.RegisterPeer(ctx, p, core.TrustAll(1)); err != nil {
			t.Fatal(err)
		}
	}
	// pb's decisions on epochs 1 to n are entries of one row; the horizon
	// below splits it.
	const n = 9
	var ids []core.TxnID
	for i := 0; i < n; i++ {
		ids = append(ids, pubBatch(t, s, "pa", uint64(i+1), 1)...)
	}
	for _, p := range []core.PeerID{"pa", "pb"} {
		rec, err := s.BeginReconciliation(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if p == "pb" {
			if err := s.RecordDecisions(ctx, p, rec.Recno, []core.TxnID{ids[0], ids[n-1]}, ids[1:n-1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	snapE, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snapE != core.Epoch(n) {
		t.Fatalf("snapshot at epoch %d, want %d", snapE, n)
	}
	pbFirst, _ := s.peers["pb"].decided.Get(ids[0])
	first := pbFirst.Seq
	split := decisionRow(t, s, "pb", first)
	if len(split) != n || split[0].id != ids[0] || split[1].id != ids[n-1] {
		t.Fatalf("pb's row (%s, %d) holds %v, want %s and %s first of %d", s.decisionsTab, first, split, ids[0], ids[n-1], n)
	}

	horizon := core.Epoch(n - 1)
	hw := map[core.PeerID]int64{}
	s.snapState.mu.RLock()
	for p, h := range s.snapState.hw {
		hw[p] = h
	}
	s.snapState.mu.RUnlock()
	var want []peerDecision
	for _, d := range decisionRows(t, s) {
		if s.lookup(d.id).epoch > horizon || d.dseq > hw[d.peer] {
			want = append(want, d)
		}
	}
	if err := s.CompactBefore(ctx, horizon); err != nil {
		t.Fatal(err)
	}
	if got := decisionRows(t, s); !reflect.DeepEqual(got, want) {
		t.Errorf("decision entries after compaction:\n got %v\nwant %v", got, want)
	}
	if got := decisionRow(t, s, "pb", first); len(got) != 1 || got[0] != split[1] {
		t.Errorf("split row holds %v after compaction, want only %v", got, split[1])
	}
	live := map[core.PeerID]map[core.TxnID]core.RestoredDecision{}
	for _, p := range []core.PeerID{"pa", "pb"} {
		live[p] = s.peers[p].decided.Map()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := decisionRows(t, s2); !reflect.DeepEqual(got, want) {
		t.Errorf("decision entries after reopen:\n got %v\nwant %v", got, want)
	}
	for _, p := range []core.PeerID{"pa", "pb"} {
		if got := s2.peers[p].decided.Map(); !reflect.DeepEqual(got, live[p]) {
			t.Errorf("%s's decisions after reopen:\n got %v\nwant %v", p, got, live[p])
		}
	}
}

// decisionRow decodes the entries of peer's row keyed by first.
func decisionRow(t *testing.T, s *Store, peer core.PeerID, first int64) []decisionEntry {
	t.Helper()
	var es []decisionEntry
	err := s.db.View(func(tx *reldb.Tx) error {
		r, ok, err := tx.Get(s.decisionsTab, reldb.Str(string(peer)), reldb.Int(first))
		if err != nil || !ok {
			return fmt.Errorf("no row (%s, %d) in %s: %v", peer, first, s.decisionsTab, err)
		}
		es, err = decodeDecisionRow(first, r[2].S())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return es
}

// dirBytes maps every file under dir to its contents.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRefuseLayout3: a directory of table layout 3, whose decisions_k
// tables hold one row per decision, makes Open fail with errLayout3, which
// names the last commit that reads it, and leaves every file in the
// directory as it was.
func TestRefuseLayout3(t *testing.T) {
	dir := t.TempDir()
	db, err := reldb.Open(reldb.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Update(func(tx *reldb.Tx) error {
		if err := tx.CreateTable(reldb.TableDef{
			Name: "meta",
			Cols: []reldb.ColDef{{Name: "key", Type: reldb.ColString}, {Name: "value", Type: reldb.ColInt}},
			Key:  []int{0},
		}); err != nil {
			return err
		}
		if err := tx.Insert("meta", reldb.Row{reldb.Str("layout"), reldb.Int(3)}); err != nil {
			return err
		}
		if err := tx.Insert("meta", reldb.Row{reldb.Str("table_shards"), reldb.Int(defaultTableShards)}); err != nil {
			return err
		}
		if err := tx.CreateTable(reldb.TableDef{
			Name: "decisions_01",
			Cols: []reldb.ColDef{
				{Name: "peer", Type: reldb.ColString},
				{Name: "origin", Type: reldb.ColString},
				{Name: "seq", Type: reldb.ColInt},
				{Name: "decision", Type: reldb.ColInt},
				{Name: "dseq", Type: reldb.ColInt},
			},
			Key: []int{0, 1, 2},
		}); err != nil {
			return err
		}
		return tx.Insert("decisions_01", reldb.Row{
			reldb.Str("pa"), reldb.Str("pa"), reldb.Int(1), reldb.Int(int64(core.DecisionAccept)), reldb.Int(1),
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	s, err := Open(storetest.Schema(t), dir)
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a layout-3 directory")
	}
	if !errors.Is(err, errLayout3) || !strings.Contains(err.Error(), "948bb9d") {
		t.Errorf("Open = %v, want errLayout3 naming commit 948bb9d", err)
	}
	if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("a refused Open changed the directory:\n got %q\nwant %q", after, before)
	}
}

// TestOpenRefusesDecisionSeqPastCache: a decision row whose dseq the
// decision cache cannot hold (past core.MaxDecisionSeq) makes Open fail
// with an error naming the row, not panic.
func TestOpenRefusesDecisionSeqPastCache(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	dir := t.TempDir()
	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterPeer(ctx, "pa", core.TrustAll(1)); err != nil {
		t.Fatal(err)
	}
	id := pubBatch(t, s, "pa", 1, 1)[0]
	tab := s.decisionsTab
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := reldb.Open(reldb.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const first = core.MaxDecisionSeq + 1
	row := appendDecisionRow(nil, first, []decisionEntry{{id: id, d: core.DecisionAccept, dseq: first}})
	if err := db.Update(func(tx *reldb.Tx) error {
		return tx.Insert(tab, reldb.Row{reldb.Str("pa"), reldb.Int(first), reldb.Bytes(row)})
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(schema, dir)
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a dseq past core.MaxDecisionSeq")
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Open: %v, want a dseq out of range", err)
	}
}
