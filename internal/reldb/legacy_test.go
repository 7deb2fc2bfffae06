package reldb

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// gobDirState is what testdata/gob-dir holds: the state its generator
// (testdata/gen_gob_dir.go, run at commit 99620f2) left in a gob snapshot
// and a gob WAL tail over segments 1 and 2.
func gobDirState() dbState {
	people := TableDef{Name: "people", Key: []int{0}, Cols: []ColDef{
		{Name: "id", Type: ColInt}, {Name: "name", Type: ColString}, {Name: "score", Type: ColFloat, Nullable: true},
		{Name: "active", Type: ColBool}, {Name: "blob", Type: ColBytes, Nullable: true},
	}}
	edges := TableDef{Name: "edges", Key: []int{0, 1}, Cols: []ColDef{
		{Name: "src", Type: ColString}, {Name: "dst", Type: ColInt}, {Name: "w", Type: ColInt},
	}}
	late := TableDef{Name: "late", Key: []int{1}, Cols: []ColDef{
		{Name: "v", Type: ColString, Nullable: true}, {Name: "k", Type: ColString},
	}}
	s := newDBState()
	for _, tr := range []struct {
		def  TableDef
		rows []Row
	}{
		{people, []Row{
			{Int(2), Str("bob"), Float(2.25), Bool(true), Bytes([]byte("xyz"))},
			{Int(math.MinInt64), Str("min"), Float(math.Inf(-1)), Bool(true), Bytes(nil)},
			{Int(math.MaxInt64), Str("max"), Float(0), Bool(false), Null()},
		}},
		{edges, []Row{{Str("a"), Int(2), Int(20)}, {Str("b"), Int(-1), Int(30)}}},
		{late, []Row{{Null(), Str("k1")}}},
	} {
		s.Defs[tr.def.Name] = tr.def
		s.Rows[tr.def.Name] = map[string]Row{}
		for _, r := range tr.rows {
			s.Rows[tr.def.Name][tr.def.pkEnc(r)] = r
		}
	}
	s.Seqs["epoch"], s.Seqs["other"] = 4, 5
	return s
}

// requireNoGob fails if the snapshot or any record of any segment in dir
// was written by gob.
func requireNoGob(t *testing.T, dir string) {
	t.Helper()
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if isLegacy(snap) {
		t.Error("the snapshot is still gob")
	}
	for i, rec := range walRecords(t, dir) {
		if isLegacy(rec) {
			t.Errorf("live WAL record %d is still gob", i)
		}
	}
}

// TestUpgradeLegacyDir opens a directory the parent commit wrote — gob
// snapshot, gob records — and requires the state the generator left, in the
// new format: after Open no live byte is gob, writes land on top, and a
// reopen reads all of it without the legacy decoder. Then the three
// directories a crash inside the upgrade's checkpoint can leave, built by
// hand as TestCheckpointCrashPoints builds its own, each opening to the
// same state.
func TestUpgradeLegacyDir(t *testing.T) {
	const fixture = "testdata/gob-dir"
	want := gobDirState()
	// upgrade opens dir, checks the state, writes, and reopens.
	upgrade := func(t *testing.T, dir string) {
		db, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := stateOf(db); !reflect.DeepEqual(got, want) {
			t.Fatalf("opened state:\n got %v\nwant %v", got, want)
		}
		requireNoGob(t, dir)
		added, late := Row{Null(), Str("k2")}, want.Defs["late"]
		if err := db.Update(func(tx *Tx) error { return tx.Insert("late", added) }); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		requireNoGob(t, dir)
		if db, err = Open(Options{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		got := stateOf(db)
		if r := got.Rows["late"][late.pkEnc(added)]; !r.Equal(added) {
			t.Errorf("the write after the upgrade reopened as %v", r)
		}
		delete(got.Rows["late"], late.pkEnc(added))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened state:\n got %v\nwant %v", got, want)
		}
	}

	if snap, _ := os.ReadFile(filepath.Join(fixture, snapshotFile)); !isLegacy(snap) {
		t.Fatal("the fixture's snapshot is not gob")
	}
	if segs := walSegments(t, filepath.Join(fixture, "wal")); !reflect.DeepEqual(segs, []int{1, 2}) {
		t.Fatalf("the fixture's segments are %v", segs)
	}
	for _, rec := range walRecords(t, copyDB(t, fixture, 1)) {
		if !isLegacy(rec) {
			t.Fatal("the fixture's log is not all gob")
		}
	}
	done := copyDB(t, fixture, 1)
	t.Run("no crash", func(t *testing.T) { upgrade(t, done) })

	// The upgrade is one Checkpoint: rotate to segment 3, install the new
	// snapshot, drop segments 1 and 2. A fresh upgrade supplies the snapshot
	// and the empty segment 3.
	fresh := copyDB(t, fixture, 1)
	db, err := Open(Options{Dir: fresh})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if segs := walSegments(t, filepath.Join(fresh, "wal")); !reflect.DeepEqual(segs, []int{3}) {
		t.Fatalf("segments after the upgrade: %v", segs)
	}
	for _, cp := range []struct {
		name      string
		installed bool // the new snapshot replaced the gob one
		oldFrom   int  // the gob segments still there
	}{
		{"before install", false, 1},
		{"installed, nothing dropped", true, 1},
		{"installed, first segment dropped", true, 2},
		{"dropped", true, 3},
	} {
		t.Run(cp.name, func(t *testing.T) {
			dir := copyDB(t, fixture, cp.oldFrom)
			copySegments(t, filepath.Join(fresh, "wal"), filepath.Join(dir, "wal"), 3)
			snap := snapshotFile
			if !cp.installed {
				snap += ".tmp"
			}
			copyFile(t, filepath.Join(fresh, snapshotFile), filepath.Join(dir, snap))
			upgrade(t, dir)
			if segs := walSegments(t, filepath.Join(dir, "wal")); segs[0] < 3 {
				t.Errorf("gob segments remain: %v", segs)
			}
		})
	}
}

// copyDB copies a database directory's snapshot and its segments numbered
// from and above into a fresh directory.
func copyDB(t *testing.T, from string, fromSeg int) string {
	t.Helper()
	dir := t.TempDir()
	copyFile(t, filepath.Join(from, snapshotFile), filepath.Join(dir, snapshotFile))
	copySegments(t, filepath.Join(from, "wal"), filepath.Join(dir, "wal"), fromSeg)
	return dir
}
