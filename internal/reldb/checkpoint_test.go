package reldb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"orchestra/internal/wal"
)

// walSegments lists the segment numbers present in the WAL directory.
func walSegments(t *testing.T, walDir string) []int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, n := range names {
		i, err := strconv.Atoi(strings.TrimSuffix(filepath.Base(n), ".wal"))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copySegments copies the segments numbered from and above between two WAL
// directories, creating the destination.
func copySegments(t *testing.T, fromDir, toDir string, from int) {
	t.Helper()
	if err := os.MkdirAll(toDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, i := range walSegments(t, fromDir) {
		if name := fmt.Sprintf("%08d.wal", i); i >= from {
			copyFile(t, filepath.Join(fromDir, name), filepath.Join(toDir, name))
		}
	}
}

// TestCheckpointCrashPoints builds, by file manipulation, every directory a
// crash inside Checkpoint can leave behind and requires each to open with
// the pre-checkpoint state, take a write that survives a reopen, and hold
// no segment the snapshot already contains. The log is one record per
// segment, with a CreateTable in its middle, so that "a suffix of the old
// segments over the new snapshot" replays a create the snapshot has.
func TestCheckpointCrashPoints(t *testing.T) {
	for _, syncOnCommit := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", syncOnCommit), func(t *testing.T) {
			testCheckpointCrashPoints(t, syncOnCommit)
		})
	}
}

func testCheckpointCrashPoints(t *testing.T, syncOnCommit bool) {
	open := func(dir string) (*DB, error) { return Open(Options{Dir: dir, SyncOnCommit: syncOnCommit}) }
	// Five commits, then the same five records re-appended one per segment
	// (reldb itself opens its log with the default 4 MB segments).
	base, before := t.TempDir(), filepath.Join(t.TempDir(), "wal")
	baseWAL := filepath.Join(base, "wal")
	db, err := open(base)
	if err != nil {
		t.Fatal(err)
	}
	aux := TableDef{Name: "aux", Cols: []ColDef{{Name: "k", Type: ColInt}}, Key: []int{0}}
	for _, fn := range []func(tx *Tx) error{
		func(tx *Tx) error { return tx.CreateTable(testDef()) },
		func(tx *Tx) error { return tx.Insert("epochs", row(1, "p", false)) },
		func(tx *Tx) error { return tx.CreateTable(aux) },
		func(tx *Tx) error { return tx.Insert("aux", Row{Int(7)}) },
		func(tx *Tx) error { tx.NextSeq("epoch"); return tx.Insert("epochs", row(2, "q", true)) },
	} {
		if err := db.Update(fn); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	whole, err := wal.Open(baseWAL, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	split, err := wal.Open(before, wal.Options{SegmentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.Replay(split.Append); err != nil {
		t.Fatal(err)
	}
	whole.Close()
	split.Close()
	if segs := walSegments(t, before); len(segs) != 5 {
		t.Fatalf("pre-checkpoint log: segments %v, want one per commit", segs)
	}
	os.RemoveAll(baseWAL)
	copySegments(t, before, baseWAL, 0)
	if db, err = open(base); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	mark := walSegments(t, baseWAL)[0] // the lowest segment a finished checkpoint keeps

	// Each crash point: is the new snapshot installed, and which of the
	// old segments are still there.
	for _, cp := range []struct {
		name      string
		installed bool
		oldFrom   int
	}{
		{"before install", false, 0},
		{"installed, every old segment", true, 0},
		{"installed, suffix from the create", true, 2},
		{"installed, last old segment", true, 4},
	} {
		t.Run(cp.name, func(t *testing.T) {
			dir := t.TempDir()
			snap := snapshotFile
			if !cp.installed {
				snap += ".tmp"
			}
			copyFile(t, filepath.Join(base, snapshotFile), filepath.Join(dir, snap))
			copySegments(t, baseWAL, filepath.Join(dir, "wal"), 0)
			copySegments(t, before, filepath.Join(dir, "wal"), cp.oldFrom)

			check := func(pass string, epochs int) *DB {
				db, err := open(dir)
				if err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				db.View(func(tx *Tx) error {
					if n, _ := tx.Count("epochs"); n != epochs {
						t.Errorf("%s: %d epochs rows, want %d", pass, n, epochs)
					}
					if r, ok, _ := tx.Get("epochs", Int(2)); !ok || r[1].S() != "q" {
						t.Errorf("%s: epochs row 2 = %v, %v", pass, r, ok)
					}
					if _, ok, _ := tx.Get("aux", Int(7)); !ok {
						t.Errorf("%s: aux row lost", pass)
					}
					if tx.CurrentSeq("epoch") != 1 {
						t.Errorf("%s: sequence = %d", pass, tx.CurrentSeq("epoch"))
					}
					return nil
				})
				if segs := walSegments(t, filepath.Join(dir, "wal")); cp.installed && segs[0] < mark {
					t.Errorf("%s: segments %v remain below the snapshot's mark %d", pass, segs, mark)
				}
				return db
			}
			db := check("open", 2)
			if err := db.Update(func(tx *Tx) error { return tx.Insert("epochs", row(3, "r", false)) }); err != nil {
				t.Fatal(err)
			}
			db.Close()
			db = check("reopen", 3)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			db.Close()
			check("reopen after a second checkpoint", 3).Close()
		})
	}
}
