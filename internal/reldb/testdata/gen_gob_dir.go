//go:build ignore

// gen_gob_dir writes testdata/gob-dir: a reldb directory in the gob format
// of commit 99620f2, the last one before record.go — a snapshot.db plus a
// WAL tail spanning two segments. It uses only API that commit has, and
// must be run from a checkout of it (the current tree no longer writes
// gob):
//
//	git archive 99620f2 | tar -x -C /tmp/parent
//	cp internal/reldb/testdata/gen_gob_dir.go /tmp/parent/internal/reldb/testdata/
//	(cd /tmp/parent && go run ./internal/reldb/testdata/gen_gob_dir.go "$OLDPWD/internal/reldb/testdata/gob-dir")
//
// TestUpgradeLegacyDir (legacy_test.go) knows the state this leaves.
package main

import (
	"log"
	"math"
	"os"
	"path/filepath"

	"orchestra/internal/reldb"
	"orchestra/internal/wal"
)

func main() {
	dir := os.Args[1]
	if err := os.RemoveAll(dir); err != nil {
		log.Fatal(err)
	}
	db, err := reldb.Open(reldb.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	update := func(fn func(tx *reldb.Tx) error) {
		if err := db.Update(fn); err != nil {
			log.Fatal(err)
		}
	}
	people := reldb.TableDef{Name: "people", Key: []int{0}, Cols: []reldb.ColDef{
		{Name: "id", Type: reldb.ColInt},
		{Name: "name", Type: reldb.ColString},
		{Name: "score", Type: reldb.ColFloat, Nullable: true},
		{Name: "active", Type: reldb.ColBool},
		{Name: "blob", Type: reldb.ColBytes, Nullable: true},
	}}
	edges := reldb.TableDef{Name: "edges", Key: []int{0, 1}, Cols: []reldb.ColDef{
		{Name: "src", Type: reldb.ColString},
		{Name: "dst", Type: reldb.ColInt},
		{Name: "w", Type: reldb.ColInt},
	}}
	gone := reldb.TableDef{Name: "gone", Key: []int{0}, Cols: []reldb.ColDef{{Name: "k", Type: reldb.ColInt}}}
	late := reldb.TableDef{Name: "late", Key: []int{1}, Cols: []reldb.ColDef{
		{Name: "v", Type: reldb.ColString, Nullable: true},
		{Name: "k", Type: reldb.ColString},
	}}

	// What the snapshot holds.
	update(func(tx *reldb.Tx) error {
		for _, def := range []reldb.TableDef{people, edges, gone} {
			if err := tx.CreateTable(def); err != nil {
				return err
			}
		}
		return nil
	})
	update(func(tx *reldb.Tx) error {
		for _, r := range []reldb.Row{
			{reldb.Int(1), reldb.Str("ada"), reldb.Float(1.5), reldb.Bool(true), reldb.Bytes([]byte{0, 1, 2})},
			{reldb.Int(2), reldb.Str(""), reldb.Null(), reldb.Bool(false), reldb.Null()},
			{reldb.Int(math.MinInt64), reldb.Str("min"), reldb.Float(math.Inf(-1)), reldb.Bool(true), reldb.Bytes(nil)},
		} {
			if err := tx.Insert("people", r); err != nil {
				return err
			}
		}
		if err := tx.Insert("edges", reldb.Row{reldb.Str("a"), reldb.Int(1), reldb.Int(10)}); err != nil {
			return err
		}
		if err := tx.Insert("edges", reldb.Row{reldb.Str("a"), reldb.Int(2), reldb.Int(20)}); err != nil {
			return err
		}
		if err := tx.Insert("gone", reldb.Row{reldb.Int(7)}); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if _, err := tx.NextSeq("epoch"); err != nil {
				return err
			}
		}
		return nil
	})
	if err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}

	// The WAL tail: one commit per op kind and more.
	update(func(tx *reldb.Tx) error {
		return tx.Insert("people", reldb.Row{reldb.Int(math.MaxInt64), reldb.Str("max"), reldb.Float(0), reldb.Bool(false), reldb.Null()})
	})
	update(func(tx *reldb.Tx) error {
		return tx.Upsert("people", reldb.Row{reldb.Int(2), reldb.Str("bob"), reldb.Float(2.25), reldb.Bool(true), reldb.Bytes([]byte("xyz"))})
	})
	update(func(tx *reldb.Tx) error {
		if _, err := tx.Delete("edges", reldb.Str("a"), reldb.Int(1)); err != nil {
			return err
		}
		return tx.Insert("edges", reldb.Row{reldb.Str("b"), reldb.Int(-1), reldb.Int(30)})
	})
	update(func(tx *reldb.Tx) error { return tx.DropTable("gone") })
	update(func(tx *reldb.Tx) error {
		if err := tx.CreateTable(late); err != nil {
			return err
		}
		return tx.Insert("late", reldb.Row{reldb.Null(), reldb.Str("k1")})
	})
	update(func(tx *reldb.Tx) error {
		if _, err := tx.AdvanceSeq("other", 5); err != nil {
			return err
		}
		_, err := tx.NextSeq("epoch")
		return err
	})
	update(func(tx *reldb.Tx) error {
		_, err := tx.Delete("people", reldb.Int(1))
		return err
	})
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	// The checkpoint left the tail in segment 1; re-append it over two.
	walDir := filepath.Join(dir, "wal")
	l, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var tail [][]byte
	total := 0
	if err := l.Replay(func(p []byte) error {
		tail = append(tail, append([]byte(nil), p...))
		total += len(p)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	l.Close()
	if err := os.RemoveAll(walDir); err != nil {
		log.Fatal(err)
	}
	if l, err = wal.Open(walDir, wal.Options{SegmentSize: int64(total / 2)}); err != nil {
		log.Fatal(err)
	}
	if err := l.RemoveBefore(1); err != nil {
		log.Fatal(err)
	}
	for _, p := range tail {
		if err := l.Append(p); err != nil {
			log.Fatal(err)
		}
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(walDir, "*.wal"))
	log.Printf("wrote %s: %d tail records over %v", dir, len(tail), segs)
}
