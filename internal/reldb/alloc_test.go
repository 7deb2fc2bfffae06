package reldb

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestDurableInsertAllocations pins the write path: a steady-state Update
// that inserts one 3-column row into a durable database encodes the row
// once, into the one string the table stores and the WAL record copies,
// on a reused transaction whose record buffer, undo list and commit
// waiter are all reused. Building the row's name takes an allocation or
// two of its own; the budget is 8 (a Row-valued table on a fresh Tx per
// Update took 18).
func TestDurableInsertAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	db, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Update(func(tx *Tx) error { return tx.CreateTable(benchTable()) }); err != nil {
		t.Fatal(err)
	}
	var i int64
	insert := func(tx *Tx) error {
		i++
		return tx.Insert("t", Row{Int(i), Str(fmt.Sprintf("n%d", i)), Bool(i%2 == 0)})
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if err := db.Update(insert); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.2f allocations per durable one-row insert", allocs)
	if allocs > 8 {
		t.Errorf("a durable one-row insert made %.1f allocations, want at most 8", allocs)
	}
}

// TestReplayAllocations pins recovery: Open hands replay each logged row's
// bytes, checked in place, and stores them as one string per row, its key
// a substring of it. Opening a 5 000-row log may make 1.1 allocations per
// row, the rest being the maps' growth and Open's own fixed cost (a
// decoded []V per row, with a string per value, took about 4).
func TestReplayAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const rows = 5000
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return tx.CreateTable(benchTable()) }); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error {
		for i := 0; i < rows; i++ {
			if err := tx.Insert("t", Row{Int(int64(i)), Str(fmt.Sprintf("n%d", i)), Bool(false)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		db, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		db.Close()
	})
	t.Logf("%.0f allocations for a %d-row log, %.3f per row", allocs, rows, allocs/rows)
	if perRow := allocs / rows; perRow > 1.1 {
		t.Errorf("Open of a %d-row log made %.0f allocations, %.2f per row; want at most 1.1", rows, allocs, perRow)
	}
}

// TestPooledTxStartsClean: a transaction is reused once its Update
// returns, so nothing a rolled-back one wrote — record bytes, undo steps,
// scratch, created tables, locks — may reach the next. A database that
// rolls back a transaction full of writes between two commits must log
// exactly the records, byte for byte, and hold exactly the state of one
// that only ran the commits.
func TestPooledTxStartsClean(t *testing.T) {
	commits := []func(tx *Tx) error{
		func(tx *Tx) error { return tx.CreateTable(benchTable()) },
		func(tx *Tx) error {
			if err := tx.Insert("t", Row{Int(1), Str("one"), Bool(true)}); err != nil {
				return err
			}
			_, err := tx.NextSeq("epoch")
			return err
		},
		func(tx *Tx) error {
			if err := tx.Upsert("t", Row{Int(1), Str("uno"), Bool(false)}); err != nil {
				return err
			}
			return tx.Insert("t", Row{Int(2), Str("two"), Bool(true)})
		},
	}
	rollback := errors.New("roll back")
	rolledBack := func(tx *Tx) error {
		if err := tx.CreateTable(TableDef{Name: "gone", Cols: []ColDef{{Name: "k", Type: ColInt}}, Key: []int{0}}); err != nil {
			return err
		}
		for i := int64(1); i <= 50; i++ {
			if err := tx.Upsert("t", Row{Int(i), Str(fmt.Sprintf("rolled back %d", i)), Bool(true)}); err != nil {
				return err
			}
		}
		if _, err := tx.Delete("t", Int(1)); err != nil {
			return err
		}
		if _, err := tx.AdvanceSeq("epoch", 100); err != nil {
			return err
		}
		return rollback
	}

	run := func(withRollback bool) (*DB, [][]byte) {
		dir := t.TempDir()
		db, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		for i, fn := range commits {
			if withRollback && i > 0 {
				if err := db.Update(rolledBack); !errors.Is(err, rollback) {
					t.Fatalf("rolled-back Update = %v", err)
				}
			}
			if err := db.Update(fn); err != nil {
				t.Fatal(err)
			}
		}
		return db, walRecords(t, dir)
	}
	db, got := run(true)
	fresh, want := run(false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records after a rollback differ from a fresh database's:\n got %x\nwant %x", got, want)
	}
	if !reflect.DeepEqual(stateOf(db), stateOf(fresh)) {
		t.Fatalf("state after a rollback differs from a fresh database's:\n got %v\nwant %v", stateOf(db), stateOf(fresh))
	}
}
