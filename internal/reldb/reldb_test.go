package reldb

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"orchestra/internal/codec"
)

func testDef() TableDef {
	return TableDef{
		Name: "epochs",
		Cols: []ColDef{
			{Name: "epoch", Type: ColInt},
			{Name: "peer", Type: ColString},
			{Name: "finished", Type: ColBool},
			{Name: "note", Type: ColString, Nullable: true},
		},
		Key: []int{0},
	}
}

func openWithTable(t *testing.T) *DB {
	t.Helper()
	db := MustOpenMemory()
	t.Cleanup(func() { db.Close() })
	if err := db.Update(func(tx *Tx) error { return tx.CreateTable(testDef()) }); err != nil {
		t.Fatal(err)
	}
	return db
}

func row(epoch int64, peer string, finished bool) Row {
	return Row{Int(epoch), Str(peer), Bool(finished), Null()}
}

func TestCreateTableValidation(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	bad := []TableDef{
		{},
		{Name: "x"},
		{Name: "x", Cols: []ColDef{{Name: "a", Type: ColInt}}},
		{Name: "x", Cols: []ColDef{{Name: "a", Type: ColInt}}, Key: []int{5}},
		{Name: "x", Cols: []ColDef{{Name: "a", Type: ColInt, Nullable: true}}, Key: []int{0}},
		{Name: "x", Cols: []ColDef{{Name: "a", Type: ColInt}, {Name: "a", Type: ColInt}}, Key: []int{0}},
		{Name: "x", Cols: []ColDef{{Name: ""}}, Key: []int{0}},
		{Name: "x", Cols: []ColDef{{Name: "a"}}, Key: []int{0}},
	}
	for i, def := range bad {
		if err := db.Update(func(tx *Tx) error { return tx.CreateTable(def) }); err == nil {
			t.Errorf("bad def %d accepted", i)
		}
	}
	// Duplicate table.
	if err := db.Update(func(tx *Tx) error { return tx.CreateTable(testDef()) }); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Tx) error { return tx.CreateTable(testDef()) }); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestInsertGetDelete(t *testing.T) {
	db := openWithTable(t)
	err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("epochs", row(1, "p1", false)); err != nil {
			return err
		}
		return tx.Insert("epochs", row(2, "p2", true))
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.View(func(tx *Tx) error {
		r, ok, err := tx.Get("epochs", Int(1))
		if err != nil || !ok || r[1].S() != "p1" {
			return fmt.Errorf("get(1) = %v %v %v", r, ok, err)
		}
		if _, ok, _ := tx.Get("epochs", Int(9)); ok {
			return fmt.Errorf("get(9) should miss")
		}
		n, err := tx.Count("epochs")
		if err != nil || n != 2 {
			return fmt.Errorf("count = %d %v", n, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate insert.
	err = db.Update(func(tx *Tx) error { return tx.Insert("epochs", row(1, "px", false)) })
	if !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("duplicate insert: %v", err)
	}
	// Upsert replaces.
	if err := db.Update(func(tx *Tx) error { return tx.Upsert("epochs", row(1, "p1", true)) }); err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *Tx) error {
		r, _, _ := tx.Get("epochs", Int(1))
		if !r[2].B() {
			t.Error("upsert did not replace")
		}
		return nil
	})
	// Delete.
	err = db.Update(func(tx *Tx) error {
		ok, err := tx.Delete("epochs", Int(1))
		if err != nil || !ok {
			return fmt.Errorf("delete: %v %v", ok, err)
		}
		ok, err = tx.Delete("epochs", Int(1))
		if err != nil || ok {
			return fmt.Errorf("re-delete: %v %v", ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRowValidation(t *testing.T) {
	db := openWithTable(t)
	cases := []Row{
		{Int(1), Str("p")},                        // arity
		{Str("x"), Str("p"), Bool(false), Null()}, // type mismatch
		{Null(), Str("p"), Bool(false), Null()},   // NULL in NOT NULL
		{Int(1), Str("p"), Bool(false), Int(5)},   // wrong type in nullable col
	}
	for i, r := range cases {
		if err := db.Update(func(tx *Tx) error { return tx.Insert("epochs", r) }); err == nil {
			t.Errorf("bad row %d accepted", i)
		}
	}
	// Nullable column accepts NULL and its declared type.
	ok := []Row{
		{Int(1), Str("p"), Bool(false), Null()},
		{Int(2), Str("p"), Bool(false), Str("note")},
	}
	for i, r := range ok {
		if err := db.Update(func(tx *Tx) error { return tx.Insert("epochs", r) }); err != nil {
			t.Errorf("good row %d rejected: %v", i, err)
		}
	}
}

func TestRollbackOnError(t *testing.T) {
	db := openWithTable(t)
	sentinel := errors.New("boom")
	err := db.Update(func(tx *Tx) error {
		if err := tx.Insert("epochs", row(1, "p1", false)); err != nil {
			return err
		}
		if err := tx.Insert("epochs", row(2, "p2", false)); err != nil {
			return err
		}
		if _, err := tx.NextSeq("s"); err != nil {
			return err
		}
		return sentinel
	})
	if err != sentinel {
		t.Fatalf("err = %v", err)
	}
	db.View(func(tx *Tx) error {
		if n, _ := tx.Count("epochs"); n != 0 {
			t.Errorf("rows after rollback: %d", n)
		}
		if tx.CurrentSeq("s") != 0 {
			t.Errorf("sequence after rollback: %d", tx.CurrentSeq("s"))
		}
		return nil
	})
	// Rollback of an upsert restores the old row; of a delete restores it.
	if err := db.Update(func(tx *Tx) error { return tx.Insert("epochs", row(1, "orig", false)) }); err != nil {
		t.Fatal(err)
	}
	db.Update(func(tx *Tx) error {
		tx.Upsert("epochs", row(1, "changed", true))
		tx.Delete("epochs", Int(1))
		return sentinel
	})
	db.View(func(tx *Tx) error {
		r, ok, _ := tx.Get("epochs", Int(1))
		if !ok || r[1].S() != "orig" {
			t.Errorf("row after rollback: %v %v", r, ok)
		}
		return nil
	})
	// CreateTable rolls back too.
	db.Update(func(tx *Tx) error {
		tx.CreateTable(TableDef{Name: "temp", Cols: []ColDef{{Name: "a", Type: ColInt}}, Key: []int{0}})
		return sentinel
	})
	db.View(func(tx *Tx) error {
		if tx.HasTable("temp") {
			t.Error("table survived rollback")
		}
		return nil
	})
}

func TestReadOnlyTransactionRejectsWrites(t *testing.T) {
	db := openWithTable(t)
	db.View(func(tx *Tx) error {
		if err := tx.Insert("epochs", row(1, "p", false)); err == nil {
			t.Error("insert in View accepted")
		}
		if _, err := tx.Delete("epochs", Int(1)); err == nil {
			t.Error("delete in View accepted")
		}
		if err := tx.CreateTable(testDef()); err == nil {
			t.Error("create in View accepted")
		}
		if _, err := tx.NextSeq("s"); err == nil {
			t.Error("sequence in View accepted")
		}
		return nil
	})
}

func TestScans(t *testing.T) {
	db := openWithTable(t)
	db.Update(func(tx *Tx) error {
		for i := int64(1); i <= 10; i++ {
			peer := "pA"
			if i%2 == 0 {
				peer = "pB"
			}
			if err := tx.Insert("epochs", row(i, peer, false)); err != nil {
				return err
			}
		}
		return nil
	})
	var all []int64
	db.View(func(tx *Tx) error {
		return tx.Scan("epochs", func(r Row) bool {
			all = append(all, r[0].I())
			return true
		})
	})
	// Scan has no order: every row, once.
	slices.Sort(all)
	if !slices.Equal(all, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
		t.Fatalf("scan = %v", all)
	}
	// Early stop.
	n := 0
	db.View(func(tx *Tx) error {
		return tx.Scan("epochs", func(Row) bool { n++; return n < 3 })
	})
	if n != 3 {
		t.Errorf("early stop scan visited %d", n)
	}
}

// TestScanSharesRowsReadOnly: Scan hands out the table's own rows, without
// a copy, and a row kept after its View stays as it was through a later
// Upsert, Delete and rolled-back write of the same key — a write stores a
// fresh Row and never changes a stored one.
func TestScanSharesRowsReadOnly(t *testing.T) {
	db := openWithTable(t)
	if err := db.Update(func(tx *Tx) error { return tx.Insert("epochs", row(1, "pA", false)) }); err != nil {
		t.Fatal(err)
	}
	scan := func() Row {
		var kept Row
		if err := db.View(func(tx *Tx) error {
			return tx.Scan("epochs", func(r Row) bool { kept = r; return false })
		}); err != nil {
			t.Fatal(err)
		}
		return kept
	}
	kept := scan()
	if again := scan(); &again[0] != &kept[0] {
		t.Error("Scan copied a row")
	}
	want := slices.Clone(kept)
	writes := []func(tx *Tx) error{
		func(tx *Tx) error { return tx.Upsert("epochs", row(1, "pB", true)) },
		func(tx *Tx) error {
			if err := tx.Upsert("epochs", row(1, "pC", false)); err != nil {
				return err
			}
			return errors.New("roll back")
		},
		func(tx *Tx) error { _, err := tx.Delete("epochs", Int(1)); return err },
	}
	for i, w := range writes {
		db.Update(w)
		if !kept.Equal(want) {
			t.Fatalf("write %d changed a scanned row: %v, want %v", i, kept, want)
		}
	}
}

func TestSequences(t *testing.T) {
	db := openWithTable(t)
	var got []int64
	db.Update(func(tx *Tx) error {
		for i := 0; i < 3; i++ {
			n, err := tx.NextSeq("epoch")
			if err != nil {
				return err
			}
			got = append(got, n)
		}
		return nil
	})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("sequence = %v", got)
	}
	db.View(func(tx *Tx) error {
		if tx.CurrentSeq("epoch") != 3 {
			t.Errorf("CurrentSeq = %d", tx.CurrentSeq("epoch"))
		}
		if tx.CurrentSeq("other") != 0 {
			t.Errorf("unknown sequence = %d", tx.CurrentSeq("other"))
		}
		return nil
	})
}

func TestUnknownTableErrors(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	checks := []func(tx *Tx) error{
		func(tx *Tx) error { return tx.Insert("nope", Row{Int(1)}) },
		func(tx *Tx) error { _, err := tx.Delete("nope", Int(1)); return err },
		func(tx *Tx) error { _, _, err := tx.Get("nope", Int(1)); return err },
		func(tx *Tx) error { _, err := tx.Count("nope"); return err },
		func(tx *Tx) error { return tx.Scan("nope", func(Row) bool { return true }) },
	}
	for i, fn := range checks {
		if err := db.Update(fn); !errors.Is(err, ErrNoTable) {
			t.Errorf("check %d: err = %v", i, err)
		}
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.Update(func(tx *Tx) error { return tx.CreateTable(testDef()) })
	db.Update(func(tx *Tx) error {
		for i := int64(1); i <= 5; i++ {
			if err := tx.Insert("epochs", row(i, "p", i%2 == 0)); err != nil {
				return err
			}
		}
		_, err := tx.NextSeq("epoch")
		return err
	})
	db.Update(func(tx *Tx) error {
		_, err := tx.Delete("epochs", Int(3))
		return err
	})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.View(func(tx *Tx) error {
		n, _ := tx.Count("epochs")
		if n != 4 {
			t.Errorf("rows after recovery: %d", n)
		}
		if _, ok, _ := tx.Get("epochs", Int(3)); ok {
			t.Error("deleted row resurrected")
		}
		if tx.CurrentSeq("epoch") != 1 {
			t.Errorf("sequence after recovery: %d", tx.CurrentSeq("epoch"))
		}
		return nil
	})
}

func TestCheckpointAndRecover(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db.Update(func(tx *Tx) error { return tx.CreateTable(testDef()) })
	db.Update(func(tx *Tx) error { return tx.Insert("epochs", row(1, "pre", false)) })
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes land in the fresh WAL.
	db.Update(func(tx *Tx) error { return tx.Insert("epochs", row(2, "post", false)) })
	db.Close()

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.View(func(tx *Tx) error {
		n, _ := tx.Count("epochs")
		if n != 2 {
			t.Errorf("rows after snapshot+wal recovery: %d", n)
		}
		r, ok, _ := tx.Get("epochs", Int(1))
		if !ok || r[1].S() != "pre" {
			t.Errorf("snapshot row: %v %v", r, ok)
		}
		r, ok, _ = tx.Get("epochs", Int(2))
		if !ok || r[1].S() != "post" {
			t.Errorf("wal row: %v %v", r, ok)
		}
		return nil
	})
}

func TestInMemoryCheckpointNoop(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	if err := db.Checkpoint(); err != nil {
		t.Errorf("in-memory checkpoint: %v", err)
	}
}

func TestClosedDB(t *testing.T) {
	db := MustOpenMemory()
	db.Close()
	if err := db.Update(func(*Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Update after close: %v", err)
	}
	if err := db.View(func(*Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("View after close: %v", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint after close: %v", err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close: %v", err)
	}
}

func TestValueAccessorsAndStrings(t *testing.T) {
	vals := []V{Null(), Str("s"), Int(-7), Float(1.5), Bool(true), Bytes([]byte{1, 2})}
	for _, v := range vals {
		if v.String() == "" {
			t.Errorf("%v: empty String", v.Type())
		}
		r := reader{Reader: codec.NewReader(v.appendEncoded(nil))}
		if dec := r.value(); r.End() != nil || dec != v {
			t.Errorf("%v: decoded %v, %v", v, dec, r.End())
		}
	}
	for what, bad := range map[string][]byte{
		"truncated varint":    {byte(ColInt), 0x80},
		"10-byte overflow":    append(append([]byte{byte(ColInt)}, bytes.Repeat([]byte{0xff}, 9)...), 0x02),
		"string past the end": {byte(ColString), 0x05, 'a'},
	} {
		r := reader{Reader: codec.NewReader(bad)}
		if r.value(); r.End() == nil {
			t.Errorf("%s: decoded", what)
		}
	}
	if !Null().IsNull() || Str("x").IsNull() {
		t.Error("IsNull broken")
	}
	if Str("s").S() != "s" || Int(-7).I() != -7 || Float(1.5).F() != 1.5 || !Bool(true).B() {
		t.Error("accessors broken")
	}
	if string(Bytes([]byte{1, 2}).Raw()) != "\x01\x02" {
		t.Error("Raw broken")
	}
	for ct, want := range map[ColType]string{
		ColString: "string", ColInt: "int", ColFloat: "float",
		ColBool: "bool", ColBytes: "bytes", ColType(9): "coltype(9)",
	} {
		if ct.String() != want {
			t.Errorf("%d.String() = %q", ct, ct.String())
		}
	}
	r := Row{Int(1), Str("a")}
	if !r.Equal(r.Clone()) || r.Equal(Row{Int(1)}) || r.Equal(Row{Int(1), Str("b")}) {
		t.Error("Row.Equal broken")
	}
}

func TestTableDefHelpers(t *testing.T) {
	db := openWithTable(t)
	if got, ok := db.TableDef("epochs"); !ok || got.Name != "epochs" {
		t.Error("TableDef broken")
	}
	if _, ok := db.TableDef("nope"); ok {
		t.Error("TableDef for unknown table")
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "epochs" {
		t.Errorf("TableNames = %v", names)
	}
}
