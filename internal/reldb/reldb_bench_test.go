package reldb

import (
	"fmt"
	"testing"
)

func benchTable() TableDef {
	return TableDef{
		Name: "t",
		Cols: []ColDef{
			{Name: "id", Type: ColInt},
			{Name: "name", Type: ColString},
			{Name: "flag", Type: ColBool},
		},
		Key: []int{0},
	}
}

func BenchmarkInsertMemory(b *testing.B) {
	db := MustOpenMemory()
	defer db.Close()
	db.Update(func(tx *Tx) error { return tx.CreateTable(benchTable()) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := db.Update(func(tx *Tx) error {
			return tx.Insert("t", Row{Int(int64(i)), Str(fmt.Sprintf("n%d", i)), Bool(i%2 == 0)})
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertDurable(b *testing.B) {
	db, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.Update(func(tx *Tx) error { return tx.CreateTable(benchTable()) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := db.Update(func(tx *Tx) error {
			return tx.Insert("t", Row{Int(int64(i)), Str(fmt.Sprintf("n%d", i)), Bool(i%2 == 0)})
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetByPK(b *testing.B) {
	db := MustOpenMemory()
	defer db.Close()
	db.Update(func(tx *Tx) error { return tx.CreateTable(benchTable()) })
	const n = 10_000
	db.Update(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			if err := tx.Insert("t", Row{Int(int64(i)), Str(fmt.Sprintf("n%d", i)), Bool(false)}); err != nil {
				return err
			}
		}
		return nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.View(func(tx *Tx) error {
			_, _, err := tx.Get("t", Int(int64(i%n)))
			return err
		})
	}
}

func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	db.Update(func(tx *Tx) error { return tx.CreateTable(benchTable()) })
	db.Update(func(tx *Tx) error {
		for i := 0; i < 5000; i++ {
			if err := tx.Insert("t", Row{Int(int64(i)), Str("x"), Bool(false)}); err != nil {
				return err
			}
		}
		return nil
	})
	db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}
