package reldb

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestTablesAgainstModel drives seeded random transactions — inserts,
// upserts that replace in place, deletes down to an empty table, a share
// rolled back by a returned error, the table dropped and re-created —
// against a plain map, and after every transaction, after close + reopen
// (WAL replay) and after Checkpoint + reopen requires Scan to yield exactly
// the model's rows, each once. It runs once for each way a table computes
// a stored row's key: a substring of the row when the key is the leading
// columns in order, and built from the values when it is not.
func TestTablesAgainstModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		def  TableDef
		row  func(a int64, b string, v int64) Row
	}{
		{"leading key", TableDef{
			Name: "m",
			Cols: []ColDef{{Name: "a", Type: ColInt}, {Name: "b", Type: ColString}, {Name: "v", Type: ColInt}},
			Key:  []int{0, 1},
		}, func(a int64, b string, v int64) Row { return Row{Int(a), Str(b), Int(v)} }},
		{"key out of column order", TableDef{
			Name: "m",
			Cols: []ColDef{{Name: "v", Type: ColInt}, {Name: "b", Type: ColString}, {Name: "a", Type: ColInt}},
			Key:  []int{2, 1},
		}, func(a int64, b string, v int64) Row { return Row{Int(v), Str(b), Int(a)} }},
	} {
		t.Run(tc.name, func(t *testing.T) { testTableAgainstModel(t, tc.def, tc.row) })
	}
}

// testTableAgainstModel is TestTablesAgainstModel over one table, whose
// rows mk builds from the key values a, b and a payload v.
func testTableAgainstModel(t *testing.T, def TableDef, mk func(a int64, b string, v int64) Row) {
	// Key values straddle varint widths, so encoded-key order (the order
	// Checkpoint writes in) differs from value order.
	as := []int64{-1, 0, 1, 2, 127, 128, 300, 1 << 40}
	bs := []string{"", "a", "ab", "b"}
	dir := t.TempDir()
	open := func() *DB {
		db, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	defer func() { db.Close() }()
	create := func(tx *Tx) error { return tx.CreateTable(def) }
	if err := db.Update(create); err != nil {
		t.Fatal(err)
	}
	model := map[string]Row{}
	check := func(step int, when string) {
		t.Helper()
		var keys []string
		err := db.View(func(tx *Tx) error {
			if n, err := tx.Count("m"); err != nil || n != len(model) {
				t.Fatalf("step %d %s: Count = %d, %v; model has %d", step, when, n, err, len(model))
			}
			return tx.Scan("m", func(r Row) bool {
				pk := def.pkEnc(r)
				if !slices.Equal(r, model[pk]) {
					t.Fatalf("step %d %s: scanned %v, model has %v", step, when, r, model[pk])
				}
				keys = append(keys, pk)
				return true
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		// Scan has no order: compare the key sets.
		slices.Sort(keys)
		if !slices.Equal(keys, slices.Sorted(maps.Keys(model))) {
			t.Fatalf("step %d %s: scanned keys %q are not the model's keys", step, when, keys)
		}
	}

	rng := rand.New(rand.NewSource(1))
	rollback := errors.New("roll back")
	for step := 1; step <= 400; step++ {
		next := maps.Clone(model)
		fail := rng.Intn(4) == 0
		recreate := rng.Intn(100) == 0
		err := db.Update(func(tx *Tx) error {
			if recreate {
				next = map[string]Row{}
				if err := tx.DropTable("m"); err != nil {
					return err
				}
			}
			for n := rng.Intn(8); n > 0 && !recreate; n-- {
				r := mk(as[rng.Intn(len(as))], bs[rng.Intn(len(bs))], int64(step))
				key := r.project(def.Key)
				pk := def.pkEnc(r)
				old, had := next[pk]
				switch op := rng.Intn(20); {
				case op < 7:
					if err := tx.Insert("m", r); had != errors.Is(err, ErrDuplicateKey) || (!had && err != nil) {
						t.Fatalf("step %d: Insert %v = %v, model had it: %v", step, r, err, had)
					}
					if !had {
						next[pk] = r
					}
				case op < 12:
					if err := tx.Upsert("m", r); err != nil {
						return err
					}
					next[pk] = r
				case op < 17:
					if ok, err := tx.Delete("m", key...); err != nil || ok != had {
						t.Fatalf("step %d: Delete %v = %v, %v; model had it: %v", step, key, ok, err, had)
					}
					delete(next, pk)
				case op < 19:
					if got, ok, err := tx.Get("m", key...); err != nil || ok != had || !slices.Equal(got, old) {
						t.Fatalf("step %d: Get %v = %v, %v, %v; model has %v", step, key, got, ok, err, old)
					}
				default: // delete to empty
					for _, row := range next {
						if _, err := tx.Delete("m", row.project(def.Key)...); err != nil {
							return err
						}
					}
					clear(next)
				}
			}
			if fail {
				return rollback
			}
			return nil
		})
		if fail != errors.Is(err, rollback) || (!fail && err != nil) {
			t.Fatalf("step %d: Update = %v", step, err)
		}
		if !fail {
			model = next
			if recreate {
				if err := db.Update(create); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(step, "after the transaction")
		if step%40 == 0 {
			when := "after reopen"
			if step%80 == 0 {
				when = "after checkpoint and reopen"
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = open()
			check(step, when)
		}
	}
}

// pkEnc computes a row's primary-key encoding from its values, the way a
// model of a table keys it.
func (d *TableDef) pkEnc(r Row) string { return string(appendVals(nil, r.project(d.Key))) }

// project extracts the columns at idx.
func (r Row) project(idx []int) []V {
	out := make([]V, len(idx))
	for i, j := range idx {
		out[i] = r[j]
	}
	return out
}
