package central

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/reldb"
	"orchestra/internal/store/storetest"
)

// defaultTableShards is the shard count layout 4 gave a new directory.
const defaultTableShards = 8

// layout5Tables is every table a single-tenant layout-5 directory has.
var layout5Tables = []string{"decisions", "idempotency", "meta", "peers", "snapshots", "trust", "txns"}

// assertLayout5 checks that s's directory is layout 5: exactly the
// layout-5 tables, no shard or epochs table, and a meta table that records
// layout 5 and no table_shards.
func assertLayout5(t *testing.T, s *Store) {
	t.Helper()
	names := s.db.TableNames()
	slices.Sort(names)
	if !reflect.DeepEqual(names, layout5Tables) {
		t.Errorf("tables %v, want %v", names, layout5Tables)
	}
	err := s.db.View(func(tx *reldb.Tx) error {
		r, ok, err := tx.Get(s.metaTab, reldb.Str("layout"))
		if err != nil || !ok || r[1].I() != layoutVersion {
			t.Errorf("meta layout = %v (present %v, err %v), want %d", r, ok, err, layoutVersion)
		}
		if _, ok, _ := tx.Get(s.metaTab, reldb.Str("table_shards")); ok {
			t.Error("meta still records table_shards")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFreshDirectoryLayout5: a new directory, written to, has only the
// layout-5 tables, and its meta records no shard count.
func TestFreshDirectoryLayout5(t *testing.T) {
	s, err := Open(storetest.Schema(t), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RegisterPeer(context.Background(), "pa", core.TrustAll(1)); err != nil {
		t.Fatal(err)
	}
	pubBatch(t, s, "pa", 1, 3)
	assertLayout5(t, s)
}

// TestUpgradeLayout4: Open upgrades a directory that commit e631cd3 wrote
// in layout 4 (testdata, made by writeLayoutFixture; CHANGES.md gives the
// commands), at 8 shards and at 4: the upgraded store reads out the
// transcript e631cd3 read from the same directory, the directory is
// layout 5, and a reopen reads the same again.
func TestUpgradeLayout4(t *testing.T) {
	schema := storetest.Schema(t)
	for _, shards := range []int{8, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fixture := fmt.Sprintf("testdata/layout4-%dshards", shards)
			want, err := os.ReadFile(fixture + ".transcript")
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
				t.Fatal(err)
			}
			assertShardTables(t, dir, shards)
			for _, pass := range []string{"upgrade", "reopen"} {
				s, err := Open(schema, dir)
				if err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				if got := storeTranscript(t, s); got != string(want) {
					t.Errorf("%s: transcript differs from the one e631cd3 recorded:\n--- got ---\n%s\n--- want ---\n%s", pass, got, want)
				}
				assertLayout5(t, s)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// assertShardTables checks that dir holds a layout-4 directory of n
// shards, with rows in every txns_k and decisions_k table.
func assertShardTables(t *testing.T, dir string, n int) {
	t.Helper()
	db, err := reldb.Open(reldb.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	err = db.View(func(tx *reldb.Tx) error {
		for _, key := range []struct {
			name string
			want int64
		}{{"layout", 4}, {"table_shards", int64(n)}} {
			if r, ok, err := tx.Get("meta", reldb.Str(key.name)); err != nil || !ok || r[1].I() != key.want {
				t.Errorf("fixture meta %s = %v (present %v, err %v), want %d", key.name, r, ok, err, key.want)
			}
		}
		for k := range n {
			for _, tab := range []string{fmt.Sprintf("txns_%02d", k), fmt.Sprintf("decisions_%02d", k)} {
				if rows, err := tx.Count(tab); err != nil || rows == 0 {
					t.Errorf("fixture table %s: %d rows, err %v; want rows", tab, rows, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeLayout4RefusesCollision: a layout-4 directory in which two
// shards hold a row under the same key is corrupt. Open fails naming the
// table, and the rolled-back upgrade leaves every file as it was.
func TestUpgradeLayout4RefusesCollision(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/layout4-4shards")); err != nil {
		t.Fatal(err)
	}
	db, err := reldb.Open(reldb.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Update(func(tx *reldb.Tx) error {
		var dup reldb.Row
		if err := tx.Scan("txns_00", func(r reldb.Row) bool {
			dup = slices.Clone(r)
			return false
		}); err != nil {
			return err
		}
		return tx.Insert("txns_01", dup)
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
		t.Fatal("Open upgraded a directory whose shards share a txns key")
	}
	if !strings.Contains(err.Error(), "txns_01") {
		t.Errorf("Open = %v, want an error naming txns_01", err)
	}
	if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Error("a failed upgrade changed the directory")
	}
}
