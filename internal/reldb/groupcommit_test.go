package reldb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

func openGC(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func createN(t *testing.T, db *DB, tables int) {
	t.Helper()
	err := db.Update(func(tx *Tx) error {
		for i := 0; i < tables; i++ {
			if err := tx.CreateTable(TableDef{
				Name: fmt.Sprintf("t%d", i),
				Cols: []ColDef{{Name: "id", Type: ColInt}, {Name: "a", Type: ColInt}, {Name: "b", Type: ColInt}},
				Key:  []int{0},
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitDurability: many concurrent committers across tables;
// every commit must be durable across reopen, and every durable commit must
// have ridden a group flush.
func TestGroupCommitDurability(t *testing.T) {
	const (
		tables    = 3
		workers   = 6
		perWorker = 40
	)
	dir := t.TempDir()
	db := openGC(t, dir)
	createN(t, db, tables)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			table := fmt.Sprintf("t%d", w%tables)
			for i := 0; i < perWorker; i++ {
				id := int64(w*perWorker + i)
				if err := db.Update(func(tx *Tx) error {
					if err := tx.Insert(table, Row{Int(id), Int(id), Int(id)}); err != nil {
						return err
					}
					_, err := tx.NextSeq("s")
					return err
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	snap := db.Metrics().Snapshot()
	if snap.Commits != int64(workers*perWorker)+1 { // +1 for the table DDL
		t.Errorf("commits = %d, want %d", snap.Commits, workers*perWorker+1)
	}
	if snap.GroupedCommits != snap.Commits {
		t.Errorf("grouped commits = %d, commits = %d: durable commits bypassed the group path", snap.GroupedCommits, snap.Commits)
	}
	if snap.GroupFlushes == 0 || snap.GroupFlushes > snap.GroupedCommits {
		t.Errorf("flushes = %d for %d grouped commits", snap.GroupFlushes, snap.GroupedCommits)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openGC(t, dir)
	defer db2.Close()
	db2.View(func(tx *Tx) error {
		total := 0
		for i := 0; i < tables; i++ {
			n, err := tx.Count(fmt.Sprintf("t%d", i))
			if err != nil {
				t.Fatal(err)
			}
			total += n
		}
		if total != workers*perWorker {
			t.Errorf("recovered %d rows, want %d", total, workers*perWorker)
		}
		if got := tx.CurrentSeq("s"); got != int64(workers*perWorker) {
			t.Errorf("recovered sequence = %d, want %d", got, workers*perWorker)
		}
		return nil
	})
}

// lastSegment returns the path of the highest-numbered WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) == 0 {
		t.Fatal("no wal segments")
	}
	sort.Strings(names)
	return filepath.Join(dir, "wal", names[len(names)-1])
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitCrashMidFlush simulates a crash in the middle of a group
// flush: fully flushed groups are on disk, the dying flush left a torn (or
// corrupt) record at the tail. Reopen must replay every committed group
// and drop the uncommitted tail, and the log must keep working afterwards.
func TestGroupCommitCrashMidFlush(t *testing.T) {
	torn := func(t *testing.T, seg string) {
		// A record whose frame claims 64 payload bytes but only 10 made it
		// to disk before the "crash".
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], 64)
		binary.LittleEndian.PutUint32(hdr[4:8], 0xdeadbeef)
		appendBytes(t, seg, append(hdr[:], make([]byte, 10)...))
	}
	corrupt := func(t *testing.T, seg string) {
		// A complete frame whose payload was only partially written: the
		// length is right but the checksum no longer matches.
		payload := []byte("half-written group commit payload")
		good := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], good)
		payload[0] ^= 0xff // flip a bit after the CRC was computed
		appendBytes(t, seg, append(hdr[:], payload...))
	}
	for name, damage := range map[string]func(*testing.T, string){"torn": torn, "corrupt": corrupt} {
		t.Run(name, func(t *testing.T) {
			const committed = 5
			dir := t.TempDir()
			db := openGC(t, dir)
			createN(t, db, 1)
			for i := 0; i < committed; i++ {
				if err := db.Update(func(tx *Tx) error {
					return tx.Insert("t0", Row{Int(int64(i)), Int(0), Int(0)})
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			damage(t, lastSegment(t, dir))

			db2 := openGC(t, dir)
			db2.View(func(tx *Tx) error {
				n, err := tx.Count("t0")
				if err != nil {
					t.Fatal(err)
				}
				if n != committed {
					t.Errorf("recovered %d rows, want %d (committed groups must replay, tail must drop)", n, committed)
				}
				return nil
			})
			// The truncated log accepts and preserves new commits.
			if err := db2.Update(func(tx *Tx) error {
				return tx.Insert("t0", Row{Int(100), Int(0), Int(0)})
			}); err != nil {
				t.Fatal(err)
			}
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}
			db3 := openGC(t, dir)
			defer db3.Close()
			db3.View(func(tx *Tx) error {
				n, _ := tx.Count("t0")
				if n != committed+1 {
					t.Errorf("rows after post-crash commit = %d, want %d", n, committed+1)
				}
				if _, ok, _ := tx.Get("t0", Int(100)); !ok {
					t.Error("post-crash commit lost")
				}
				return nil
			})
		})
	}
}

// TestConcurrentCommittersAcrossTables is the -race stress for the
// per-table locking engine: writers hammer disjoint tables (plus a shared
// one) while readers continuously check row invariants, in memory and
// through the WAL group committer.
func TestConcurrentCommittersAcrossTables(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			const (
				tables    = 4
				writers   = 8
				perWriter = 50
				readers   = 3
			)
			dir := ""
			if durable {
				dir = t.TempDir()
			}
			db, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			createN(t, db, tables)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			// Writers: each owns rows keyed by its id; invariant a == b in
			// every committed row, updated together in one transaction.
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					table := fmt.Sprintf("t%d", w%tables)
					for i := 0; i < perWriter; i++ {
						v := int64(i)
						if err := db.Update(func(tx *Tx) error {
							return tx.Upsert(table, Row{Int(int64(w)), Int(v), Int(v)})
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			// Readers: Views across all tables must never see a torn row.
			var rg sync.WaitGroup
			for r := 0; r < readers; r++ {
				rg.Add(1)
				go func() {
					defer rg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						err := db.View(func(tx *Tx) error {
							for i := 0; i < tables; i++ {
								if err := tx.Scan(fmt.Sprintf("t%d", i), func(r Row) bool {
									if r[1].I() != r[2].I() {
										t.Errorf("torn row: %v", r)
									}
									return true
								}); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			rg.Wait()

			db.View(func(tx *Tx) error {
				total := 0
				for i := 0; i < tables; i++ {
					n, _ := tx.Count(fmt.Sprintf("t%d", i))
					total += n
				}
				if total != writers {
					t.Errorf("final rows = %d, want %d", total, writers)
				}
				return nil
			})
		})
	}
}

// TestDisjointUpdatesRunConcurrently: an Update stalled inside its
// callback must not block an Update on a different table (the point of
// per-table locking), while a same-table Update must wait.
func TestDisjointUpdatesRunConcurrently(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	createN(t, db, 2)

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- db.Update(func(tx *Tx) error {
			if err := tx.Insert("t0", Row{Int(1), Int(0), Int(0)}); err != nil {
				return err
			}
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered
	// A writer on the other table proceeds while t0's lock is held.
	finished := make(chan error, 1)
	go func() {
		finished <- db.Update(func(tx *Tx) error {
			return tx.Insert("t1", Row{Int(1), Int(0), Int(0)})
		})
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("disjoint-table Update blocked behind an open transaction")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
