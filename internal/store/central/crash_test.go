package central

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/reldb"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
)

// tearLastWALRecord truncates the store's newest WAL segment in the middle
// of its final record — the exact on-disk state a crash mid-flush leaves
// behind. Under group commit a flush writes its records back to back in one
// buffer, so "mid-flush" and "mid-record" produce the same torn tail: every
// record before the tear survives, the torn record and everything after it
// is gone. It returns how many complete records remain.
func tearLastWALRecord(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s: %v", dir, err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the frames (4-byte length, 4-byte CRC, payload) to find the
	// start of the final record.
	var off, lastStart, lastLen int
	count := 0
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if off+8+n > len(data) {
			break
		}
		lastStart, lastLen = off, n
		off += 8 + n
		count++
	}
	if count == 0 {
		t.Fatalf("wal segment %s holds no complete record", last)
	}
	// Keep the header and roughly half the payload of the last record: a
	// torn frame, not a clean boundary.
	if err := os.Truncate(last, int64(lastStart+8+lastLen/2)); err != nil {
		t.Fatal(err)
	}
	return count - 1
}

// TestShardedCrashTornPublish kills a sharded store "mid-publish": several
// publishes have committed into different epoch-shards' tables, and the
// final publish's WAL record is torn — the state a crash leaves when some
// shards' WAL groups reached the disk and the last one didn't. Recovery
// must void the torn epoch everywhere (no txns, no epoch row, no
// self-accept decisions in any shard), keep every completed publish, leave
// the stable frontier past the void, and keep the log writable.
func TestShardedCrashTornPublish(t *testing.T) {
	const (
		publishes = 6
		perBatch  = 2
	)
	schema := storetest.Schema(t)
	dir := t.TempDir()
	ctx := context.Background()
	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	peers := []core.PeerID{"pub0", "pub1", "pub2"}
	for _, p := range peers {
		if err := s.RegisterPeer(ctx, p, core.TrustAll(1)); err != nil {
			t.Fatal(err)
		}
	}
	var published []core.TxnID // txns of completed publishes
	var tornIDs []core.TxnID   // txns of the final, torn publish
	tornPeer := peers[(publishes-1)%len(peers)]
	for i := 0; i < publishes; i++ {
		p := peers[i%len(peers)]
		batch := make([]store.PublishedTxn, perBatch)
		for k := range batch {
			id := core.TxnID{Origin: p, Seq: uint64(i*perBatch + k)}
			batch[k] = store.PublishedTxn{Txn: core.NewTransaction(id,
				core.Insert("F", core.Strs(string(p), fmt.Sprintf("prot-%d-%d", i, k), "fn"), p))}
		}
		epoch, err := s.Publish(ctx, p, batch)
		if err != nil {
			t.Fatal(err)
		}
		if want := core.Epoch(i + 1); epoch != want {
			t.Fatalf("publish %d got epoch %d, want %d", i, epoch, want)
		}
		for k := range batch {
			if i == publishes-1 {
				tornIDs = append(tornIDs, batch[k].Txn.ID)
			} else {
				published = append(published, batch[k].Txn.ID)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tearLastWALRecord(t, dir)

	// Recover. The torn publish (epoch 6, in its own shard) must have
	// vanished atomically: a publish is one commit across its shard's
	// epochs/txns/decisions tables, so recovery sees all of it or none.
	s2, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, want := s2.TxnCount(), (publishes-1)*perBatch; got != want {
		t.Fatalf("recovered %d txns, want %d", got, want)
	}
	// No shard's tables may retain any trace of the torn epoch.
	tornEpoch := core.Epoch(publishes)
	err = s2.db.View(func(tx *reldb.Tx) error {
		for k := 0; k < s2.tableShards; k++ {
			for _, tab := range []string{s2.epochsTab[k], s2.txnsTab[k]} {
				col := 0
				if tab == s2.txnsTab[k] {
					col = 1
				}
				if err := tx.Scan(tab, func(r reldb.Row) bool {
					if core.Epoch(r[col].I()) == tornEpoch {
						t.Errorf("%s still holds a row for torn epoch %d", tab, tornEpoch)
					}
					return true
				}); err != nil {
					return err
				}
			}
			if err := tx.Scan(s2.decisionsTab[k], func(r reldb.Row) bool {
				es, err := decodeDecisionRow(r[1].I(), r[2].S())
				if err != nil {
					t.Errorf("%s: %v", s2.decisionsTab[k], err)
				}
				for _, e := range es {
					for _, id := range tornIDs {
						if e.id == id {
							t.Errorf("%s still holds a self-accept for torn txn %s", s2.decisionsTab[k], id)
						}
					}
				}
				return true
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The torn publisher's replayable decisions cover only its completed
	// publishes.
	if err := s2.RegisterPeer(ctx, tornPeer, core.TrustAll(1)); err != nil {
		t.Fatal(err)
	}
	_, decisions, err := s2.ReplayFor(ctx, tornPeer)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range tornIDs {
		if _, ok := decisions[id]; ok {
			t.Errorf("torn txn %s survived in %s's decisions", id, tornPeer)
		}
	}

	// The stable frontier passes over the voided epoch (and the voided
	// allocator block remainder): a fresh reconciler sees every completed
	// publish, nothing from the torn one, in one gap-free window.
	if err := s2.RegisterPeer(ctx, "fresh", core.TrustAll(1)); err != nil {
		t.Fatal(err)
	}
	rec, err := s2.BeginReconciliation(ctx, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if rec.ToEpoch < tornEpoch {
		t.Fatalf("stable frontier %d stalled at torn epoch %d", rec.ToEpoch, tornEpoch)
	}
	got := make(map[core.TxnID]bool, len(rec.Candidates))
	for _, c := range rec.Candidates {
		got[c.Txn.ID] = true
	}
	if len(got) != len(published) {
		t.Fatalf("fresh window has %d candidates, want %d", len(got), len(published))
	}
	for _, id := range published {
		if !got[id] {
			t.Errorf("completed txn %s missing from fresh window", id)
		}
	}

	// The log stays writable: the torn publisher retries above the voided
	// block and the new epoch is delivered.
	retry := []store.PublishedTxn{{Txn: core.NewTransaction(
		core.TxnID{Origin: tornPeer, Seq: 1000},
		core.Insert("F", core.Strs("retry", "prot-r", "fn"), tornPeer))}}
	epoch, err := s2.Publish(ctx, tornPeer, retry)
	if err != nil {
		t.Fatalf("publish after torn recovery: %v", err)
	}
	if epoch <= tornEpoch {
		t.Fatalf("retry epoch %d not above torn epoch %d", epoch, tornEpoch)
	}
	rec, err = s2.BeginReconciliation(ctx, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Candidates) != 1 || rec.Candidates[0].Txn.ID != retry[0].Txn.ID {
		t.Fatalf("retry not delivered: %+v", rec.Candidates)
	}
}
