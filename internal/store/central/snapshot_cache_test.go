package central

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/reldb"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
)

// retainedRow returns the payload of the store's snapshots row; the table
// holds one row, so Scan's lack of order does not matter.
func retainedRow(t *testing.T, s *Store) []byte {
	t.Helper()
	var row []byte
	if err := s.db.View(func(tx *reldb.Tx) error {
		return tx.Scan(s.snapsTab, func(r reldb.Row) bool {
			row = r[1].Raw()
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	return row
}

// latest is LatestSnapshot for tests that need a snapshot to exist.
func latest(t *testing.T, s *Store) *store.Snapshot {
	t.Helper()
	snap, err := s.LatestSnapshot(context.Background())
	if err != nil || snap == nil {
		t.Fatalf("LatestSnapshot = %v, %v", snap, err)
	}
	return snap
}

// historyTrust is the trust each peer of snapshotHistory was created with.
func historyTrust() map[core.PeerID]core.Trust {
	return map[core.PeerID]core.Trust{
		"pa": storetest.TrustAll(1),
		"pb": storetest.TrustAll(1),
		"pq": storetest.TrustOrigins(map[core.PeerID]int{"pa": 2, "pb": 1}),
	}
}

// TestSnapshotCacheDecodedOnce: the retained snapshot is decoded once per
// store and shared. Open decodes the row; every LatestSnapshot after it —
// rebuilds included — returns that pointer without decoding again and
// re-encodes to the row's exact bytes. A Snapshot commit replaces it with
// the value it encoded, which equals what a reopen decodes; a commit that
// fails leaves the old one in place.
func TestSnapshotCacheDecodedOnce(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	dir := t.TempDir()
	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	snapshotHistory(t, s, schema)
	if _, err := s.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first := latest(t, s)
	if allocs := testing.AllocsPerRun(10, func() { s.LatestSnapshot(ctx) }); allocs != 0 {
		t.Errorf("LatestSnapshot allocates %v times a call: it decodes", allocs)
	}
	for id, tr := range historyTrust() {
		if _, err := store.RebuildPeer(ctx, id, schema, tr, s); err != nil {
			t.Fatal(err)
		}
	}
	if again := latest(t, s); again != first {
		t.Fatal("LatestSnapshot returned a second value for one retained snapshot")
	}
	if got := store.AppendSnapshot(nil, first); !bytes.Equal(got, retainedRow(t, s)) {
		t.Fatal("the cached snapshot does not re-encode to the stored row")
	}

	// A commit replaces the cache with the value it encoded.
	pa, err := store.RebuildPeer(ctx, "pa", schema, storetest.TrustAll(1), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pa.Edit(core.Insert("F", core.Strs("mouse", "p2", "w"), "pa")); err != nil {
		t.Fatal(err)
	}
	if _, err := pa.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	epoch, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second := latest(t, s)
	if second == first || second.Epoch != epoch || epoch <= first.Epoch {
		t.Fatalf("after Snapshot at %d: cached epoch %d (was %d), same pointer %v", epoch, second.Epoch, first.Epoch, second == first)
	}
	row := retainedRow(t, s)
	if got := store.AppendSnapshot(nil, second); !bytes.Equal(got, row) {
		t.Fatal("the installed snapshot does not re-encode to the stored row")
	}

	// A commit that fails leaves the retained row, and so the cache, alone.
	if _, err := pa.Edit(core.Insert("F", core.Strs("dog", "p3", "q"), "pa")); err != nil {
		t.Fatal(err)
	}
	if _, err := pa.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(ctx); err == nil {
		t.Fatal("Snapshot committed on a closed database")
	}
	if got := latest(t, s); got != second || s.SnapshotEpoch() != epoch {
		t.Fatalf("a failed commit moved the cache: epoch %d, same pointer %v", got.Epoch, got == second)
	}

	// The value a commit installs is the value a reopen decodes.
	reopened, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if decoded := latest(t, reopened); !reflect.DeepEqual(decoded, second) {
		t.Fatal("the installed snapshot differs from the one a reopen decodes")
	}
}

// TestLatestSnapshotNeverGoesBack runs LatestSnapshot in a loop against a
// store that snapshots automatically under publish load while a third
// goroutine calls Snapshot: every value a call returns is at least as new
// as every Snapshot that returned before the call began. Automatic
// maintenance skips while the Snapshot goroutine holds the snapshot lock,
// and that goroutine may take every snapshot of the publish phase at
// epoch 0 (at -cpu=1 it can), so the readers run on until it has returned
// a snapshot past 0.
func TestLatestSnapshotNeverGoesBack(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	s, err := Open(schema, "", WithSnapshotEvery(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var peers []*store.Peer
	for i := 0; i < 3; i++ {
		p, err := store.NewPeer(ctx, core.PeerID(fmt.Sprintf("p%d", i)), schema, storetest.TrustAll(1), s)
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}

	var returned atomic.Int64 // the newest epoch a Snapshot call returned; one writer
	done := make(chan struct{})
	var readers, writers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			e, err := s.Snapshot(ctx)
			if err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
			if int64(e) > returned.Load() {
				returned.Store(int64(e))
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			floor := core.Epoch(returned.Load())
			snap, err := s.LatestSnapshot(ctx)
			if err != nil {
				t.Errorf("LatestSnapshot: %v", err)
				return
			}
			if floor > 0 && (snap == nil || snap.Epoch < floor) {
				t.Errorf("LatestSnapshot returned %+v after a Snapshot at %d had returned", snap, floor)
				return
			}
		}
	}()
	for i, p := range peers {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for r := 0; r < 15; r++ {
				if _, err := p.Edit(core.Insert("F", core.Strs("org", fmt.Sprintf("prot-%d-%d", i, r), "fn"), p.ID())); err != nil {
					t.Error(err)
					return
				}
				if _, err := p.PublishAndReconcile(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	for deadline := time.Now().Add(10 * time.Second); returned.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(done)
	readers.Wait()
	if s.SnapshotEpoch() == 0 {
		t.Fatal("no snapshot was taken")
	}
}

// TestSharedSnapshotSurvivesConcurrentRebuilds: every peer of one snapshot
// is rebuilt from the one shared value at once, and the rebuilt peers go
// on reconciling. None of it may write to the snapshot: it still
// re-encodes to the stored row, and a fresh Open of the directory decodes
// a value equal to it.
func TestSharedSnapshotSurvivesConcurrentRebuilds(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	dir := t.TempDir()
	s, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	snapshotHistory(t, s, schema)
	if _, err := s.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	shared := latest(t, s)
	row := retainedRow(t, s)
	trusts := historyTrust()
	rebuilt := make([]*store.Peer, len(shared.Peers))
	var wg sync.WaitGroup
	for i := range shared.Peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := shared.Peers[i].Engine.Peer
			p, err := store.RebuildPeer(ctx, id, schema, trusts[id], s)
			if err != nil {
				t.Errorf("rebuild %s: %v", id, err)
				return
			}
			rebuilt[i] = p
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for round := 0; round < 2; round++ {
		for i, p := range rebuilt {
			if _, err := p.Edit(core.Insert("F", core.Strs("yeast", fmt.Sprintf("p%d-%d", i, round), "fn"), p.ID())); err != nil {
				t.Fatal(err)
			}
			if _, err := p.PublishAndReconcile(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := latest(t, s); got != shared {
		t.Fatal("the retained snapshot changed without a Snapshot call")
	}
	if got := store.AppendSnapshot(nil, shared); !bytes.Equal(got, row) {
		t.Fatal("rebuilding and reconciling wrote to the shared snapshot")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(schema, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got := latest(t, fresh); !reflect.DeepEqual(got, shared) {
		t.Fatal("a fresh Open decodes a snapshot different from the shared one")
	}
}
