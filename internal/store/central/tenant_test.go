package central

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
)

// pubBatch publishes one batch of n transactions from peer p into s,
// with sequence numbers seq, seq+1, ...
func pubBatch(t *testing.T, s *Store, p core.PeerID, seq uint64, n int) []core.TxnID {
	t.Helper()
	batch := make([]store.PublishedTxn, n)
	ids := make([]core.TxnID, n)
	for k := range batch {
		id := core.TxnID{Origin: p, Seq: seq + uint64(k)}
		ids[k] = id
		batch[k] = store.PublishedTxn{Txn: core.NewTransaction(id,
			core.Insert("F", core.Strs(string(p), fmt.Sprintf("prot-%d", id.Seq), "fn"), p))}
	}
	if _, err := s.Publish(context.Background(), p, batch); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestTenantMaintenanceIsolation: one co-located group's maintenance —
// snapshots, compaction, watch subscriptions, idempotency records — must
// neither observe nor disturb another group's state.
func TestTenantMaintenanceIsolation(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	node, err := OpenNode("")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	noisy, err := node.OpenGroup("noisy", schema)
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := node.OpenGroup("quiet", schema)
	if err != nil {
		t.Fatal(err)
	}

	// Drive both groups with reconciling peers so the noisy group's
	// compaction preconditions (peer frontiers, snapshot coverage) hold.
	mkPeer := func(s *Store, id core.PeerID) *store.Peer {
		p, err := store.NewPeer(ctx, id, schema, storetest.TrustAll(1), s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	nAlice, nBob := mkPeer(noisy, "alice"), mkPeer(noisy, "bob")
	qAlice, qBob := mkPeer(quiet, "alice"), mkPeer(quiet, "bob")
	for i := 0; i < 3; i++ {
		if _, err := nAlice.Edit(core.Insert("F", core.Strs("rat", fmt.Sprintf("np%d", i), "fn"), "alice")); err != nil {
			t.Fatal(err)
		}
		if _, err := nAlice.PublishAndReconcile(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := nBob.PublishAndReconcile(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := qAlice.Edit(core.Insert("F", core.Strs("mouse", "qp0", "fn"), "alice")); err != nil {
		t.Fatal(err)
	}
	if _, err := qAlice.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := qBob.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}

	// Noisy snapshots and compacts its whole log.
	horizon, err := noisy.Snapshot(ctx)
	if err != nil || horizon == 0 {
		t.Fatalf("noisy snapshot: %d, %v", horizon, err)
	}
	if err := noisy.CompactBefore(ctx, noisy.CompactionHorizon()); err != nil {
		t.Fatalf("noisy compact: %v", err)
	}

	// The quiet group saw none of it: no snapshot retained, no epochs
	// compacted — a fresh reconciler still replays from epoch 0.
	if snap, err := quiet.LatestSnapshot(ctx); err != nil || snap != nil {
		t.Fatalf("quiet group inherited a snapshot: %+v, %v", snap, err)
	}
	if got := quiet.CompactedBefore(); got != 0 {
		t.Fatalf("quiet group compacted to %d by noisy maintenance", got)
	}
	fresh := mkPeer(quiet, "fresh")
	res, err := fresh.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 1 {
		t.Fatalf("quiet fresh peer accepted %d txns, want its group's 1", len(res.Accepted))
	}
	for _, tup := range fresh.Instance().Tuples("F") {
		if tup[0].String() != "mouse" {
			t.Fatalf("quiet fresh peer imported foreign tuple %v", tup)
		}
	}

	// Watch isolation: a quiet-group subscription never wakes for noisy
	// publishes (the stores' watch machinery is fully disjoint), and does
	// wake for its own.
	qFrontier := quiet.stableEpoch()
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch, err := quiet.WatchFrom(wctx, qFrontier)
	if err != nil {
		t.Fatal(err)
	}
	pubBatch(t, noisy, "alice", 1000, 1)
	select {
	case ev, ok := <-ch:
		if ok {
			t.Fatalf("quiet watcher woke for noisy publish: %+v", ev)
		}
		t.Fatal("quiet watcher closed unexpectedly")
	case <-time.After(50 * time.Millisecond):
	}
	qEpoch, err := quiet.Publish(ctx, "alice", []store.PublishedTxn{{Txn: core.NewTransaction(
		core.TxnID{Origin: "alice", Seq: 2000}, core.Insert("F", core.Strs("mouse", "qp1", "fn"), "alice"))}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.From != qFrontier || ev.To != qEpoch {
			t.Fatalf("quiet watcher woke with %+v, want (%d, %d]", ev, qFrontier, qEpoch)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("quiet watcher missed its own group's publish")
	}

	// Idempotency isolation: the same key dedupes within a group but not
	// across groups — each tenant has its own dedup table.
	keyed := store.WithIdempotencyKey(ctx, "shared-key")
	e1, err := noisy.Publish(keyed, "alice", []store.PublishedTxn{{Txn: core.NewTransaction(
		core.TxnID{Origin: "alice", Seq: 3000},
		core.Insert("F", core.Strs("rat", "kp", "fn"), "alice"))}})
	if err != nil {
		t.Fatal(err)
	}
	eDup, err := noisy.Publish(keyed, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if eDup != e1 {
		t.Fatalf("same-group keyed retry returned %d, want replayed %d", eDup, e1)
	}
	before := quiet.stableEpoch()
	e2, err := quiet.Publish(keyed, "alice", []store.PublishedTxn{{Txn: core.NewTransaction(
		core.TxnID{Origin: "alice", Seq: 3001},
		core.Insert("F", core.Strs("mouse", "kp", "fn"), "alice"))}})
	if err != nil {
		t.Fatal(err)
	}
	if e2 != before+1 {
		t.Fatalf("cross-group keyed publish returned %d, want fresh epoch %d (dedup leaked across tenants)", e2, before+1)
	}
}

// TestTenantSiblingPrefixDetach: detaching a group whose encoded
// namespace is a leading fragment of a sibling's must drop only its own
// tables. Regression for the single-'_' terminator grammar, under which
// "team"'s prefix matched "team-1"'s tables ('-' encodes as "_2d") and a
// detach silently destroyed the sibling tenant.
func TestTenantSiblingPrefixDetach(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	for _, pair := range [][2]string{{"team", "team-1"}, {"a", "a_b"}} {
		victim, survivor := pair[0], pair[1]
		t.Run(victim+" vs "+survivor, func(t *testing.T) {
			node, err := OpenNode("")
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			v, err := node.OpenGroup(victim, schema)
			if err != nil {
				t.Fatal(err)
			}
			s, err := node.OpenGroup(survivor, schema)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.NewPeer(ctx, "alice", schema, storetest.TrustAll(1), v); err != nil {
				t.Fatal(err)
			}
			if _, err := store.NewPeer(ctx, "alice", schema, storetest.TrustAll(1), s); err != nil {
				t.Fatal(err)
			}
			pubBatch(t, v, "alice", 1, 2)
			pubBatch(t, s, "alice", 1, 3)

			if err := node.CloseGroup(victim); err != nil {
				t.Fatal(err)
			}
			if err := node.DetachGroup(victim); err != nil {
				t.Fatal(err)
			}
			if got := node.StoredGroups(); len(got) != 1 || got[0] != survivor {
				t.Fatalf("StoredGroups after detach = %v, want [%q]", got, survivor)
			}
			// Detaching again must report no tables — had the old grammar
			// matched, the survivor's tables would satisfy the prefix.
			if err := node.DetachGroup(victim); err == nil {
				t.Fatalf("second DetachGroup(%q) succeeded; it matched %q's tables", victim, survivor)
			}

			// The survivor recovers from its tables alone and still serves
			// every row it published.
			if err := node.CloseGroup(survivor); err != nil {
				t.Fatal(err)
			}
			s2, err := node.OpenGroup(survivor, schema)
			if err != nil {
				t.Fatalf("reopen %q after detaching %q: %v", survivor, victim, err)
			}
			p, err := store.NewPeer(ctx, "bob", schema, storetest.TrustAll(1), s2)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.PublishAndReconcile(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Accepted) != 3 {
				t.Fatalf("survivor peer accepted %d txns after sibling detach, want 3", len(res.Accepted))
			}
		})
	}
}

// TestTenantCrashTornMultiGroupWAL: a crash tearing the shared WAL
// mid-flush voids only the group whose commit was torn. Both tenants'
// commits ride one WAL; the tear kills the final record — the second
// group's last publish — and recovery must void exactly that epoch while
// the first group keeps every row.
func TestTenantCrashTornMultiGroupWAL(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	dir := t.TempDir()
	node, err := OpenNode(dir)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := node.OpenGroup("a", schema)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := node.OpenGroup("b", schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Store{ga, gb} {
		if err := g.RegisterPeer(ctx, "pub", core.TrustAll(1)); err != nil {
			t.Fatal(err)
		}
	}
	var aIDs []core.TxnID
	for i := 0; i < 3; i++ {
		aIDs = append(aIDs, pubBatch(t, ga, "pub", uint64(10*i), 2)...)
	}
	var bIDs []core.TxnID
	for i := 0; i < 2; i++ {
		bIDs = append(bIDs, pubBatch(t, gb, "pub", uint64(10*i), 2)...)
	}
	// The final commit in the shared WAL: b's third publish — the one the
	// crash tears.
	tornIDs := pubBatch(t, gb, "pub", 100, 2)
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	tearLastWALRecord(t, dir)

	node2, err := OpenNode(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	if got := node2.StoredGroups(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("recovered groups %v, want [a b]", got)
	}
	ra, err := node2.OpenGroup("a", schema)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := node2.OpenGroup("b", schema)
	if err != nil {
		t.Fatal(err)
	}

	// Group a is untouched by b's torn flush.
	if got, want := ra.TxnCount(), len(aIDs); got != want {
		t.Fatalf("group a recovered %d txns, want %d", got, want)
	}
	if err := ra.RegisterPeer(ctx, "fresh", core.TrustAll(1)); err != nil {
		t.Fatal(err)
	}
	rec, err := ra.BeginReconciliation(ctx, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Candidates) != len(aIDs) {
		t.Fatalf("group a fresh window has %d candidates, want %d", len(rec.Candidates), len(aIDs))
	}

	// Group b lost exactly the torn epoch: the two completed publishes
	// survive, the torn one is voided, and the log stays writable.
	if got, want := rb.TxnCount(), len(bIDs); got != want {
		t.Fatalf("group b recovered %d txns, want %d (torn publish must void)", got, want)
	}
	if err := rb.RegisterPeer(ctx, "fresh", core.TrustAll(1)); err != nil {
		t.Fatal(err)
	}
	rec, err = rb.BeginReconciliation(ctx, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[core.TxnID]bool, len(rec.Candidates))
	for _, c := range rec.Candidates {
		got[c.Txn.ID] = true
	}
	for _, id := range bIDs {
		if !got[id] {
			t.Errorf("group b lost completed txn %s", id)
		}
	}
	for _, id := range tornIDs {
		if got[id] {
			t.Errorf("group b torn txn %s survived recovery", id)
		}
	}
	retry := pubBatch(t, rb, "pub", 200, 1)
	rec, err = rb.BeginReconciliation(ctx, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Candidates) != 1 || rec.Candidates[0].Txn.ID != retry[0] {
		t.Fatalf("group b retry after torn recovery not delivered: %+v", rec.Candidates)
	}
}

// TestClosedTenantRefusesEveryVerb: a tenant store closed by CloseGroup
// writes nothing. Every verb of the stale handle fails with ErrClosed,
// which is permanent, so it cannot write rows behind a later OpenGroup of
// the same group: that store's caches match a fresh open of the node's
// directory. Close waits for the verbs in flight: once it returns, the
// closed store's transaction count no longer moves, and it is what the
// directory holds.
func TestClosedTenantRefusesEveryVerb(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	dir := t.TempDir()
	node, err := OpenNode(dir)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := node.OpenGroup("g", schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.PeerID{"a", "b"} {
		if err := stale.RegisterPeer(ctx, p, storetest.TrustAll(1)); err != nil {
			t.Fatal(err)
		}
	}
	ids := pubBatch(t, stale, "a", 0, 3)
	rec, err := stale.BeginReconciliation(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := node.CloseGroup("g"); err != nil {
		t.Fatal(err)
	}
	fresh, err := node.OpenGroup("g", schema)
	if err != nil {
		t.Fatal(err)
	}

	pub := []store.PublishedTxn{{Txn: core.NewTransaction(core.TxnID{Origin: "a", Seq: 3},
		core.Insert("F", core.Strs("a", "late", "fn"), "a"))}}
	verbs := map[string]func() error{
		"Publish": func() error { _, err := stale.Publish(ctx, "a", pub); return err },
		"BeginReconciliation": func() error {
			_, err := stale.BeginReconciliation(ctx, "b")
			return err
		},
		"RecordDecisionsBatch": func() error {
			return stale.RecordDecisionsBatch(ctx, []store.DecisionBatch{{Peer: "b", Recno: rec.Recno, Accepted: ids}})
		},
		"RecordDecisions": func() error { return stale.RecordDecisions(ctx, "b", rec.Recno, ids, nil) },
		"RegisterPeer":    func() error { return stale.RegisterPeer(ctx, "c", storetest.TrustAll(1)) },
		"EffectiveTrust":  func() error { _, err := stale.EffectiveTrust(ctx, "a"); return err },
		"Snapshot":        func() error { _, err := stale.Snapshot(ctx); return err },
		"LatestSnapshot":  func() error { _, err := stale.LatestSnapshot(ctx); return err },
		"ReplayFrom":      func() error { _, _, err := stale.ReplayFrom(ctx, "b", 0, -1); return err },
		"CompactBefore":   func() error { return stale.CompactBefore(ctx, 1) },
		"WatchFrom":       func() error { _, err := stale.WatchFrom(ctx, 0); return err },
		"Checkpoint":      stale.Checkpoint,
	}
	for name, verb := range verbs {
		if err := verb(); !errors.Is(err, ErrClosed) || store.IsTransient(err) {
			t.Errorf("%s on a closed tenant store: %v, want the permanent ErrClosed", name, err)
		}
	}
	want := fresh.TxnCount()
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	node, err = OpenNode(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	reopened, err := node.OpenGroup("g", schema)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.TxnCount(); got != want || want != len(ids) {
		t.Fatalf("the group reopened holds %d txns, the store opened after the close %d, published before it %d", got, want, len(ids))
	}

	// Publishers racing a Close.
	var wg sync.WaitGroup
	publishers := []core.PeerID{"a", "b"}
	errs := make([]error, len(publishers))
	for w, p := range publishers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(100); ; seq++ {
				id := core.TxnID{Origin: p, Seq: seq}
				_, err := reopened.Publish(ctx, p, []store.PublishedTxn{{Txn: core.NewTransaction(id,
					core.Insert("F", core.Strs(string(p), fmt.Sprintf("race-%d", seq), "fn"), p))}})
				if err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	if err := node.CloseGroup("g"); err != nil {
		t.Fatal(err)
	}
	closedAt := reopened.TxnCount()
	wg.Wait()
	for w, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("publisher %d stopped on %v, want ErrClosed", w, err)
		}
	}
	if n := reopened.TxnCount(); n != closedAt {
		t.Fatalf("%d txns when Close returned, %d after: a verb ran past it", closedAt, n)
	}
	again, err := node.OpenGroup("g", schema)
	if err != nil {
		t.Fatal(err)
	}
	if n := again.TxnCount(); n != closedAt {
		t.Fatalf("the closed store counted %d txns, the directory holds %d", closedAt, n)
	}
}

// TestTenantMetricsCountOnce: two tenants of one Node share one database
// and so one set of database counters. Each tenant's DBMetrics is the
// Node's Metrics, and a publish in either tenant is one commit in it,
// riding one group flush, counted once; each tenant's store counters count
// only its own publishes.
func TestTenantMetricsCountOnce(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	node, err := OpenNode(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	var tenants [2]*Store
	for i, group := range []string{"ga", "gb"} {
		if tenants[i], err = node.OpenGroup(group, schema); err != nil {
			t.Fatal(err)
		}
		if tenants[i].DBMetrics() != node.Metrics() {
			t.Fatalf("tenant %s's DBMetrics is not the Node's Metrics", group)
		}
		if err := tenants[i].RegisterPeer(ctx, "pa", core.TrustAll(1)); err != nil {
			t.Fatal(err)
		}
		// The first publish also claims the tenant's epoch block, a
		// commit of its own.
		pubBatch(t, tenants[i], "pa", 1, 1)
	}
	before := node.Metrics().Snapshot()
	for _, s := range tenants {
		pubBatch(t, s, "pa", 10, 3)
	}
	got := node.Metrics().Snapshot()
	if n := got.Commits - before.Commits; n != 2 {
		t.Errorf("two publishes, one per tenant, made %d commits, want 2", n)
	}
	if n := got.GroupedCommits - before.GroupedCommits; n != 2 {
		t.Errorf("two publishes, one per tenant, rode %d group flushes, want 2", n)
	}
	for i, s := range tenants {
		if db := s.DBMetrics().Snapshot(); db != got {
			t.Errorf("tenant %d's DBMetrics = %v, the Node's = %v", i, db, got)
		}
		if n := s.Metrics().Snapshot().Publishes; n != 2 {
			t.Errorf("tenant %d counted %d publishes, want its own 2", i, n)
		}
	}
}
