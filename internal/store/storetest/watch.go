package storetest

import (
	"context"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// RunWatchConformance runs the watch legs of tier two: a subscription is
// served and honours cancellation, event ordering and contiguity (no stable
// epoch skipped or delivered twice), cursor resume across a disconnect, and
// the compaction boundary.
func RunWatchConformance(t *testing.T, factory Factory) {
	t.Run("Capability", func(t *testing.T) { testWatchCapability(t, factory) })
	t.Run("StreamOrdering", func(t *testing.T) { testWatchStreamOrdering(t, factory) })
	t.Run("CursorResume", func(t *testing.T) { testWatchCursorResume(t, factory) })
	t.Run("CompactedEpochs", func(t *testing.T) { testWatchCompactedEpochs(t, factory) })
}

// watchEventTimeout bounds how long the suite waits for one event; the
// remote proxy's long-poll cadence sits well inside it.
const watchEventTimeout = 10 * time.Second

func nextWatchEvent(t *testing.T, ch <-chan store.WatchEvent) (store.WatchEvent, bool) {
	t.Helper()
	select {
	case ev, ok := <-ch:
		return ev, ok
	case <-time.After(watchEventTimeout):
		t.Fatalf("no watch event within %s", watchEventTimeout)
		return store.WatchEvent{}, false
	}
}

// testWatchCapability: a backend serves a subscription from epoch 0 and
// closes it on cancellation.
func testWatchCapability(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	w := backendFor(t, clientFor, "pa")
	cctx, cancel := context.WithCancel(context.Background())
	ch, err := w.WatchFrom(cctx, 0)
	if err != nil {
		t.Fatalf("WatchFrom(0): %v", err)
	}
	cancel()
	for range ch { // the subscription honors cancellation by closing
	}
}

// testWatchStreamOrdering: events are contiguous (each From equals the
// previous To), strictly advancing, and carry every published transaction
// exactly once, in publication order — the no-skip/no-duplicate guarantee,
// across both catch-up (history published before the subscription) and live
// delivery (history published while subscribed).
func testWatchStreamOrdering(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()
	w := backendFor(t, clientFor, "pa")

	pa, err := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	if err != nil {
		t.Fatal(err)
	}
	var published []core.TxnID
	publish := func(fn string) {
		x := mustEdit(t, pa, core.Insert("F", core.Strs("rat", fn, "v"), "pa"))
		if _, err := pa.Publish(ctx); err != nil {
			t.Fatalf("publish: %v", err)
		}
		published = append(published, x.ID)
	}

	// Catch-up: three epochs exist before anyone subscribes.
	publish("p1")
	publish("p2")
	publish("p3")

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch, err := w.WatchFrom(cctx, 0)
	if err != nil {
		t.Fatalf("WatchFrom(0): %v", err)
	}

	var got []core.TxnID
	cursor := core.Epoch(0)
	receiveThrough := func(n int) {
		t.Helper()
		for len(got) < n {
			ev, ok := nextWatchEvent(t, ch)
			if !ok {
				t.Fatalf("subscription closed after %d/%d txns", len(got), n)
			}
			if ev.From != cursor {
				t.Fatalf("event gap: From=%d after cursor %d", ev.From, cursor)
			}
			if ev.To <= ev.From {
				t.Fatalf("non-advancing event: %d -> %d", ev.From, ev.To)
			}
			cursor = ev.To
			for _, pt := range ev.Txns {
				got = append(got, pt.Txn.ID)
			}
		}
	}
	receiveThrough(3)

	// Live: two more epochs arrive while subscribed, with no re-delivery of
	// the caught-up history.
	publish("p4")
	publish("p5")
	receiveThrough(5)

	if len(got) != len(published) {
		t.Fatalf("received %d txns, published %d", len(got), len(published))
	}
	for i := range published {
		if got[i] != published[i] {
			t.Errorf("txn %d: got %v, want %v (order or duplication broken)", i, got[i], published[i])
		}
	}
}

// testWatchCursorResume: a consumer that loses its subscription and
// re-subscribes from its cursor sees exactly the epochs it has not yet
// consumed — nothing skipped, nothing delivered twice.
func testWatchCursorResume(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()
	w := backendFor(t, clientFor, "pa")

	pa, err := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	if err != nil {
		t.Fatal(err)
	}
	var published []core.TxnID
	publish := func(fn string) {
		x := mustEdit(t, pa, core.Insert("F", core.Strs("rat", fn, "v"), "pa"))
		if _, err := pa.Publish(ctx); err != nil {
			t.Fatalf("publish: %v", err)
		}
		published = append(published, x.ID)
	}

	publish("p1")
	publish("p2")

	// First subscription: consume the two epochs, then disconnect.
	cctx1, cancel1 := context.WithCancel(ctx)
	ch, err := w.WatchFrom(cctx1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []core.TxnID
	cursor := core.Epoch(0)
	for len(got) < 2 {
		ev, ok := nextWatchEvent(t, ch)
		if !ok {
			t.Fatal("subscription closed before delivering history")
		}
		cursor = ev.To
		for _, pt := range ev.Txns {
			got = append(got, pt.Txn.ID)
		}
	}
	cancel1()
	for range ch {
	}

	// Epochs published while disconnected must be waiting on resume.
	publish("p3")
	publish("p4")

	cctx2, cancel2 := context.WithCancel(ctx)
	defer cancel2()
	ch, err = w.WatchFrom(cctx2, cursor)
	if err != nil {
		t.Fatalf("resume WatchFrom(%d): %v", cursor, err)
	}
	for len(got) < 4 {
		ev, ok := nextWatchEvent(t, ch)
		if !ok {
			t.Fatal("resumed subscription closed early")
		}
		if ev.From < cursor {
			t.Fatalf("resume re-delivered consumed window: From=%d, cursor=%d", ev.From, cursor)
		}
		cursor = ev.To
		for _, pt := range ev.Txns {
			got = append(got, pt.Txn.ID)
		}
	}
	if len(got) != len(published) {
		t.Fatalf("received %d txns across resume, published %d", len(got), len(published))
	}
	for i := range published {
		if got[i] != published[i] {
			t.Errorf("txn %d: got %v, want %v (skip or double-apply across resume)", i, got[i], published[i])
		}
	}
}

// testWatchCompactedEpochs: a subscription cannot start below the
// compaction horizon — the history is gone, so the store must refuse
// (an immediate error, or a proxy's subscription that closes without
// delivering) rather than silently skip the missing epochs.
func testWatchCompactedEpochs(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	ctx := context.Background()
	st := backendFor(t, clientFor, "pa")

	pa, err := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	if err != nil {
		t.Fatal(err)
	}
	mustEdit(t, pa, core.Insert("F", core.Strs("rat", "p1", "v"), "pa"))
	mustCycle(t, pa)
	mustEdit(t, pa, core.Insert("F", core.Strs("rat", "p2", "v"), "pa"))
	mustCycle(t, pa)

	snapEpoch, err := st.Snapshot(ctx)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := st.CompactBefore(ctx, snapEpoch); err != nil {
		t.Fatalf("compact through %d: %v", snapEpoch, err)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch, err := st.WatchFrom(cctx, 0)
	if err != nil {
		return // refused up front: correct
	}
	select {
	case ev, ok := <-ch:
		if ok {
			t.Fatalf("watch below compaction horizon delivered %+v instead of failing", ev)
		}
		// Closed without delivering: the proxy form of the refusal.
	case <-time.After(watchEventTimeout):
		t.Fatal("watch below compaction horizon neither failed nor closed")
	}

	// From the horizon itself the subscription works again.
	ch, err = st.WatchFrom(cctx, snapEpoch)
	if err != nil {
		t.Fatalf("WatchFrom(%d) at the horizon: %v", snapEpoch, err)
	}
	mustEdit(t, pa, core.Insert("F", core.Strs("rat", "p3", "v"), "pa"))
	if _, err := pa.Publish(ctx); err != nil {
		t.Fatal(err)
	}
	ev, ok := nextWatchEvent(t, ch)
	if !ok {
		t.Fatal("horizon subscription closed before delivering")
	}
	if ev.From < snapEpoch {
		t.Errorf("horizon subscription reached back to %d (horizon %d)", ev.From, snapEpoch)
	}
}
