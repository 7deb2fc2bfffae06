package storetest

import (
	"context"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// RunWatchConformance runs the watch legs of tier two: a subscription is
// served and honours cancellation; its events are a contiguous, strictly
// advancing cursor that reaches every publish, live and across a resume;
// one BeginReconciliation per event hands out every published transaction
// exactly once; and a subscription below the compaction horizon is served
// like any other.
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

// watchRig is the fixture of the cursor legs: pa publishes, and pb — who
// trusts pa — calls BeginReconciliation once per event, as a streaming
// consumer does. Events carry no rows; what pb is handed across those
// begins is where "neither skip nor double-apply" is decided.
type watchRig struct {
	t   *testing.T
	w   store.Backend
	pa  *store.Peer
	pb  store.Store
	ids []core.TxnID // published, in order
	got []core.TxnID // handed to pb, in order
	// last is the epoch the latest publish returned, cursor the To of the
	// last event received.
	last, cursor core.Epoch
}

func newWatchRig(t *testing.T, s *core.Schema, clientFor func(core.PeerID) store.Store) *watchRig {
	t.Helper()
	ctx := context.Background()
	pa, err := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.NewPeer(ctx, "pb", s, TrustAll(1), clientFor("pb")); err != nil {
		t.Fatal(err)
	}
	return &watchRig{t: t, w: backendFor(t, clientFor, "pa"), pa: pa, pb: clientFor("pb")}
}

func (r *watchRig) publish(fns ...string) {
	r.t.Helper()
	for _, fn := range fns {
		x := mustEdit(r.t, r.pa, core.Insert("F", core.Strs("rat", fn, "v"), "pa"))
		e, err := r.pa.Publish(context.Background())
		if err != nil {
			r.t.Fatalf("publish: %v", err)
		}
		r.ids, r.last = append(r.ids, x.ID), e
	}
}

// follow receives until the cursor reaches the latest publish, holding
// every event to the cursor contract and beginning once per event; pb must
// by then have been handed exactly what was published, in order.
func (r *watchRig) follow(ch <-chan store.WatchEvent) {
	r.t.Helper()
	for r.cursor < r.last {
		ev, ok := nextWatchEvent(r.t, ch)
		if !ok {
			r.t.Fatalf("subscription closed at cursor %d, before epoch %d", r.cursor, r.last)
		}
		if ev.From != r.cursor {
			r.t.Fatalf("event gap or re-delivery: From=%d at cursor %d", ev.From, r.cursor)
		}
		if ev.To <= ev.From {
			r.t.Fatalf("non-advancing event: %d -> %d", ev.From, ev.To)
		}
		r.cursor = ev.To
		rec, err := r.pb.BeginReconciliation(context.Background(), "pb")
		if err != nil {
			r.t.Fatalf("begin after %+v: %v", ev, err)
		}
		for _, c := range rec.Candidates {
			r.got = append(r.got, c.Txn.ID)
		}
	}
	if r.cursor != r.last {
		r.t.Fatalf("cursor %d is past the last published epoch %d", r.cursor, r.last)
	}
	if len(r.got) != len(r.ids) {
		r.t.Fatalf("pb was handed %v, published %v", r.got, r.ids)
	}
	for i := range r.ids {
		if r.got[i] != r.ids[i] {
			r.t.Errorf("txn %d: got %v, want %v (skip, repeat or reorder)", i, r.got[i], r.ids[i])
		}
	}
}

// testWatchStreamOrdering: events are contiguous (each From equals the
// previous To), strictly advancing, and end at the epoch of the last
// publish — across both catch-up (history published before the
// subscription) and live wake-ups (history published while subscribed).
func testWatchStreamOrdering(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	r := newWatchRig(t, s, clientFor)

	// Catch-up: three epochs exist before anyone subscribes.
	r.publish("p1", "p2", "p3")
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := r.w.WatchFrom(cctx, 0)
	if err != nil {
		t.Fatalf("WatchFrom(0): %v", err)
	}
	r.follow(ch)

	// Live: two more epochs arrive while subscribed.
	r.publish("p4", "p5")
	r.follow(ch)
}

// testWatchCursorResume: a consumer that loses its subscription and
// re-subscribes from its cursor is woken for exactly the epochs it has not
// yet seen: the first resumed event starts at the cursor, not before it.
func testWatchCursorResume(t *testing.T, factory Factory) {
	s := Schema(t)
	clientFor, cleanup := factory(t, s)
	defer cleanup()
	r := newWatchRig(t, s, clientFor)

	// First subscription: follow two epochs, then disconnect.
	r.publish("p1", "p2")
	cctx1, cancel1 := context.WithCancel(context.Background())
	ch, err := r.w.WatchFrom(cctx1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.follow(ch)
	cancel1()
	for range ch {
	}

	// Epochs published while disconnected must be waiting on resume.
	r.publish("p3", "p4")
	cctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	ch, err = r.w.WatchFrom(cctx2, r.cursor)
	if err != nil {
		t.Fatalf("resume WatchFrom(%d): %v", r.cursor, err)
	}
	r.follow(ch)
}

// testWatchCompactedEpochs: a subscription holds nothing in the store and
// is owed nothing by it. After compaction a watch from epoch 0 is accepted
// and woken past the horizon like any other, and the window its wake-up
// announces — a registered peer's begin from its own frontier — is the one
// an uncompacted twin hands out.
func testWatchCompactedEpochs(t *testing.T, factory Factory) {
	// script runs one history on a fresh store, compacting it or not, and
	// returns what pb's begin is handed after the last publish.
	script := func(compact bool) *store.Reconciliation {
		s := Schema(t)
		clientFor, cleanup := factory(t, s)
		defer cleanup()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		st := backendFor(t, clientFor, "pa")
		pa, err := store.NewPeer(ctx, "pa", s, TrustAll(1), clientFor("pa"))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := store.NewPeer(ctx, "pb", s, TrustAll(1), clientFor("pb"))
		if err != nil {
			t.Fatal(err)
		}
		mustEdit(t, pa, core.Insert("F", core.Strs("rat", "p1", "v"), "pa"))
		mustCycle(t, pa)
		mustEdit(t, pa, core.Insert("F", core.Strs("rat", "p2", "v"), "pa"))
		mustCycle(t, pa)
		mustCycle(t, pb) // pb's frontier passes both epochs

		var ch <-chan store.WatchEvent
		var snapEpoch core.Epoch
		if compact {
			if snapEpoch, err = st.Snapshot(ctx); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			if err := st.CompactBefore(ctx, snapEpoch); err != nil {
				t.Fatalf("compact through %d: %v", snapEpoch, err)
			}
			if ch, err = st.WatchFrom(ctx, 0); err != nil {
				t.Fatalf("WatchFrom(0) below the compaction horizon %d: %v", snapEpoch, err)
			}
		}
		mustEdit(t, pa, core.Insert("F", core.Strs("rat", "p3", "v"), "pa"))
		e3, err := pa.Publish(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if compact {
			cursor := core.Epoch(0)
			for cursor < e3 {
				ev, ok := nextWatchEvent(t, ch)
				if !ok {
					t.Fatalf("watch from below the horizon closed at cursor %d", cursor)
				}
				if ev.From != cursor || ev.To <= ev.From {
					t.Fatalf("event %+v at cursor %d", ev, cursor)
				}
				cursor = ev.To
			}
			if cursor <= snapEpoch {
				t.Fatalf("woken through %d, not past the horizon %d", cursor, snapEpoch)
			}
		}
		rec, err := clientFor("pb").BeginReconciliation(ctx, "pb")
		if err != nil {
			t.Fatalf("begin (compacted=%v): %v", compact, err)
		}
		return rec
	}
	got, want := script(true), script(false)
	if got.FromEpoch != want.FromEpoch || got.ToEpoch != want.ToEpoch || len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("begin after compaction: window (%d, %d] with %d candidates, uncompacted twin (%d, %d] with %d",
			got.FromEpoch, got.ToEpoch, len(got.Candidates), want.FromEpoch, want.ToEpoch, len(want.Candidates))
	}
	if len(want.Candidates) == 0 {
		t.Fatal("twin handed out no candidate: the comparison is vacuous")
	}
	for i, c := range want.Candidates {
		if g := got.Candidates[i]; g.Txn.ID != c.Txn.ID || g.Priority != c.Priority {
			t.Errorf("candidate %d: %v prio %d, twin %v prio %d", i, g.Txn.ID, g.Priority, c.Txn.ID, c.Priority)
		}
	}
}
