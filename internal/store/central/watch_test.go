package central

import (
	"context"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
)

// TestCompactionIgnoresAttachedWatcher: a subscription is a wake signal, not
// a claim on history. A subscriber attached at epoch 0 that never receives
// neither stops CompactBefore nor lowers CompactionHorizon, and when it
// finally receives, it gets one event reaching the current stable epoch.
func TestCompactionIgnoresAttachedWatcher(t *testing.T) {
	schema := storetest.Schema(t)
	s := MustOpenMemory(schema)
	defer s.Close()
	ctx := context.Background()
	pa, err := store.NewPeer(ctx, "pa", schema, storetest.TrustAll(1), s)
	if err != nil {
		t.Fatal(err)
	}
	publish := func(fn string) {
		if _, err := pa.Edit(core.Insert("F", core.Strs("rat", fn, "v"), "pa")); err != nil {
			t.Fatal(err)
		}
		if _, err := pa.PublishAndReconcile(ctx); err != nil {
			t.Fatal(err)
		}
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch, err := s.WatchFrom(wctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	publish("p1")
	publish("p2")
	publish("p3")
	snapEpoch, err := s.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// pa, the only peer, has reconciled through the snapshot: that is the min.
	if h := s.CompactionHorizon(); h != snapEpoch {
		t.Errorf("CompactionHorizon = %d with a watcher parked at 0, want the snapshot epoch %d", h, snapEpoch)
	}
	if err := s.CompactBefore(ctx, snapEpoch); err != nil {
		t.Fatalf("CompactBefore(%d) with a watcher parked at 0: %v", snapEpoch, err)
	}
	publish("p4")

	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("parked subscription was closed by compaction")
		}
		if want := s.stableEpoch(); ev.From != 0 || ev.To != want || want <= snapEpoch {
			t.Errorf("parked subscriber received %+v, want one event (0, %d] past the horizon %d", ev, want, snapEpoch)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked subscriber was never woken")
	}
}
