package gateway

import (
	"fmt"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/store/remote"
	"orchestra/internal/store/storetest"
)

// poolFactory serves a central store over TCP and hands every peer one
// shared Pool of three remote clients, the shape orchestra-gateway runs
// with -store: successive calls, keyed retries included, land on
// different lanes. A short watch poll keeps the watch suite fast.
func poolFactory(t *testing.T, schema *core.Schema) (func(core.PeerID) store.Store, func()) {
	backend := central.MustOpenMemory(schema)
	srv := remote.NewServer(backend, schema)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lanes := make([]store.Backend, 3)
	for i := range lanes {
		lanes[i] = remote.NewClient(fmt.Sprintf("lane-%d", i), addr, remote.WithWatchPoll(10*time.Millisecond))
	}
	pool := NewPool(lanes...)
	return func(core.PeerID) store.Store { return pool }, func() {
		srv.Close()
		backend.Close()
	}
}

// TestPoolConformance runs both tiers of the store contract through the
// gateway's connection pool.
func TestPoolConformance(t *testing.T) {
	storetest.RunConformance(t, poolFactory)
	storetest.RunBackendConformance(t, poolFactory)
}

func TestPoolWatchConformance(t *testing.T) {
	storetest.RunWatchConformance(t, poolFactory)
}
