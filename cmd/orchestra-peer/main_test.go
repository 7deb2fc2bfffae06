package main

import (
	"context"
	"errors"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/store/remote"
	"orchestra/internal/trust"
)

// newTestPeer wires a peer to an in-process TCP store server, as the
// binary would.
func newTestPeer(t *testing.T, id string) (*store.Peer, *core.Schema) {
	t.Helper()
	schema, err := builtinSchema("protein")
	if err != nil {
		t.Fatal(err)
	}
	backend := central.MustOpenMemory(schema)
	t.Cleanup(func() { backend.Close() })
	return dialTestPeer(t, id, schema, serveTestStore(t, backend, schema)), schema
}

// serveTestStore serves the backend over TCP and returns its address.
func serveTestStore(t *testing.T, backend store.Store, schema *core.Schema) string {
	t.Helper()
	srv := remote.NewServer(backend, schema)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// dialTestPeer connects a trust-everyone peer through the binary's own
// non-retrying client.
func dialTestPeer(t *testing.T, id string, schema *core.Schema, addr string) *store.Peer {
	t.Helper()
	policy := trust.NewPolicy().MustAdd(1, "true").WithSchema(schema)
	p, err := store.NewPeer(context.Background(), core.PeerID(id), schema, policy, remote.NewClient(id, addr))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, p *store.Peer, schema *core.Schema, line string) error {
	t.Helper()
	return dispatch(context.Background(), p, schema, strings.Fields(line))
}

func TestDispatchEditPublishShow(t *testing.T) {
	p, schema := newTestPeer(t, "p1")
	if err := run(t, p, schema, "insert F rat prot1 immune"); err != nil {
		t.Fatal(err)
	}
	if p.PendingCount() != 1 {
		t.Fatalf("pending = %d", p.PendingCount())
	}
	if err := run(t, p, schema, "publish"); err != nil {
		t.Fatal(err)
	}
	if err := run(t, p, schema, "reconcile"); err != nil {
		t.Fatal(err)
	}
	if err := run(t, p, schema, "show"); err != nil {
		t.Fatal(err)
	}
	if err := run(t, p, schema, "show F"); err != nil {
		t.Fatal(err)
	}
	if err := run(t, p, schema, "status"); err != nil {
		t.Fatal(err)
	}
	if err := run(t, p, schema, "modify F 3 rat prot1 immune rat prot1 metab"); err != nil {
		t.Fatal(err)
	}
	if err := run(t, p, schema, "sync"); err != nil {
		t.Fatal(err)
	}
	got, ok := p.Instance().Lookup("F", core.Strs("rat", "prot1"))
	if !ok || got[2].Str() != "metab" {
		t.Fatalf("instance after modify: %v %v", got, ok)
	}
	if err := run(t, p, schema, "delete F rat prot1 metab"); err != nil {
		t.Fatal(err)
	}
	if err := run(t, p, schema, "sync"); err != nil {
		t.Fatal(err)
	}
	if p.Instance().Len("F") != 0 {
		t.Fatal("delete did not apply")
	}
}

func TestDispatchConflictsAndResolve(t *testing.T) {
	p, schema := newTestPeer(t, "q")
	// Create a conflict by a second peer on the same backend? The test
	// peer is alone, so simulate a local-only path: conflicts with no
	// groups prints cleanly.
	if err := run(t, p, schema, "conflicts"); err != nil {
		t.Fatal(err)
	}
	if err := run(t, p, schema, "resolve 0 0"); err == nil {
		t.Error("resolve with no groups should error")
	}
}

func TestDispatchErrors(t *testing.T) {
	p, schema := newTestPeer(t, "p1")
	bad := []string{
		"insert F",
		"modify F",
		"modify F x a b c",
		"modify F 3 rat prot1",
		"bogus",
		"resolve",
		"resolve a b",
	}
	for _, line := range bad {
		if err := run(t, p, schema, line); err == nil {
			t.Errorf("%q should error", line)
		}
	}
	if err := run(t, p, schema, "quit"); err != errQuit {
		t.Errorf("quit: %v", err)
	}
	// A local-instance violation surfaces as an error.
	if err := run(t, p, schema, "insert F rat prot1 a"); err != nil {
		t.Fatal(err)
	}
	if err := run(t, p, schema, "insert F rat prot1 b"); err == nil {
		t.Error("conflicting local insert should error")
	}
}

// flakyDecisions fails the backend's next `fail` decision writes.
type flakyDecisions struct {
	store.Backend
	fail atomic.Int32
}

func (f *flakyDecisions) RecordDecisionsBatch(ctx context.Context, batches []store.DecisionBatch) error {
	if f.fail.Load() > 0 {
		f.fail.Add(-1)
		return errors.New("injected: decision write failed")
	}
	return f.Backend.RecordDecisionsBatch(ctx, batches)
}

// output runs one command line and returns what it printed.
func output(t *testing.T, p *store.Peer, schema *core.Schema, line string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(t, p, schema, line)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestDispatchFlakyStore: when only the decision flush fails, reconcile
// prints what the engine decided and returns the error, status shows the
// debt, and the next command pays it before doing anything else.
func TestDispatchFlakyStore(t *testing.T) {
	schema, err := builtinSchema("protein")
	if err != nil {
		t.Fatal(err)
	}
	backend := &flakyDecisions{Backend: central.MustOpenMemory(schema)}
	t.Cleanup(func() { backend.Backend.(*central.Store).Close() })
	addr := serveTestStore(t, backend, schema)
	p1, p2 := dialTestPeer(t, "p1", schema, addr), dialTestPeer(t, "p2", schema, addr)

	if err := run(t, p1, schema, "insert F rat prot1 immune"); err != nil {
		t.Fatal(err)
	}
	if err := run(t, p1, schema, "publish"); err != nil {
		t.Fatal(err)
	}
	backend.fail.Store(1)
	out, err := output(t, p2, schema, "reconcile")
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("reconcile over a failing flush: err = %v", err)
	}
	if !strings.Contains(out, "accepted [p1:0]") {
		t.Errorf("reconcile did not print the engine's result: %q", out)
	}
	if out, _ := output(t, p2, schema, "status"); !strings.Contains(out, "pending=0 owed=1 ") {
		t.Errorf("status while owing: %q", out)
	}
	if err := run(t, p2, schema, "sync"); err != nil {
		t.Fatal(err)
	}
	if out, _ := output(t, p2, schema, "status"); !strings.Contains(out, "owed=0 ") {
		t.Errorf("status after paying: %q", out)
	}
	rebuilt, err := store.RebuildPeer(context.Background(), "p2", schema, p2.Engine().Trust(), backend.Backend)
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt.Instance().Equal(p2.Instance()) || p2.Instance().Len("F") != 1 {
		t.Errorf("rebuilt %v, live %v", rebuilt.Instance().Tuples("F"), p2.Instance().Tuples("F"))
	}
}

func TestBuiltinSchemas(t *testing.T) {
	if _, err := builtinSchema("protein"); err != nil {
		t.Error(err)
	}
	if s, err := builtinSchema("swissprot"); err != nil || s.Len() != 2 {
		t.Errorf("swissprot: %v %v", s, err)
	}
	if _, err := builtinSchema("nope"); err == nil {
		t.Error("unknown schema accepted")
	}
}
