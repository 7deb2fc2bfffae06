package orchestra

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/rpc"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
)

// owedCall is one line of the store-call transcript.
type owedCall struct {
	peer   PeerID
	op     string // "publish", "begin" or "decide"
	failed bool
}

// owedStore fails the next `failures` decision writes — before the commit
// (nothing written) or after it (written, reply lost) — and keeps a
// transcript of every peer's store calls.
type owedStore struct {
	store.Backend
	mu          sync.Mutex
	failures    int
	afterCommit bool
	calls       []owedCall
}

var errOwedInjected = fmt.Errorf("owed test: decision write lost: %w", rpc.ErrUnreachable)

func (s *owedStore) log(peer PeerID, op string, failed bool) {
	s.mu.Lock()
	s.calls = append(s.calls, owedCall{peer, op, failed})
	s.mu.Unlock()
}

func (s *owedStore) arm(failures int) {
	s.mu.Lock()
	s.failures = failures
	s.mu.Unlock()
}

func (s *owedStore) armed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failures
}

func (s *owedStore) Publish(ctx context.Context, peer PeerID, txns []store.PublishedTxn) (Epoch, error) {
	s.log(peer, "publish", false)
	return s.Backend.Publish(ctx, peer, txns)
}

func (s *owedStore) BeginReconciliation(ctx context.Context, peer PeerID) (*store.Reconciliation, error) {
	s.log(peer, "begin", false)
	return s.Backend.BeginReconciliation(ctx, peer)
}

func (s *owedStore) RecordDecisions(ctx context.Context, peer PeerID, recno int, accepted, rejected []TxnID) error {
	return s.RecordDecisionsBatch(ctx, []store.DecisionBatch{{Peer: peer, Recno: recno, Accepted: accepted, Rejected: rejected}})
}

func (s *owedStore) RecordDecisionsBatch(ctx context.Context, batches []store.DecisionBatch) error {
	s.mu.Lock()
	fail := s.failures > 0
	if fail {
		s.failures--
	}
	for _, b := range batches {
		s.calls = append(s.calls, owedCall{b.Peer, "decide", fail})
	}
	s.mu.Unlock()
	if fail && !s.afterCommit {
		return errOwedInjected
	}
	if err := s.Backend.RecordDecisionsBatch(ctx, batches); err != nil {
		return err
	}
	if fail {
		return errOwedInjected
	}
	return nil
}

// checkPaidFirst asserts that after every failed decision write the peer's
// next store call is the owed flush, and that at least one write failed.
func (s *owedStore) checkPaidFirst(t *testing.T, peer PeerID) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	failed, owing := 0, false
	for _, c := range s.calls {
		if c.peer != peer {
			continue
		}
		if owing && c.op != "decide" {
			t.Errorf("%s called %q while owing decisions; transcript: %v", peer, c.op, s.calls)
			return
		}
		owing = c.failed
		if c.failed {
			failed++
		}
	}
	if failed == 0 {
		t.Errorf("no decision write of %s failed: the case tested nothing", peer)
	}
	if owing {
		t.Errorf("%s still owes at the end of the transcript", peer)
	}
}

// checkSettled asserts the store holds exactly the engine's decisions and
// that a peer rebuilt from the store alone equals the live one.
func (s *owedStore) checkSettled(t *testing.T, schema *Schema, p *Peer) {
	t.Helper()
	ctx := context.Background()
	log, decisions, err := s.Backend.ReplayFrom(ctx, p.ID(), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range log {
		id, d := pt.Txn.ID, decisions[pt.Txn.ID].Decision
		if got, want := d == core.DecisionAccept, p.Engine().Applied(id); got != want {
			t.Errorf("%s: store says accepted(%s) = %v, engine applied = %v", p.ID(), id, got, want)
		}
		if got, want := d == core.DecisionReject, p.Engine().Rejected(id); got != want {
			t.Errorf("%s: store says rejected(%s) = %v, engine rejected = %v", p.ID(), id, got, want)
		}
	}
	rebuilt, err := store.RebuildPeer(ctx, p.ID(), schema, TrustAll(1), s.Backend)
	if err != nil {
		t.Fatalf("rebuild %s: %v", p.ID(), err)
	}
	if !rebuilt.Instance().Equal(p.Instance()) {
		t.Errorf("%s: rebuilt instance differs from the live one:\nrebuilt %v\nlive    %v",
			p.ID(), rebuilt.Instance().Tuples("F"), p.Instance().Tuples("F"))
	}
}

func owedPublish(t *testing.T, p *Peer, u Update) {
	t.Helper()
	if _, err := p.Edit(u); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Publish(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// wantOwing asserts the shape of a call whose flush failed: the engine's
// result and the injected error, together.
func wantOwing(t *testing.T, who string, res *Result, err error) {
	t.Helper()
	if !errors.Is(err, errOwedInjected) {
		t.Fatalf("%s: err = %v, want the injected flush failure", who, err)
	}
	if res == nil {
		t.Errorf("%s: a failed flush returned no result, but the engine did decide", who)
	}
}

// reconcileUntilClean retries Reconcile until the debt is paid.
func reconcileUntilClean(t *testing.T, p *Peer, failures int) {
	t.Helper()
	for i := 0; ; i++ {
		_, err := p.Reconcile(context.Background())
		if err == nil {
			return
		}
		if i >= failures || !errors.Is(err, errOwedInjected) {
			t.Fatalf("%s: reconcile %d after the failure: %v", p.ID(), i, err)
		}
	}
}

// TestOwedDecisions pins what happens to a decision the engine has made and
// the store has not recorded: the peer owes it, returns its result together
// with the flush's error, and pays before its next store-mutating call —
// through every entry point that records decisions. The store never
// re-offers a closed window and the engine never re-decides a transaction,
// so a decision dropped on a failed flush would leave the live peer ahead of
// anything RebuildPeer can reconstruct (§5.2: client state is soft state).
func TestOwedDecisions(t *testing.T) {
	ctx := context.Background()
	schema := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
	type fixture struct {
		st    *owedStore
		peers map[PeerID]*Peer
	}
	setup := func(t *testing.T, afterCommit bool, ids ...PeerID) fixture {
		st := &owedStore{Backend: central.MustOpenMemory(schema), afterCommit: afterCommit}
		t.Cleanup(func() { st.Backend.(*central.Store).Close() })
		f := fixture{st: st, peers: map[PeerID]*Peer{}}
		for _, id := range ids {
			p, err := store.NewPeer(ctx, id, schema, TrustAll(1), st)
			if err != nil {
				t.Fatal(err)
			}
			f.peers[id] = p
		}
		return f
	}

	for _, afterCommit := range []bool{false, true} {
		flavour := map[bool]string{false: "before-commit", true: "reply-lost"}[afterCommit]
		for _, failures := range []int{1, 2} {
			name := fmt.Sprintf("%s/k=%d", flavour, failures)

			t.Run("Reconcile/"+name, func(t *testing.T) {
				f := setup(t, afterCommit, "alice", "bob")
				alice, bob := f.peers["alice"], f.peers["bob"]
				owedPublish(t, alice, Insert("F", Strs("rat", "p1", "v"), "alice"))
				f.st.arm(failures)
				res, err := bob.Reconcile(ctx)
				wantOwing(t, "bob.Reconcile", res, err)
				reconcileUntilClean(t, bob, failures)
				f.st.checkPaidFirst(t, "bob")
				f.st.checkSettled(t, schema, bob)
				if bob.Instance().Len("F") != 1 {
					t.Errorf("bob holds %d tuples, want alice's 1", bob.Instance().Len("F"))
				}
			})

			t.Run("Resolve/"+name, func(t *testing.T) {
				f := setup(t, afterCommit, "alice", "bob", "carol")
				alice, bob, carol := f.peers["alice"], f.peers["bob"], f.peers["carol"]
				owedPublish(t, alice, Insert("F", Strs("rat", "p1", "va"), "alice"))
				owedPublish(t, carol, Insert("F", Strs("rat", "p1", "vc"), "carol"))
				if _, err := bob.Reconcile(ctx); err != nil {
					t.Fatal(err)
				}
				groups := bob.Engine().ConflictGroups()
				if len(groups) != 1 {
					t.Fatalf("bob has %d conflict groups, want 1", len(groups))
				}
				f.st.arm(failures)
				res, err := bob.Resolve(ctx, groups[0].Conflict, 0)
				wantOwing(t, "bob.Resolve", res, err)
				reconcileUntilClean(t, bob, failures)
				f.st.checkPaidFirst(t, "bob")
				f.st.checkSettled(t, schema, bob)
				if bob.Instance().Len("F") != 1 {
					t.Errorf("bob holds %d tuples, want the winner's 1", bob.Instance().Len("F"))
				}
			})

			t.Run("ReconcileStream/"+name, func(t *testing.T) {
				f := setup(t, afterCommit, "alice", "bob")
				alice, bob := f.peers["alice"], f.peers["bob"]
				sctx, cancel := context.WithCancel(ctx)
				done := make(chan error, 1)
				// Buffered well past the handful of steps the case takes: the
				// observer runs on the stream goroutine and must never block it.
				steps := make(chan store.StreamResult, 64)
				go func() {
					done <- bob.ReconcileStream(sctx, store.StreamOptions{
						RetryBase: time.Millisecond,
						RetryMax:  5 * time.Millisecond,
						OnResult:  func(r store.StreamResult) { steps <- r },
					})
				}()
				<-steps // the catch-up step: bob is subscribed
				f.st.arm(failures)
				owedPublish(t, alice, Insert("F", Strs("rat", "p1", "v"), "alice"))
				// The stream retries in place: wait for the first step that
				// completes after every armed failure was spent.
				deadline := time.After(10 * time.Second)
				for paid := false; !paid; {
					select {
					case <-steps:
						paid = f.st.armed() == 0
					case <-deadline:
						t.Fatal("stream never got past the failed flush")
					}
				}
				cancel()
				if err := <-done; err != nil {
					t.Fatalf("stream: %v", err)
				}
				f.st.checkPaidFirst(t, "bob")
				f.st.checkSettled(t, schema, bob)
				if bob.Instance().Len("F") != 1 {
					t.Errorf("bob holds %d tuples, want alice's 1", bob.Instance().Len("F"))
				}
			})

			for _, fan := range []int{1, 4} {
				t.Run(fmt.Sprintf("ReconcileAll/fan=%d/%s", fan, name), func(t *testing.T) {
					st := &owedStore{Backend: central.MustOpenMemory(schema), afterCommit: afterCommit}
					defer st.Backend.(*central.Store).Close()
					sys, err := NewSystem(schema, WithReconcileFanOut(fan),
						WithPeerStores(func(PeerID) (store.Store, error) { return st, nil }))
					if err != nil {
						t.Fatal(err)
					}
					ids := []PeerID{"alice", "bob", "carol", "dave"}
					for _, id := range ids {
						if _, err := sys.AddPeer(id, TrustAll(1)); err != nil {
							t.Fatal(err)
						}
					}
					alice, _ := sys.Peer("alice")
					if _, err := alice.Edit(Insert("F", Strs("rat", "p1", "v"), "alice")); err != nil {
						t.Fatal(err)
					}
					st.arm(failures)
					results, err := sys.ReconcileAll(ctx)
					if !errors.Is(err, errOwedInjected) {
						t.Fatalf("ReconcileAll: err = %v, want the injected flush failure", err)
					}
					// Which peers shared the failed flush depends on the
					// fan-out; every one of them must be named with Op
					// "record" and still have its result in the map.
					owing := map[PeerID]bool{}
					for _, e := range unwrapJoined(err) {
						var pe *PeerError
						if !errors.As(e, &pe) {
							t.Fatalf("not a *PeerError: %v", e)
						}
						if pe.Op != "record" {
							t.Errorf("%s: Op = %q, want \"record\"", pe.Peer, pe.Op)
						}
						owing[pe.Peer] = true
						if results[pe.Peer] == nil {
							t.Errorf("%s: its flush failed and its result is missing, but its engine did decide", pe.Peer)
						}
					}
					if len(owing) == 0 {
						t.Fatal("no peer reported a failed flush")
					}
					for i := 0; ; i++ {
						if _, err = sys.ReconcileAll(ctx); err == nil {
							break
						}
						if i >= failures {
							t.Fatalf("round %d after the failure: %v", i, err)
						}
					}
					for _, id := range ids {
						p, _ := sys.Peer(id)
						if owing[id] {
							st.checkPaidFirst(t, id)
						}
						st.checkSettled(t, schema, p)
						if p.Instance().Len("F") != 1 {
							t.Errorf("%s holds %d tuples, want alice's 1", id, p.Instance().Len("F"))
						}
					}
				})
			}
		}

		// The ordering case: while bob owes the accept of alice's tuple he
		// revises that tuple and publishes. The owed accept must reach the
		// store before the revision that depends on it, or a rebuild replays
		// them out of order.
		t.Run("PublishWhileOwing/"+flavour, func(t *testing.T) {
			f := setup(t, afterCommit, "alice", "bob", "carol")
			alice, bob, carol := f.peers["alice"], f.peers["bob"], f.peers["carol"]
			owedPublish(t, alice, Insert("F", Strs("rat", "p1", "v"), "alice"))
			f.st.arm(1)
			res, err := bob.Reconcile(ctx)
			wantOwing(t, "bob.Reconcile", res, err)
			owedPublish(t, bob, Modify("F", Strs("rat", "p1", "v"), Strs("rat", "p1", "w"), "bob"))
			reconcileUntilClean(t, bob, 0)
			f.st.checkPaidFirst(t, "bob")
			f.st.checkSettled(t, schema, bob)
			if got, ok := bob.Instance().Lookup("F", Strs("rat", "p1")); !ok || got[2].Str() != "w" {
				t.Errorf("bob's revision is not in his instance: %v %v", got, ok)
			}
			// And the chain is good to import: a third peer ends on the revision.
			reconcileUntilClean(t, carol, 0)
			if got, ok := carol.Instance().Lookup("F", Strs("rat", "p1")); !ok || got[2].Str() != "w" {
				t.Errorf("carol did not import bob's revision: %v %v", got, ok)
			}
		})
	}
}

// unwrapJoined returns the members of an errors.Join tree's top level.
func unwrapJoined(err error) []error {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return j.Unwrap()
	}
	return []error{err}
}
