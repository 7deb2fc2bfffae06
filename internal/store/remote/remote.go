// Package remote exposes a store over the TCP transport of internal/rpc, so
// a confederation can run as separate OS processes: one orchestra-store
// server hosting the central store and one orchestra-peer process per
// participant. Trust policies travel as text in the predicate language of
// internal/trust. The Client is a store.Backend and is meant to front one:
// the Server accepts any store.Store and refuses, per call, the capability
// its backend's type lacks.
//
// Each op's args and reply travel in the hand-rolled format of wire.go,
// inside the rpc envelope; the store-codec payloads (publish batches,
// replayed logs, snapshots, reconciliations, decision batches) are the
// store package's own encoders, carried verbatim.
//
// The client can retry transient failures (WithRetryPolicy): each
// non-idempotent operation then carries a client-generated idempotency key
// inside its request body, so a retried delivery dedupes server-side
// instead of double-applying. The key travels in the encoded args — the
// retry layer reuses the body verbatim across attempts, which is exactly
// what keeps the key constant.
package remote

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/rpc"
	"orchestra/internal/store"
	"orchestra/internal/trust"
)

// Method names.
const (
	mRegister     = "store.register"
	mPublish      = "store.publish"
	mBegin        = "store.begin"
	mDecideBatch  = "store.decide.batch"
	mTakeSnapshot = "store.snapshot.take"
	mSnapshot     = "store.snapshot"
	mReplayFrom   = "store.replayfrom"
	mCompact      = "store.compact"
	mWatch        = "store.watch"
	mEffTrust     = "store.trust.effective"
)

// The wire bodies; wire.go holds their codec and layout. A struct shared by
// several ops (peerArgs, epochReply) has one layout for all of them.

type registerArgs struct {
	Peer   core.PeerID
	Policy string
}

type publishArgs struct {
	Peer core.PeerID
	// Payload is the published batch in the store codec's binary encoding
	// (store.AppendPublishedTxns), decoded by the handler.
	Payload []byte
	// Key, when non-empty, dedupes retried deliveries server-side: the
	// handler puts it in the backend call's context.
	Key store.IdempotencyKey
}

// peerArgs is the body of every op that names only a peer (begin,
// effective trust); begin is the one that is keyed.
type peerArgs struct {
	Peer core.PeerID
	Key  store.IdempotencyKey
}

type decideBatchArgs struct {
	Batches []store.DecisionBatch
	Key     store.IdempotencyKey
}

type takeSnapshotArgs struct {
	Key store.IdempotencyKey
}

type replayFromArgs struct {
	Peer     core.PeerID
	From     core.Epoch
	AfterSeq int64
}

type compactArgs struct {
	Epoch core.Epoch
	Key   store.IdempotencyKey
}

// watchArgs is one bounded long-poll of the watch stream: the transport
// serializes calls per connection, so the subscription crosses the wire as
// a sequence of short polls rather than one unbounded stream — each poll
// waits server-side up to WaitNanos for the stable frontier to pass From.
// The poll is read-only and resumable by cursor (a redelivery with the same
// From reads the frontier again), so it composes with rpc.WithRetry without
// idempotency keys.
type watchArgs struct {
	From core.Epoch
	// WaitNanos bounds the server-side wait; the server clamps it to
	// maxWatchWait.
	WaitNanos int64
}

// none is the body of an op with no arguments or no result.
type none struct{}

// epochReply answers publish (the epoch assigned) and snapshot.take (the
// epoch covered). begin answers with store.Reconciliation itself.
type epochReply struct {
	Epoch core.Epoch
}

type effTrustReply struct {
	// Policy is the peer's effective trust in textual form. Over the wire
	// everything is textual (Client.RegisterPeer refuses anything else),
	// so the resolved closure round-trips losslessly as text.
	Policy string
}

// replayReply answers replayfrom.
type replayReply struct {
	// Log is the published log in global order, binary-codec encoded like a
	// publish payload.
	Log       []byte
	Decisions map[core.TxnID]core.RestoredDecision
}

type snapshotReply struct {
	// Snapshot is the retained snapshot in the store codec's binary
	// encoding (store.AppendSnapshot); empty when none is retained.
	Snapshot []byte
}

type watchReply struct {
	// To is the stable frontier observed by the poll; To == From means the
	// bound elapsed with no advance (an empty poll).
	To core.Epoch
}

// maxWatchWait caps the server-side wait of one watch poll, so a client
// that requests an absurd bound cannot pin a server connection forever.
const maxWatchWait = 30 * time.Second

// Server adapts a store.Store to the RPC transport.
type Server struct {
	backend store.Store
	schema  *core.Schema
	mux     *rpc.Mux
	srv     *rpc.Server
}

// NewServer wraps the backend; trust policies received from clients are
// parsed and bound to the schema.
func NewServer(backend store.Store, schema *core.Schema) *Server {
	s := &Server{backend: backend, schema: schema, mux: rpc.NewMux()}
	s.mux.Handle(mRegister, serve(s.register))
	s.mux.Handle(mPublish, serve(s.publish))
	s.mux.Handle(mBegin, serve(s.begin))
	s.mux.Handle(mDecideBatch, serve(s.decideBatch))
	s.mux.Handle(mTakeSnapshot, serve(s.takeSnapshot))
	s.mux.Handle(mSnapshot, serve(s.latestSnapshot))
	s.mux.Handle(mReplayFrom, serve(s.replayFrom))
	s.mux.Handle(mCompact, serve(s.compact))
	s.mux.Handle(mWatch, serve(s.watch))
	s.mux.Handle(mEffTrust, serve(s.effectiveTrust))
	s.srv = rpc.NewServer(s.mux)
	return s
}

// Handler exposes the server's dispatch table as an rpc.Handler, so the
// same store server can be mounted on any transport — a simnet node in
// chaos tests, TCP in production — without going through Listen.
func (s *Server) Handler() rpc.Handler { return s.mux }

// Listen binds addr and serves in the background, returning the bound
// address.
func (s *Server) Listen(addr string) (string, error) { return s.srv.Listen(addr) }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// serve is the server half of every op: decode the body, run the typed
// handler, encode its reply.
func serve[A, R any, PA wireBody[A], PR wireBody[R]](h func(context.Context, *A) (*R, error)) rpc.HandlerFunc {
	return func(ctx context.Context, req rpc.Request) ([]byte, error) {
		var args A
		if err := PA(&args).readWire(req.Body); err != nil {
			return nil, fmt.Errorf("remote: %s args: %w", req.Method, err)
		}
		reply, err := h(ctx, &args)
		if err != nil {
			return nil, err
		}
		return PR(reply).appendWire(nil), nil
	}
}

// need asserts the store.Backend capability an op requires of the server's
// backend (any store.Store may sit behind a Server); the refusal names the
// backend's type.
func need[T any](s *Server) (T, error) {
	b, ok := s.backend.(T)
	if !ok {
		return b, fmt.Errorf("remote: backend %T is not a %v", s.backend, reflect.TypeFor[T]())
	}
	return b, nil
}

func (s *Server) register(ctx context.Context, a *registerArgs) (*none, error) {
	policy, err := trust.Parse(a.Policy)
	if err != nil {
		return nil, fmt.Errorf("remote: peer %s policy: %w", a.Peer, err)
	}
	policy.WithSchema(s.schema)
	return &none{}, s.backend.RegisterPeer(ctx, a.Peer, policy)
}

func (s *Server) publish(ctx context.Context, a *publishArgs) (*epochReply, error) {
	txns, err := store.DecodePublishedTxns(a.Payload)
	if err != nil {
		return nil, fmt.Errorf("remote: publish payload from %s: %w", a.Peer, err)
	}
	epoch, err := s.backend.Publish(store.WithIdempotencyKey(ctx, a.Key), a.Peer, txns)
	return &epochReply{Epoch: epoch}, err
}

func (s *Server) begin(ctx context.Context, a *peerArgs) (*reconciliation, error) {
	rec, err := s.backend.BeginReconciliation(store.WithIdempotencyKey(ctx, a.Key), a.Peer)
	if err == nil && rec == nil {
		err = fmt.Errorf("remote: backend %T began no reconciliation for %s", s.backend, a.Peer)
	}
	return (*reconciliation)(rec), err
}

func (s *Server) decideBatch(ctx context.Context, a *decideBatchArgs) (*none, error) {
	return &none{}, s.backend.RecordDecisionsBatch(store.WithIdempotencyKey(ctx, a.Key), a.Batches)
}

func (s *Server) takeSnapshot(ctx context.Context, a *takeSnapshotArgs) (*epochReply, error) {
	sn, err := need[store.Snapshotter](s)
	if err != nil {
		return nil, err
	}
	epoch, err := sn.Snapshot(store.WithIdempotencyKey(ctx, a.Key))
	return &epochReply{Epoch: epoch}, err
}

func (s *Server) latestSnapshot(ctx context.Context, _ *none) (*snapshotReply, error) {
	sr, err := need[store.SnapshotReplayer](s)
	if err != nil {
		return nil, err
	}
	snap, err := sr.LatestSnapshot(ctx)
	if err != nil || snap == nil {
		return &snapshotReply{}, err
	}
	return &snapshotReply{Snapshot: store.AppendSnapshot(nil, snap)}, nil
}

func (s *Server) replayFrom(ctx context.Context, a *replayFromArgs) (*replayReply, error) {
	sr, err := need[store.SnapshotReplayer](s)
	if err != nil {
		return nil, err
	}
	log, decisions, err := sr.ReplayFrom(ctx, a.Peer, a.From, a.AfterSeq)
	return &replayReply{Log: store.AppendPublishedTxns(nil, log), Decisions: decisions}, err
}

func (s *Server) compact(ctx context.Context, a *compactArgs) (*none, error) {
	sn, err := need[store.Snapshotter](s)
	if err != nil {
		return nil, err
	}
	return &none{}, sn.CompactBefore(store.WithIdempotencyKey(ctx, a.Key), a.Epoch)
}

// effectiveTrust serves a peer's resolved trust as text. Delegation
// closures computed by the backend's trust graph travel as the flattened
// effective policy, so the client never needs the other members' policies.
func (s *Server) effectiveTrust(ctx context.Context, a *peerArgs) (*effTrustReply, error) {
	tr, err := need[store.TrustResolver](s)
	if err != nil {
		return nil, err
	}
	t, err := tr.EffectiveTrust(ctx, a.Peer)
	if err != nil {
		return nil, err
	}
	pol, ok := t.(*trust.Policy)
	if !ok {
		return nil, fmt.Errorf("remote: peer %s effective trust %T is not textual", a.Peer, t)
	}
	return &effTrustReply{Policy: pol.String()}, nil
}

// watch serves one bounded long-poll: it subscribes to the backend at the
// client's cursor for at most the requested wait and relays the first
// frontier advance that arrives (or an empty poll).
func (s *Server) watch(ctx context.Context, a *watchArgs) (*watchReply, error) {
	w, err := need[store.Watcher](s)
	if err != nil {
		return nil, err
	}
	wait := time.Duration(a.WaitNanos)
	if wait <= 0 || wait > maxWatchWait {
		wait = maxWatchWait
	}
	wctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	ch, err := w.WatchFrom(wctx, a.From)
	if err != nil {
		return nil, err
	}
	ev, ok := <-ch
	if !ok {
		// The bound elapsed with no frontier advance (or the backend shut
		// down): an empty poll, the client re-polls from the same cursor.
		return &watchReply{To: a.From}, nil
	}
	return &watchReply{To: ev.To}, nil
}

// Client implements store.Backend against a remote Server. Trust policies
// must be textual (*trust.Policy): predicate code cannot travel over the
// wire.
type Client struct {
	caller rpc.Caller
	addr   string

	// retrying is set by WithRetryPolicy; only a retrying client generates
	// idempotency keys (without retries this client never produces
	// duplicate deliveries, so keys would only grow the server's dedup
	// table for nothing).
	retrying  bool
	keyPrefix string
	keyCtr    atomic.Int64
	// begins holds, per peer, the key of the last begin if it failed: it
	// may have committed, moving the peer's frontier past its window, so
	// the peer's next begin travels with the same key and the store
	// replays that window instead of skipping it.
	beginMu sync.Mutex
	begins  map[core.PeerID]store.IdempotencyKey
	// watchPoll bounds the server-side wait of each watch long-poll (see
	// WithWatchPoll).
	watchPoll time.Duration
}

var _ store.Backend = (*Client)(nil)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRetryPolicy wraps the client's transport so every call retries
// transient failures under the policy. A nil Classify defaults to
// store.IsTransient. With retries on, the client attaches idempotency keys
// to its non-idempotent operations (Publish, BeginReconciliation, the
// decision writes, Snapshot, CompactBefore), which the backend at the other
// end dedupes, making the retries safe end to end.
func WithRetryPolicy(p rpc.RetryPolicy) ClientOption {
	return func(c *Client) {
		if p.Classify == nil {
			p.Classify = store.IsTransient
		}
		c.caller = rpc.WithRetry(c.caller, p)
		c.retrying = true
	}
}

// DefaultWatchPoll is the default server-side wait bound of one watch
// long-poll. The bound only matters while the stream is idle — a frontier
// advance completes the poll immediately — but it caps how long a poll can
// occupy the client's serialized connection, so other store calls from the
// same client are never delayed longer than this.
const DefaultWatchPoll = 200 * time.Millisecond

// watchWaitSlack pads the client-side deadline of a watch poll past the
// server-side wait bound, leaving room for transport latency and a few
// in-budget retry attempts.
const watchWaitSlack = 250 * time.Millisecond

// WithWatchPoll sets the server-side wait bound of each watch long-poll.
// Shorter bounds make an idle subscription poll more often but reduce the
// worst-case delay the poll imposes on other calls sharing the client's
// connection.
func WithWatchPoll(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.watchPoll = d
		}
	}
}

// NewClient returns a client for the server at addr.
func NewClient(from, addr string, opts ...ClientOption) *Client {
	return NewClientOn(rpc.NewClient(from), addr, opts...)
}

// NewClientOn returns a client using an existing transport (e.g. a simnet
// node in tests).
func NewClientOn(caller rpc.Caller, addr string, opts ...ClientOption) *Client {
	c := &Client{caller: caller, addr: addr, keyPrefix: randomKeyPrefix(), begins: make(map[core.PeerID]store.IdempotencyKey), watchPoll: DefaultWatchPoll}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// randomKeyPrefix draws a fresh random namespace for this client's
// idempotency keys, so distinct clients (and client restarts) never collide.
func randomKeyPrefix() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("remote: idempotency key entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// key picks the idempotency key an operation travels with: a key the caller
// placed in ctx wins; otherwise a retrying client mints one per call (the
// key sits in the encoded request body, which the retry layer reuses
// verbatim, so all attempts of one call share it).
func (c *Client) key(ctx context.Context, op string) store.IdempotencyKey {
	if k, ok := store.IdempotencyKeyFrom(ctx); ok {
		return k
	}
	if !c.retrying {
		return ""
	}
	return store.IdempotencyKey(fmt.Sprintf("%s/%s/%d", c.keyPrefix, op, c.keyCtr.Add(1)))
}

// call is the client half of every op: the typed body out through the
// client's (possibly retrying) transport, the typed reply back.
func call[R, A any, PR wireBody[R], PA wireBody[A]](ctx context.Context, c *Client, method string, args *A) (R, error) {
	var reply R
	resp, err := c.caller.Call(ctx, c.addr, method, PA(args).appendWire(nil))
	if err != nil {
		return reply, err
	}
	if err := PR(&reply).readWire(resp); err != nil {
		var zero R
		return zero, fmt.Errorf("remote: %s reply: %w", method, err)
	}
	return reply, nil
}

// RegisterPeer implements store.Store. The trust policy must be a
// *trust.Policy. Registration is naturally idempotent (an upsert), so it
// travels unkeyed.
func (c *Client) RegisterPeer(ctx context.Context, peer core.PeerID, t core.Trust) error {
	policy, ok := t.(*trust.Policy)
	if !ok {
		return fmt.Errorf("remote: peer %s: trust policy must be a *trust.Policy (textual rules)", peer)
	}
	_, err := call[none](ctx, c, mRegister, &registerArgs{Peer: peer, Policy: policy.String()})
	return err
}

// Publish implements store.Store; the batch travels in the binary store
// codec.
func (c *Client) Publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn) (core.Epoch, error) {
	r, err := call[epochReply](ctx, c, mPublish,
		&publishArgs{Peer: peer, Payload: store.AppendPublishedTxns(nil, txns), Key: c.key(ctx, "publish")})
	return r.Epoch, err
}

// BeginReconciliation implements store.Store. Keyed like the writes: the
// store advances the peer's frontier past the window it hands out, so a
// retried begin must replay the first delivery's window rather than be
// given a new (empty) one.
//
// A begin's own retries can run out while the store is down, after the
// first attempt committed (a crash takes the reply with it). The next
// begin for the same peer therefore reuses the failed one's key: the store
// replays the window if the begin committed and runs it afresh if not.
func (c *Client) BeginReconciliation(ctx context.Context, peer core.PeerID) (*store.Reconciliation, error) {
	_, keyed := store.IdempotencyKeyFrom(ctx)
	c.beginMu.Lock()
	key, owed := c.begins[peer]
	c.beginMu.Unlock()
	if keyed || !owed {
		key = c.key(ctx, "begin")
	}
	rec, err := call[reconciliation](ctx, c, mBegin, &peerArgs{Peer: peer, Key: key})
	if c.retrying && !keyed {
		c.beginMu.Lock()
		if err == nil {
			delete(c.begins, peer)
		} else {
			c.begins[peer] = key
		}
		c.beginMu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	return (*store.Reconciliation)(&rec), nil
}

// RecordDecisions implements store.Store as a single-entry batch.
func (c *Client) RecordDecisions(ctx context.Context, peer core.PeerID, recno int, accepted, rejected []core.TxnID) error {
	return c.RecordDecisionsBatch(ctx, []store.DecisionBatch{{
		Peer: peer, Recno: recno, Accepted: accepted, Rejected: rejected,
	}})
}

// RecordDecisionsBatch implements store.Store: the whole wave's decisions
// travel in one network round trip.
func (c *Client) RecordDecisionsBatch(ctx context.Context, batches []store.DecisionBatch) error {
	_, err := call[none](ctx, c, mDecideBatch, &decideBatchArgs{Batches: batches, Key: c.key(ctx, "decide.batch")})
	return err
}

// EffectiveTrust implements store.TrustResolver by RPC. The policy comes
// back as a fresh parsed copy with no schema bound; callers that evaluate
// attr('name') predicates locally bind their own schema (store.Peer does).
func (c *Client) EffectiveTrust(ctx context.Context, peer core.PeerID) (core.Trust, error) {
	r, err := call[effTrustReply](ctx, c, mEffTrust, &peerArgs{Peer: peer})
	if err != nil {
		return nil, err
	}
	pol, err := trust.Parse(r.Policy)
	if err != nil {
		return nil, fmt.Errorf("remote: effective trust payload: %w", err)
	}
	return pol, nil
}

// ReplayFrom implements store.SnapshotReplayer: the log after an epoch and
// the peer's decisions after a sequence in one round trip, in the binary
// store codec — the post-snapshot tail, or from (0, −1) the whole history,
// so a lost participant rebuilds from a remote store exactly as from a
// local one (store.RebuildPeer).
func (c *Client) ReplayFrom(ctx context.Context, peer core.PeerID, from core.Epoch, afterSeq int64) ([]store.PublishedTxn, map[core.TxnID]core.RestoredDecision, error) {
	r, err := call[replayReply](ctx, c, mReplayFrom, &replayFromArgs{Peer: peer, From: from, AfterSeq: afterSeq})
	if err != nil {
		return nil, nil, err
	}
	log, err := store.DecodePublishedTxns(r.Log)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: replay payload: %w", err)
	}
	return log, r.Decisions, nil
}

// Snapshot implements store.Snapshotter by proxy: the server's backend
// takes and retains the snapshot; only the covered epoch returns.
func (c *Client) Snapshot(ctx context.Context) (core.Epoch, error) {
	r, err := call[epochReply](ctx, c, mTakeSnapshot, &takeSnapshotArgs{Key: c.key(ctx, "snapshot")})
	return r.Epoch, err
}

// CompactBefore implements store.Snapshotter by proxy; the backend enforces
// the compaction safety invariants and its refusals travel back as errors.
func (c *Client) CompactBefore(ctx context.Context, e core.Epoch) error {
	_, err := call[none](ctx, c, mCompact, &compactArgs{Epoch: e, Key: c.key(ctx, "compact")})
	return err
}

// LatestSnapshot implements store.SnapshotReplayer: the retained snapshot
// crosses the wire once in the binary snapshot codec. Together with
// ReplayFrom this is the two-round-trip catch-up path store.RebuildPeer
// uses against a remote store.
func (c *Client) LatestSnapshot(ctx context.Context) (*store.Snapshot, error) {
	r, err := call[snapshotReply](ctx, c, mSnapshot, &none{})
	if err != nil || len(r.Snapshot) == 0 {
		return nil, err
	}
	snap, err := store.DecodeSnapshot(r.Snapshot)
	if err != nil {
		return nil, fmt.Errorf("remote: snapshot payload: %w", err)
	}
	return snap, nil
}

// CanWatch is a constant true and nothing in this module calls it: the
// client is a store.Watcher by type. It survives only because
// bench/serve_stream.go's splitStore calls it and bench/ could not be edited
// in the PR that deleted the capability probes; the next benchmark-only PR
// deletes both (ROADMAP item 1b).
func (c *Client) CanWatch(context.Context) bool { return true }

// WatchFrom implements store.Watcher by proxy: a sequence of bounded
// long-polls, each resuming at the cursor of the last delivered event. The
// polls ride the client's (possibly retrying) transport — they are
// read-only and idempotent by cursor, so redeliveries are harmless — and a
// poll that fails past retries closes the channel; the consumer resumes by
// subscribing again from its cursor.
func (c *Client) WatchFrom(ctx context.Context, from core.Epoch) (<-chan store.WatchEvent, error) {
	ch := make(chan store.WatchEvent)
	go c.watchLoop(ctx, from, ch)
	return ch, nil
}

func (c *Client) watchLoop(ctx context.Context, cursor core.Epoch, ch chan<- store.WatchEvent) {
	defer close(ch)
	for ctx.Err() == nil {
		pollCtx, cancel := context.WithTimeout(ctx, c.watchPoll+watchWaitSlack)
		reply, err := call[watchReply](pollCtx, c, mWatch, &watchArgs{From: cursor, WaitNanos: int64(c.watchPoll)})
		cancel()
		if err != nil {
			// Retries already absorbed transient faults inside the poll; an
			// error surfacing here breaks the subscription; the consumer
			// resumes from its own cursor.
			return
		}
		if reply.To <= cursor {
			continue // empty poll
		}
		select {
		case ch <- store.WatchEvent{From: cursor, To: reply.To}:
			cursor = reply.To
		case <-ctx.Done():
			return
		}
	}
}
