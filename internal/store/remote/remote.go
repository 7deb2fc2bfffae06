// Package remote exposes a store over the TCP transport of internal/rpc, so
// a confederation can run as separate OS processes: one orchestra-store
// server hosting the central store and one orchestra-peer process per
// participant. Trust policies travel as text in the predicate language of
// internal/trust. The Client is a store.Backend and is meant to front one:
// the Server accepts any store.Store and refuses, per call, the capability
// its backend's type lacks.
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
	mRecno        = "store.recno"
	mReplay       = "store.replay"
	mTakeSnapshot = "store.snapshot.take"
	mSnapshot     = "store.snapshot"
	mReplayFrom   = "store.replayfrom"
	mCompact      = "store.compact"
	mWatch        = "store.watch"
	mEffTrust     = "store.trust.effective"
)

type registerArgs struct {
	Peer   core.PeerID
	Policy string
}

type publishArgs struct {
	Peer core.PeerID
	// Payload is the published batch in the store codec's binary encoding
	// (store.AppendPublishedTxns) — the transaction graph never crosses the
	// wire as gob, whose per-encoder type descriptors made every publish
	// re-ship the schema of the whole Transaction/Update tree.
	Payload []byte
	// Key, when non-empty, dedupes retried deliveries server-side.
	Key store.IdempotencyKey
}

type publishReply struct {
	Epoch core.Epoch
}

type beginArgs struct {
	Peer core.PeerID
	Key  store.IdempotencyKey
}

type wireCandidate struct {
	Txn      *core.Transaction
	Priority int
	Ext      []*core.Transaction
}

type beginReply struct {
	Recno      int
	FromEpoch  core.Epoch
	ToEpoch    core.Epoch
	Candidates []wireCandidate
}

type decideBatchArgs struct {
	Batches []store.DecisionBatch
	Key     store.IdempotencyKey
}

type recnoArgs struct {
	Peer core.PeerID
}

type effTrustArgs struct {
	Peer core.PeerID
}

type effTrustReply struct {
	// Policy is the peer's effective trust in textual form. Over the wire
	// everything is textual (Client.RegisterPeer refuses anything else),
	// so the resolved closure round-trips losslessly as text.
	Policy string
}

type recnoReply struct {
	Recno int
}

type replayArgs struct {
	Peer core.PeerID
}

type replayReply struct {
	// Log is the full published log in global order, binary-codec encoded
	// like a publish payload.
	Log       []byte
	Decisions map[core.TxnID]core.RestoredDecision
}

type takeSnapshotArgs struct {
	Key store.IdempotencyKey
}

type takeSnapshotReply struct {
	Epoch core.Epoch
}

type snapshotReply struct {
	// Snapshot is the retained snapshot in the store codec's binary
	// encoding (store.AppendSnapshot); empty when none is retained.
	Snapshot []byte
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
// From returns the same window), so it composes with rpc.WithRetry without
// idempotency keys.
type watchArgs struct {
	From core.Epoch
	// WaitNanos bounds the server-side wait; the server clamps it to
	// maxWatchWait.
	WaitNanos int64
}

type watchReply struct {
	// To is the stable frontier observed by the poll; To == From means the
	// bound elapsed with no advance (an empty poll).
	To core.Epoch
	// Payload is the window (From, To]'s published transactions in the
	// store codec's binary encoding (store.AppendPublishedTxns).
	Payload []byte
}

// maxWatchWait caps the server-side wait of one watch poll, so a client
// that requests an absurd bound cannot pin a server connection forever.
const maxWatchWait = 30 * time.Second

// withKey attaches a wire-carried idempotency key to the handler's context,
// where the backend's dedup machinery picks it up.
func withKey(ctx context.Context, key store.IdempotencyKey) context.Context {
	if key == "" {
		return ctx
	}
	return store.WithIdempotencyKey(ctx, key)
}

// Server adapts a store.Store to the RPC transport.
type Server struct {
	backend store.Store
	schema  *core.Schema
	mux     *rpc.Mux
	srv     *rpc.Server
}

// NewServer wraps the backend; trust policies received from clients are
// compiled against the schema.
func NewServer(backend store.Store, schema *core.Schema) *Server {
	s := &Server{backend: backend, schema: schema}
	mux := rpc.NewMux()
	mux.Handle(mRegister, s.register)
	mux.Handle(mPublish, s.publish)
	mux.Handle(mBegin, s.begin)
	mux.Handle(mDecideBatch, s.decideBatch)
	mux.Handle(mRecno, s.recno)
	mux.Handle(mReplay, s.replay)
	mux.Handle(mTakeSnapshot, s.takeSnapshot)
	mux.Handle(mSnapshot, s.latestSnapshot)
	mux.Handle(mReplayFrom, s.replayFrom)
	mux.Handle(mCompact, s.compact)
	mux.Handle(mWatch, s.watch)
	mux.Handle(mEffTrust, s.effectiveTrust)
	s.mux = mux
	s.srv = rpc.NewServer(mux)
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

func (s *Server) register(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args registerArgs
	if err := rpc.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	policy, err := trust.Parse(args.Policy)
	if err != nil {
		return nil, fmt.Errorf("remote: peer %s policy: %w", args.Peer, err)
	}
	policy.WithSchema(s.schema)
	if err := s.backend.RegisterPeer(ctx, args.Peer, policy); err != nil {
		return nil, err
	}
	return rpc.Encode(&struct{}{})
}

func (s *Server) publish(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args publishArgs
	if err := rpc.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	txns, err := store.DecodePublishedTxns(args.Payload)
	if err != nil {
		return nil, fmt.Errorf("remote: publish payload from %s: %w", args.Peer, err)
	}
	epoch, err := s.backend.Publish(withKey(ctx, args.Key), args.Peer, txns)
	if err != nil {
		return nil, err
	}
	return rpc.Encode(&publishReply{Epoch: epoch})
}

func (s *Server) begin(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args beginArgs
	if err := rpc.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	rec, err := s.backend.BeginReconciliation(withKey(ctx, args.Key), args.Peer)
	if err != nil {
		return nil, err
	}
	reply := beginReply{Recno: rec.Recno, FromEpoch: rec.FromEpoch, ToEpoch: rec.ToEpoch}
	for _, c := range rec.Candidates {
		reply.Candidates = append(reply.Candidates, wireCandidate{
			Txn: c.Txn, Priority: c.Priority, Ext: c.Ext,
		})
	}
	return rpc.Encode(&reply)
}

func (s *Server) decideBatch(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args decideBatchArgs
	if err := rpc.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	if err := s.backend.RecordDecisionsBatch(withKey(ctx, args.Key), args.Batches); err != nil {
		return nil, err
	}
	return rpc.Encode(&struct{}{})
}

func (s *Server) recno(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args recnoArgs
	if err := rpc.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	n, err := s.backend.CurrentRecno(ctx, args.Peer)
	if err != nil {
		return nil, err
	}
	return rpc.Encode(&recnoReply{Recno: n})
}

func (s *Server) replay(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args replayArgs
	if err := rpc.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	rp, ok := s.backend.(store.Replayer)
	if !ok {
		return nil, fmt.Errorf("remote: backend %T cannot replay peer state", s.backend)
	}
	log, decisions, err := rp.ReplayFor(ctx, args.Peer)
	if err != nil {
		return nil, err
	}
	return rpc.Encode(&replayReply{
		Log:       store.AppendPublishedTxns(nil, log),
		Decisions: decisions,
	})
}

func (s *Server) takeSnapshot(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args takeSnapshotArgs
	if err := rpc.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	sn, ok := s.backend.(store.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("remote: backend %T cannot take snapshots", s.backend)
	}
	epoch, err := sn.Snapshot(withKey(ctx, args.Key))
	if err != nil {
		return nil, err
	}
	return rpc.Encode(&takeSnapshotReply{Epoch: epoch})
}

func (s *Server) latestSnapshot(ctx context.Context, _ rpc.Request) ([]byte, error) {
	sr, ok := s.backend.(store.SnapshotReplayer)
	if !ok {
		return nil, fmt.Errorf("remote: backend %T retains no snapshots", s.backend)
	}
	snap, err := sr.LatestSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	reply := snapshotReply{}
	if snap != nil {
		reply.Snapshot = store.AppendSnapshot(nil, snap)
	}
	return rpc.Encode(&reply)
}

func (s *Server) replayFrom(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args replayFromArgs
	if err := rpc.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	sr, ok := s.backend.(store.SnapshotReplayer)
	if !ok {
		return nil, fmt.Errorf("remote: backend %T cannot replay a tail", s.backend)
	}
	log, decisions, err := sr.ReplayFrom(ctx, args.Peer, args.From, args.AfterSeq)
	if err != nil {
		return nil, err
	}
	return rpc.Encode(&replayReply{
		Log:       store.AppendPublishedTxns(nil, log),
		Decisions: decisions,
	})
}

func (s *Server) compact(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args compactArgs
	if err := rpc.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	sn, ok := s.backend.(store.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("remote: backend %T cannot compact", s.backend)
	}
	if err := sn.CompactBefore(withKey(ctx, args.Key), args.Epoch); err != nil {
		return nil, err
	}
	return rpc.Encode(&struct{}{})
}

// effectiveTrust serves a peer's resolved trust as text. Delegation
// closures computed by the backend's trust graph travel as the flattened
// effective policy, so the client never needs the other members' policies.
func (s *Server) effectiveTrust(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args effTrustArgs
	if err := rpc.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	tr, ok := s.backend.(store.TrustResolver)
	if !ok {
		return nil, fmt.Errorf("remote: backend %T does not resolve trust", s.backend)
	}
	t, err := tr.EffectiveTrust(ctx, args.Peer)
	if err != nil {
		return nil, err
	}
	pol, ok := t.(*trust.Policy)
	if !ok {
		return nil, fmt.Errorf("remote: peer %s effective trust %T is not textual", args.Peer, t)
	}
	return rpc.Encode(&effTrustReply{Policy: pol.String()})
}

// watch serves one bounded long-poll: it subscribes to the backend at the
// client's cursor for at most the requested wait and relays the first
// window that arrives (or an empty poll). The subscription registered for
// the call's duration also pins the backend's compaction horizon at the
// cursor while the poll is in flight.
func (s *Server) watch(ctx context.Context, req rpc.Request) ([]byte, error) {
	var args watchArgs
	if err := rpc.Decode(req.Body, &args); err != nil {
		return nil, err
	}
	w, ok := s.backend.(store.Watcher)
	if !ok {
		return nil, fmt.Errorf("remote: backend %T does not support watch subscriptions", s.backend)
	}
	wait := time.Duration(args.WaitNanos)
	if wait <= 0 || wait > maxWatchWait {
		wait = maxWatchWait
	}
	wctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	ch, err := w.WatchFrom(wctx, args.From)
	if err != nil {
		return nil, err
	}
	ev, ok := <-ch
	if !ok {
		// The bound elapsed with no frontier advance (or the backend shut
		// down): an empty poll, the client re-polls from the same cursor.
		return rpc.Encode(&watchReply{To: args.From})
	}
	return rpc.Encode(&watchReply{To: ev.To, Payload: store.AppendPublishedTxns(nil, ev.Txns)})
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
	// watchPoll bounds the server-side wait of each watch long-poll (see
	// WithWatchPoll).
	watchPoll time.Duration
	// group is the method prefix ("group/<encoded id>/", or empty) a
	// WithGroup client stamps on every store call, routing it to one tenant
	// of a multi-group server (see GroupServer).
	group string
}

var _ store.Backend = (*Client)(nil)

// m maps a store method name to the wire method this client calls:
// group-scoped clients prefix every call with their group route.
func (c *Client) m(name string) string { return c.group + name }

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

// WithGroup scopes every call of this client to one group of a
// multi-group server (GroupServer): method names travel with the group's
// route prefix. Against a single-group Server the prefixed methods do not
// resolve, so a group-scoped client only works with a group gateway.
func WithGroup(group string) ClientOption {
	return func(c *Client) {
		c.group = "group/" + store.EncodeNamespace(group) + "/"
	}
}

// NewClient returns a client for the server at addr.
func NewClient(from, addr string, opts ...ClientOption) *Client {
	return NewClientOn(rpc.NewClient(from), addr, opts...)
}

// NewClientOn returns a client using an existing transport (e.g. a simnet
// node in tests).
func NewClientOn(caller rpc.Caller, addr string, opts ...ClientOption) *Client {
	c := &Client{caller: caller, addr: addr, keyPrefix: randomKeyPrefix(), watchPoll: DefaultWatchPoll}
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

// RegisterPeer implements store.Store. The trust policy must be a
// *trust.Policy. Registration is naturally idempotent (an upsert), so it
// travels unkeyed.
func (c *Client) RegisterPeer(ctx context.Context, peer core.PeerID, t core.Trust) error {
	policy, ok := t.(*trust.Policy)
	if !ok {
		return fmt.Errorf("remote: peer %s: trust policy must be a *trust.Policy (textual rules)", peer)
	}
	return rpc.Invoke(ctx, c.caller, c.addr, c.m(mRegister),
		&registerArgs{Peer: peer, Policy: policy.String()}, nil)
}

// Publish implements store.Store; the batch travels in the binary store
// codec, not gob.
func (c *Client) Publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn) (core.Epoch, error) {
	var reply publishReply
	args := publishArgs{Peer: peer, Payload: store.AppendPublishedTxns(nil, txns), Key: c.key(ctx, "publish")}
	if err := rpc.Invoke(ctx, c.caller, c.addr, c.m(mPublish), &args, &reply); err != nil {
		return 0, err
	}
	return reply.Epoch, nil
}

// BeginReconciliation implements store.Store. Keyed like the writes: the
// store advances the peer's frontier past the window it hands out, so a
// retried begin must replay the first delivery's window rather than be
// given a new (empty) one.
func (c *Client) BeginReconciliation(ctx context.Context, peer core.PeerID) (*store.Reconciliation, error) {
	var reply beginReply
	args := beginArgs{Peer: peer, Key: c.key(ctx, "begin")}
	if err := rpc.Invoke(ctx, c.caller, c.addr, c.m(mBegin), &args, &reply); err != nil {
		return nil, err
	}
	rec := &store.Reconciliation{Recno: reply.Recno, FromEpoch: reply.FromEpoch, ToEpoch: reply.ToEpoch}
	for _, wc := range reply.Candidates {
		rec.Candidates = append(rec.Candidates, &core.Candidate{
			Txn: wc.Txn, Priority: wc.Priority, Ext: wc.Ext,
		})
	}
	return rec, nil
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
	args := decideBatchArgs{Batches: batches, Key: c.key(ctx, "decide.batch")}
	return rpc.Invoke(ctx, c.caller, c.addr, c.m(mDecideBatch), &args, nil)
}

// CurrentRecno implements store.Store.
func (c *Client) CurrentRecno(ctx context.Context, peer core.PeerID) (int, error) {
	var reply recnoReply
	if err := rpc.Invoke(ctx, c.caller, c.addr, c.m(mRecno), &recnoArgs{Peer: peer}, &reply); err != nil {
		return 0, err
	}
	return reply.Recno, nil
}

// EffectiveTrust implements store.TrustResolver by RPC. The policy comes
// back as a fresh parsed copy with no schema bound; callers that evaluate
// attr('name') predicates locally bind their own schema (store.Peer does).
func (c *Client) EffectiveTrust(ctx context.Context, peer core.PeerID) (core.Trust, error) {
	var reply effTrustReply
	if err := rpc.Invoke(ctx, c.caller, c.addr, c.m(mEffTrust), &effTrustArgs{Peer: peer}, &reply); err != nil {
		return nil, err
	}
	pol, err := trust.Parse(reply.Policy)
	if err != nil {
		return nil, fmt.Errorf("remote: effective trust payload: %w", err)
	}
	return pol, nil
}

// ReplayFor implements store.Replayer: the full log crosses the wire once,
// in the binary store codec, so a lost participant can rebuild its soft
// state from a remote store exactly as from a local one (store.RebuildPeer).
func (c *Client) ReplayFor(ctx context.Context, peer core.PeerID) ([]store.PublishedTxn, map[core.TxnID]core.RestoredDecision, error) {
	var reply replayReply
	if err := rpc.Invoke(ctx, c.caller, c.addr, c.m(mReplay), &replayArgs{Peer: peer}, &reply); err != nil {
		return nil, nil, err
	}
	log, err := store.DecodePublishedTxns(reply.Log)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: replay payload: %w", err)
	}
	return log, reply.Decisions, nil
}

// Snapshot implements store.Snapshotter by proxy: the server's backend
// takes and retains the snapshot; only the covered epoch returns.
func (c *Client) Snapshot(ctx context.Context) (core.Epoch, error) {
	var reply takeSnapshotReply
	args := takeSnapshotArgs{Key: c.key(ctx, "snapshot")}
	if err := rpc.Invoke(ctx, c.caller, c.addr, c.m(mTakeSnapshot), &args, &reply); err != nil {
		return 0, err
	}
	return reply.Epoch, nil
}

// CompactBefore implements store.Snapshotter by proxy; the backend enforces
// the compaction safety invariants and its refusals travel back as errors.
func (c *Client) CompactBefore(ctx context.Context, e core.Epoch) error {
	args := compactArgs{Epoch: e, Key: c.key(ctx, "compact")}
	return rpc.Invoke(ctx, c.caller, c.addr, c.m(mCompact), &args, nil)
}

// LatestSnapshot implements store.SnapshotReplayer: the retained snapshot
// crosses the wire once in the binary snapshot codec. Together with
// ReplayFrom this is the two-round-trip catch-up path store.RebuildPeer
// uses against a remote store.
func (c *Client) LatestSnapshot(ctx context.Context) (*store.Snapshot, error) {
	var reply snapshotReply
	if err := rpc.Invoke(ctx, c.caller, c.addr, c.m(mSnapshot), &struct{}{}, &reply); err != nil {
		return nil, err
	}
	if len(reply.Snapshot) == 0 {
		return nil, nil
	}
	snap, err := store.DecodeSnapshot(reply.Snapshot)
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
		var reply watchReply
		pollCtx, cancel := context.WithTimeout(ctx, c.watchPoll+watchWaitSlack)
		err := rpc.Invoke(pollCtx, c.caller, c.addr, c.m(mWatch),
			&watchArgs{From: cursor, WaitNanos: int64(c.watchPoll)}, &reply)
		cancel()
		if err != nil {
			// Retries already absorbed transient faults inside the poll; an
			// error surfacing here breaks the subscription. The cursor never
			// advanced past an undelivered window, so resuming from it skips
			// nothing.
			return
		}
		if reply.To <= cursor {
			continue // empty poll
		}
		txns, err := store.DecodePublishedTxns(reply.Payload)
		if err != nil {
			return
		}
		select {
		case ch <- store.WatchEvent{From: cursor, To: reply.To, Txns: txns}:
			cursor = reply.To
		case <-ctx.Done():
			return
		}
	}
}

// ReplayFrom implements store.SnapshotReplayer: the post-snapshot tail and
// the peer's post-snapshot decisions in one round trip.
func (c *Client) ReplayFrom(ctx context.Context, peer core.PeerID, from core.Epoch, afterSeq int64) ([]store.PublishedTxn, map[core.TxnID]core.RestoredDecision, error) {
	var reply replayReply
	args := replayFromArgs{Peer: peer, From: from, AfterSeq: afterSeq}
	if err := rpc.Invoke(ctx, c.caller, c.addr, c.m(mReplayFrom), &args, &reply); err != nil {
		return nil, nil, err
	}
	log, err := store.DecodePublishedTxns(reply.Log)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: tail payload: %w", err)
	}
	return log, reply.Decisions, nil
}
