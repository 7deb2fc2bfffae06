// Package gateway fronts an update store with a production-shaped HTTP/JSON
// serving surface: the full store capability set (publish, begin/decide,
// watch via long-poll or SSE, snapshot and replay) behind a pluggable auth
// hook, per-group token-bucket rate limits, and queue-depth backpressure
// that sheds load with Retry-After instead of collapsing. The gateway is an
// http.Handler; cmd/orchestra-gateway mounts it over a pool of TCP clients
// to an orchestra-store, and tests mount it directly over a central store.
//
// Request flow: healthz and metrics bypass every gate; everything else
// passes auth → per-group rate limit → backpressure gate → handler. The
// protective responses are distinguishable by status: 401 (auth), 429 with
// Retry-After (rate limit), 503 with Retry-After (shed). Mutating routes
// accept an Idempotency-Key header that rides to the store's idempotency
// layer, so a client that retries a 429/503/timeout cannot double-publish.
//
// The route/JSON contract is documented in docs/GATEWAY.md.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/metrics"
	"orchestra/internal/store"
	"orchestra/internal/trust"
)

// GroupHeader names the tenant group a request is charged to: the rate
// limiter buckets by its value (empty = the default group). It selects
// nothing else — a gateway serves one store.
const GroupHeader = "X-Orchestra-Group"

// IdempotencyKeyHeader carries the client-minted key for safe retries of
// mutating calls.
const IdempotencyKeyHeader = "Idempotency-Key"

// AuthFunc authenticates a request before any work happens; a non-nil
// error rejects it with 401. The hook sees the raw request, so bearer
// tokens, mTLS peer certs, or signed URLs all fit behind it.
type AuthFunc func(r *http.Request) error

// Options configures a Gateway. The zero value serves a single store with
// no auth, no rate limit, and a 64-slot backpressure gate.
type Options struct {
	// Auth rejects requests before they consume resources. nil = allow.
	Auth AuthFunc

	// Rate is the per-group token refill rate in requests/second; 0
	// disables rate limiting. Burst is the bucket size (default: Rate,
	// at least 1).
	Rate  float64
	Burst int

	// MaxInFlight bounds concurrently served requests (default 64;
	// negative disables the gate). MaxQueue bounds how many more may wait
	// (default 2×MaxInFlight), each for at most QueueWait (default
	// 100ms); beyond that, requests are shed with 503 + Retry-After.
	MaxInFlight int
	MaxQueue    int
	QueueWait   time.Duration

	// WatchWait caps a long-poll watch round trip (default 10s).
	WatchWait time.Duration

	// Counters receives the gateway's health signals; nil = uninstrumented.
	Counters *metrics.GatewayCounters
}

// Gateway is the HTTP serving surface over an update store.
type Gateway struct {
	st      store.Store
	schema  *core.Schema
	opts    Options
	lim     *limiter
	gate    *gate
	mux     *http.ServeMux
	watchW  time.Duration
	started time.Time
}

// New builds a gateway over st.
func New(st store.Store, schema *core.Schema, opts Options) *Gateway {
	if opts.MaxInFlight == 0 {
		opts.MaxInFlight = 64
	}
	if opts.MaxQueue == 0 {
		opts.MaxQueue = 2 * opts.MaxInFlight
	}
	if opts.QueueWait == 0 {
		opts.QueueWait = 100 * time.Millisecond
	}
	g := &Gateway{
		st:      st,
		schema:  schema,
		opts:    opts,
		lim:     newLimiter(opts.Rate, opts.Burst),
		gate:    newGate(opts.MaxInFlight, opts.MaxQueue, opts.QueueWait),
		mux:     http.NewServeMux(),
		watchW:  opts.WatchWait,
		started: time.Now(),
	}
	if g.watchW <= 0 {
		g.watchW = 10 * time.Second
	}
	g.routes()
	return g
}

func (g *Gateway) routes() {
	// The ops surface: ungated, so health checks and scrapes keep working
	// while the serving surface sheds.
	g.mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /v1/metrics", g.handleMetrics)

	g.handle("POST /v1/peers", "peers", g.handleRegister)
	g.handle("POST /v1/publish", "publish", g.handlePublish)
	g.handle("POST /v1/reconcile/begin", "begin", g.handleBegin)
	g.handle("POST /v1/reconcile/decide-batch", "decide-batch", g.handleDecideBatch)
	g.handle("GET /v1/watch", "watch", g.handleWatch)
	g.handle("POST /v1/snapshot", "snapshot", g.handleSnapshot)
	g.handle("GET /v1/snapshot/latest", "snapshot-latest", g.handleSnapshotLatest)
	g.handle("GET /v1/replay", "replay", g.handleReplay)
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// handle wires one gated route: auth, rate limit, backpressure, counters,
// then the handler.
func (g *Gateway) handle(pattern, route string, h func(http.ResponseWriter, *http.Request) error) {
	c := g.opts.Counters
	g.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if g.opts.Auth != nil {
			if err := g.opts.Auth(r); err != nil {
				c.ObserveAuthDenied()
				http.Error(w, fmt.Sprintf("unauthorized: %v", err), http.StatusUnauthorized)
				return
			}
		}
		if ok, wait := g.lim.allow(r.Header.Get(GroupHeader), time.Now()); !ok {
			c.ObserveRateLimited()
			setRetryAfter(w, wait)
			http.Error(w, "rate limit exceeded for group", http.StatusTooManyRequests)
			return
		}
		release, ok := g.gate.enter(r)
		if !ok {
			c.ObserveShed()
			setRetryAfter(w, g.gate.retryAfter())
			http.Error(w, "overloaded: request shed", http.StatusServiceUnavailable)
			return
		}
		defer release()
		c.ObserveStart()
		start := time.Now()
		err := h(w, r)
		c.ObserveEnd(route, time.Since(start), err != nil)
		if err != nil {
			g.writeErr(w, err)
		}
	})
}

// setRetryAfter writes the Retry-After hint in whole seconds (the HTTP
// delta-seconds form), at least 1.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// writeErr maps a store error to the HTTP vocabulary: transient faults are
// 503 (safe to retry, with a hint), unknown peers 404, bad requests 400.
func (g *Gateway) writeErr(w http.ResponseWriter, err error) {
	var br badRequest
	switch {
	case errors.As(err, &br):
		http.Error(w, br.Error(), http.StatusBadRequest)
	case errors.Is(err, store.ErrUnknownPeer):
		http.Error(w, err.Error(), http.StatusNotFound)
	case store.IsTransient(err):
		setRetryAfter(w, time.Second)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// badRequest marks client-caused errors (malformed JSON, unknown ops,
// schema violations) for the 400 mapping.
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }
func (b badRequest) Unwrap() error { return b.err }

func decode[T any](r *http.Request, v *T) error {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return badRequest{fmt.Errorf("decode request: %w", err)}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// opCtx attaches the client's idempotency key, if any, to the operation's
// context so the store's dedup layer sees it.
func opCtx(r *http.Request) context.Context {
	return store.WithIdempotencyKey(r.Context(), store.IdempotencyKey(r.Header.Get(IdempotencyKeyHeader)))
}

// --- Handlers ---

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true, "uptime_ms": time.Since(g.started).Milliseconds()})
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, g.opts.Counters.Snapshot())
}

type registerReq struct {
	Peer   string `json:"peer"`
	Policy string `json:"policy"`
}

func (g *Gateway) handleRegister(w http.ResponseWriter, r *http.Request) error {
	var req registerReq
	if err := decode(r, &req); err != nil {
		return err
	}
	if req.Peer == "" {
		return badRequest{errors.New("missing peer")}
	}
	pol, err := trust.Parse(req.Policy)
	if err != nil {
		return badRequest{fmt.Errorf("policy: %w", err)}
	}
	if err := g.st.RegisterPeer(opCtx(r), core.PeerID(req.Peer), pol); err != nil {
		return err
	}
	return writeJSON(w, map[string]any{"ok": true})
}

type publishReq struct {
	Peer string    `json:"peer"`
	Txns []WireTxn `json:"txns"`
}

func (g *Gateway) handlePublish(w http.ResponseWriter, r *http.Request) error {
	var req publishReq
	if err := decode(r, &req); err != nil {
		return err
	}
	peer := core.PeerID(req.Peer)
	pts := make([]store.PublishedTxn, len(req.Txns))
	for i, wt := range req.Txns {
		pt, err := wt.publishedTxn(peer, g.schema)
		if err != nil {
			return badRequest{err}
		}
		pts[i] = pt
	}
	epoch, err := g.st.Publish(opCtx(r), peer, pts)
	if err != nil {
		return err
	}
	return writeJSON(w, map[string]any{"epoch": epoch})
}

type beginResp struct {
	Recno      int             `json:"recno"`
	FromEpoch  int64           `json:"from_epoch"`
	ToEpoch    int64           `json:"to_epoch"`
	Candidates []WireCandidate `json:"candidates"`
}

func (g *Gateway) handleBegin(w http.ResponseWriter, r *http.Request) error {
	var req struct {
		Peer string `json:"peer"`
	}
	if err := decode(r, &req); err != nil {
		return err
	}
	rec, err := g.st.BeginReconciliation(opCtx(r), core.PeerID(req.Peer))
	if err != nil {
		return err
	}
	resp := beginResp{
		Recno:      rec.Recno,
		FromEpoch:  int64(rec.FromEpoch),
		ToEpoch:    int64(rec.ToEpoch),
		Candidates: make([]WireCandidate, len(rec.Candidates)),
	}
	for i, c := range rec.Candidates {
		wc := WireCandidate{Txn: wireTxn(c.Txn, nil), Priority: c.Priority}
		for _, ext := range c.Ext {
			wc.Ext = append(wc.Ext, wireTxn(ext, nil))
		}
		resp.Candidates[i] = wc
	}
	return writeJSON(w, resp)
}

type decideReq struct {
	Peer     string      `json:"peer"`
	Recno    int         `json:"recno"`
	Accepted []WireTxnID `json:"accepted"`
	Rejected []WireTxnID `json:"rejected"`
}

func (g *Gateway) handleDecideBatch(w http.ResponseWriter, r *http.Request) error {
	var req struct {
		Batches []decideReq `json:"batches"`
	}
	if err := decode(r, &req); err != nil {
		return err
	}
	batches := make([]store.DecisionBatch, len(req.Batches))
	for i, b := range req.Batches {
		batches[i] = store.DecisionBatch{
			Peer:     core.PeerID(b.Peer),
			Recno:    b.Recno,
			Accepted: wireIDs(b.Accepted),
			Rejected: wireIDs(b.Rejected),
		}
	}
	if err := g.st.RecordDecisionsBatch(opCtx(r), batches); err != nil {
		return err
	}
	return writeJSON(w, map[string]any{"ok": true})
}

func (g *Gateway) handleSnapshot(w http.ResponseWriter, r *http.Request) error {
	sn, ok := g.st.(store.Snapshotter)
	if !ok {
		return badRequest{errors.New("backend does not support snapshots")}
	}
	epoch, err := sn.Snapshot(opCtx(r))
	if err != nil {
		return err
	}
	return writeJSON(w, map[string]any{"epoch": epoch})
}

func (g *Gateway) handleSnapshotLatest(w http.ResponseWriter, r *http.Request) error {
	sr, ok := g.st.(store.SnapshotReplayer)
	if !ok {
		return badRequest{errors.New("backend does not support snapshots")}
	}
	snap, err := sr.LatestSnapshot(r.Context())
	if err != nil {
		return err
	}
	if snap == nil {
		return writeJSON(w, map[string]any{"found": false})
	}
	return writeJSON(w, map[string]any{
		"found":   true,
		"epoch":   snap.Epoch,
		"peers":   len(snap.Peers),
		"residue": len(snap.Residue),
	})
}

// handleReplay serves peer reconstruction through the one replay verb,
// ReplayFrom: the log after from (default 0) and the peer's decisions after
// after_seq (default −1), so a request that names only the peer gets the
// whole history.
func (g *Gateway) handleReplay(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	peer := core.PeerID(q.Get("peer"))
	if peer == "" {
		return badRequest{errors.New("missing peer parameter")}
	}
	from, afterSeq := int64(0), int64(-1)
	var err error
	if v := q.Get("from"); v != "" {
		if from, err = strconv.ParseInt(v, 10, 64); err != nil {
			return badRequest{fmt.Errorf("from: %w", err)}
		}
	}
	if v := q.Get("after_seq"); v != "" {
		if afterSeq, err = strconv.ParseInt(v, 10, 64); err != nil {
			return badRequest{fmt.Errorf("after_seq: %w", err)}
		}
	}
	sr, ok := g.st.(store.SnapshotReplayer)
	if !ok {
		return badRequest{errors.New("backend does not support replay")}
	}
	txns, decisions, err := sr.ReplayFrom(r.Context(), peer, core.Epoch(from), afterSeq)
	if err != nil {
		return err
	}
	type wireDecision struct {
		ID       WireTxnID `json:"id"`
		Accepted bool      `json:"accepted"`
		Seq      int64     `json:"seq"`
	}
	resp := struct {
		Txns      []WireTxn      `json:"txns"`
		Decisions []wireDecision `json:"decisions"`
	}{Txns: wirePublished(txns)}
	for id, d := range decisions {
		resp.Decisions = append(resp.Decisions, wireDecision{ID: wireID(id), Accepted: d.Decision == core.DecisionAccept, Seq: d.Seq})
	}
	return writeJSON(w, resp)
}

// watchResp is one long-poll answer: the contiguous events since `from`
// (possibly none, on timeout) and the cursor to resume from.
type watchResp struct {
	Events []watchEventJSON `json:"events"`
	Cursor int64            `json:"cursor"`
}

// watchEventJSON is a frontier advance, nothing more: a consumer that wants
// the window it announces calls POST /v1/reconcile/begin.
type watchEventJSON struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// handleWatch serves stable-frontier subscriptions two ways. Default: a
// bounded long-poll — wait up to wait_ms (capped by the gateway's
// WatchWait) for events after `from`, drain whatever is ready, return it
// with the resume cursor. With Accept: text/event-stream: a server-sent
// event stream that pushes events until the client disconnects or the
// subscription breaks (the client resumes from its cursor).
func (g *Gateway) handleWatch(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	var from int64
	if s := q.Get("from"); s != "" {
		var err error
		if from, err = strconv.ParseInt(s, 10, 64); err != nil {
			return badRequest{errors.New("bad from parameter")}
		}
	}
	wt, ok := g.st.(store.Watcher)
	if !ok {
		return badRequest{errors.New("backend does not support watch")}
	}
	if r.Header.Get("Accept") == "text/event-stream" {
		return g.watchSSE(w, r, wt, core.Epoch(from))
	}
	wait := g.watchW
	if s := q.Get("wait_ms"); s != "" {
		ms, err := strconv.ParseInt(s, 10, 64)
		if err != nil || ms < 0 {
			return badRequest{errors.New("bad wait_ms parameter")}
		}
		if d := time.Duration(ms) * time.Millisecond; d < wait {
			wait = d
		}
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	ch, err := wt.WatchFrom(ctx, core.Epoch(from))
	if err != nil {
		return err
	}
	resp := watchResp{Events: []watchEventJSON{}, Cursor: from}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case ev, ok := <-ch:
		if ok {
			resp.Events = append(resp.Events, toWatchJSON(ev))
			resp.Cursor = int64(ev.To)
			// Drain whatever else is already buffered, without blocking.
			for {
				select {
				case ev, ok := <-ch:
					if !ok {
						return writeJSON(w, resp)
					}
					resp.Events = append(resp.Events, toWatchJSON(ev))
					resp.Cursor = int64(ev.To)
				default:
					return writeJSON(w, resp)
				}
			}
		}
	case <-timer.C:
	case <-r.Context().Done():
	}
	return writeJSON(w, resp)
}

func (g *Gateway) watchSSE(w http.ResponseWriter, r *http.Request, wt store.Watcher, from core.Epoch) error {
	fl, ok := w.(http.Flusher)
	if !ok {
		return errors.New("response writer cannot stream")
	}
	ch, err := wt.WatchFrom(r.Context(), from)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return nil // subscription broke; the client resumes from its cursor
			}
			if _, err := fmt.Fprintf(w, "event: frontier\ndata: "); err != nil {
				return nil
			}
			if err := enc.Encode(toWatchJSON(ev)); err != nil {
				return nil
			}
			if _, err := fmt.Fprintf(w, "\n"); err != nil {
				return nil
			}
			fl.Flush()
		case <-r.Context().Done():
			return nil
		}
	}
}

func toWatchJSON(ev store.WatchEvent) watchEventJSON {
	return watchEventJSON{From: int64(ev.From), To: int64(ev.To)}
}
