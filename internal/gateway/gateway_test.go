package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/metrics"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
)

// The gateway contract suite: the serving surface must speak the full
// store capability set over JSON, reject unauthenticated requests, bounce
// sustained per-group overload with 429 + Retry-After, shed load with
// 503 + Retry-After instead of queueing unboundedly, and let a client that
// retries a keyed publish — after a 429, a shed, or a lost response —
// dedupe exactly once through the store's idempotency layer.

func testSchema() *core.Schema {
	return core.MustSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
}

// newTestGateway mounts a gateway over a fresh in-memory central store on
// an httptest server.
func newTestGateway(t *testing.T, opts Options) (*httptest.Server, *central.Store, *metrics.GatewayCounters) {
	t.Helper()
	schema := testSchema()
	cs := central.MustOpenMemory(schema)
	if opts.Counters == nil {
		opts.Counters = &metrics.GatewayCounters{}
	}
	srv := httptest.NewServer(New(cs, schema, opts))
	t.Cleanup(func() {
		srv.Close()
		cs.Close()
	})
	return srv, cs, opts.Counters
}

// call performs one JSON request and decodes the response body.
func call(t *testing.T, method, url string, body any, hdr map[string]string) (int, map[string]json.RawMessage, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := map[string]json.RawMessage{}
	if len(raw) > 0 && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, out, resp.Header
}

func intField(t *testing.T, m map[string]json.RawMessage, key string) int64 {
	t.Helper()
	var n int64
	if err := json.Unmarshal(m[key], &n); err != nil {
		t.Fatalf("field %q: %v (have %v)", key, err, m)
	}
	return n
}

func register(t *testing.T, url, peer string) {
	t.Helper()
	code, _, _ := call(t, "POST", url+"/v1/peers",
		map[string]string{"peer": peer, "policy": "priority 1 when true"}, nil)
	if code != http.StatusOK {
		t.Fatalf("register %s: status %d", peer, code)
	}
}

func publishOne(t *testing.T, url, peer string, seq uint64, fn string, hdr map[string]string) (int, map[string]json.RawMessage, http.Header) {
	t.Helper()
	return call(t, "POST", url+"/v1/publish", map[string]any{
		"peer": peer,
		"txns": []map[string]any{{
			"seq": seq,
			"updates": []map[string]any{{
				"op": "insert", "rel": "F", "tuple": []string{"rat", fmt.Sprintf("p%d", seq), fn},
			}},
		}},
	}, hdr)
}

// TestGatewayEndToEnd drives the whole §5.2 protocol through the JSON
// surface: register, publish, begin, decide, recno, watch, snapshot,
// replay, capabilities.
func TestGatewayEndToEnd(t *testing.T) {
	srv, cs, _ := newTestGateway(t, Options{})
	url := srv.URL

	register(t, url, "alice")
	register(t, url, "bob")

	code, body, _ := publishOne(t, url, "alice", 1, "immune", nil)
	if code != http.StatusOK || intField(t, body, "epoch") != 1 {
		t.Fatalf("publish: status %d body %v", code, body)
	}

	// bob reconciles: begin surfaces alice's txn as a candidate, decide
	// accepts it.
	code, body, _ = call(t, "POST", url+"/v1/reconcile/begin", map[string]string{"peer": "bob"}, nil)
	if code != http.StatusOK {
		t.Fatalf("begin: status %d", code)
	}
	var cands []WireCandidate
	if err := json.Unmarshal(body["candidates"], &cands); err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Txn.Seq != 1 || len(cands[0].Txn.Updates) != 1 {
		t.Fatalf("candidates: %+v", cands)
	}
	if got := cands[0].Txn.Updates[0].Tuple; got[0] != "rat" || got[2] != "immune" {
		t.Fatalf("candidate tuple: %v", got)
	}
	recno := intField(t, body, "recno")
	code, _, _ = call(t, "POST", url+"/v1/reconcile/decide", map[string]any{
		"peer": "bob", "recno": recno,
		"accepted": []map[string]any{{"origin": "alice", "seq": 1}},
	}, nil)
	if code != http.StatusOK {
		t.Fatalf("decide: status %d", code)
	}
	code, body, _ = call(t, "GET", url+"/v1/recno?peer=bob", nil, nil)
	if code != http.StatusOK || intField(t, body, "recno") != recno {
		t.Fatalf("recno: status %d body %v", code, body)
	}

	// Long-poll watch from 0 is woken by the published epoch; no rows travel.
	code, body, _ = call(t, "GET", url+"/v1/watch?from=0&wait_ms=2000", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("watch: status %d", code)
	}
	var events []watchEventJSON
	if err := json.Unmarshal(body["events"], &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].From != 0 || events[0].To < 1 {
		t.Fatalf("watch events: %+v", events)
	}
	if last := events[len(events)-1]; intField(t, body, "cursor") != last.To {
		t.Fatalf("watch cursor: %v, last event %+v", body, last)
	}

	// Snapshot + tail replay and full replay.
	code, body, _ = call(t, "POST", url+"/v1/snapshot", nil, nil)
	if code != http.StatusOK || intField(t, body, "epoch") != 1 {
		t.Fatalf("snapshot: status %d body %v", code, body)
	}
	code, body, _ = call(t, "GET", url+"/v1/snapshot/latest", nil, nil)
	if code != http.StatusOK || string(body["found"]) != "true" {
		t.Fatalf("snapshot/latest: status %d body %v", code, body)
	}
	code, body, _ = call(t, "GET", url+"/v1/replay?peer=bob", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("replay: status %d", code)
	}
	var txns []WireTxn
	if err := json.Unmarshal(body["txns"], &txns); err != nil {
		t.Fatal(err)
	}
	if len(txns) != 1 || txns[0].Epoch != 1 {
		t.Fatalf("replay txns: %+v", txns)
	}

	code, body, _ = call(t, "GET", url+"/v1/capabilities", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("capabilities: status %d", code)
	}
	for _, cap := range []string{"replay", "snapshot", "watch", "dedupe"} {
		if string(body[cap]) != "true" {
			t.Errorf("capability %s: %v", cap, string(body[cap]))
		}
	}

	// The store agrees with everything the JSON surface reported.
	if n, err := cs.CurrentRecno(context.Background(), "bob"); err != nil || int64(n) != recno {
		t.Errorf("store recno: %d %v", n, err)
	}
}

// TestGatewayErrorMapping pins the HTTP vocabulary: malformed requests are
// 400, unknown peers 404.
func TestGatewayErrorMapping(t *testing.T) {
	srv, _, _ := newTestGateway(t, Options{})
	url := srv.URL

	if code, _, _ := call(t, "GET", url+"/v1/recno?peer=nobody", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown peer: status %d, want 404", code)
	}
	code, _, _ := call(t, "POST", url+"/v1/peers", map[string]string{"peer": "x", "policy": "garbage"}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("bad policy: status %d, want 400", code)
	}
	register(t, url, "alice")
	code, _, _ = call(t, "POST", url+"/v1/publish", map[string]any{
		"peer": "alice",
		"txns": []map[string]any{{"seq": 1, "updates": []map[string]any{{"op": "levitate", "rel": "F", "tuple": []string{"a", "b", "c"}}}}},
	}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("unknown op: status %d, want 400", code)
	}
}

// TestGatewayAuthRejection: the pluggable hook sees every gated request;
// a rejection is 401 before any store work, and the ops surface stays
// reachable without credentials.
func TestGatewayAuthRejection(t *testing.T) {
	srv, _, counters := newTestGateway(t, Options{
		Auth: func(r *http.Request) error {
			if r.Header.Get("Authorization") != "Bearer s3cret" {
				return fmt.Errorf("bad token")
			}
			return nil
		},
	})
	url := srv.URL

	if code, _, _ := call(t, "POST", url+"/v1/peers",
		map[string]string{"peer": "alice", "policy": "priority 1 when true"}, nil); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated register: status %d, want 401", code)
	}
	if got := counters.Snapshot().AuthDenied; got != 1 {
		t.Errorf("AuthDenied = %d, want 1", got)
	}
	code, _, _ := call(t, "POST", url+"/v1/peers",
		map[string]string{"peer": "alice", "policy": "priority 1 when true"},
		map[string]string{"Authorization": "Bearer s3cret"})
	if code != http.StatusOK {
		t.Fatalf("authenticated register: status %d", code)
	}
	// healthz needs no credentials: load balancers probe it.
	if code, _, _ := call(t, "GET", url+"/v1/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("healthz: status %d", code)
	}
}

// TestGatewayRateLimit: a group that exhausts its bucket gets 429 with a
// Retry-After hint; other groups' buckets are untouched.
func TestGatewayRateLimit(t *testing.T) {
	srv, _, counters := newTestGateway(t, Options{Rate: 2, Burst: 3})
	url := srv.URL
	register(t, url, "alice") // spends one default-group token

	g1 := map[string]string{GroupHeader: "tenant-1"}
	for i := 0; i < 3; i++ {
		if code, _, _ := call(t, "GET", url+"/v1/capabilities", nil, g1); code != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, code)
		}
	}
	code, _, hdr := call(t, "GET", url+"/v1/capabilities", nil, g1)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d, want 429", code)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", hdr.Get("Retry-After"))
	}
	if got := counters.Snapshot().RateLimited; got != 1 {
		t.Errorf("RateLimited = %d, want 1", got)
	}
	// tenant-2 still has a full bucket.
	if code, _, _ := call(t, "GET", url+"/v1/capabilities", nil, map[string]string{GroupHeader: "tenant-2"}); code != http.StatusOK {
		t.Errorf("other group caught the limit: status %d", code)
	}
}

// blockingStore wraps a store so the test can hold publishes open and
// saturate the gateway's in-flight slots deterministically.
type blockingStore struct {
	store.Store
	gate chan struct{}
}

func (s *blockingStore) Publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn) (core.Epoch, error) {
	select {
	case <-s.gate:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return s.Store.Publish(ctx, peer, txns)
}

// TestGatewayBackpressureShedding: with every slot and queue position
// full, further requests are shed immediately with 503 + Retry-After —
// and the gateway keeps answering its ops surface instead of collapsing.
func TestGatewayBackpressureShedding(t *testing.T) {
	schema := testSchema()
	cs := central.MustOpenMemory(schema)
	defer cs.Close()
	bs := &blockingStore{Store: cs, gate: make(chan struct{})}
	counters := &metrics.GatewayCounters{}
	srv := httptest.NewServer(New(bs, schema, Options{
		MaxInFlight: 1,
		MaxQueue:    1,
		QueueWait:   2 * time.Second, // queued request outlives the test body
		Counters:    counters,
	}))
	defer srv.Close()
	url := srv.URL
	register(t, url, "alice")

	// Saturate: one publish occupies the slot, one queues, the rest must
	// shed. The first two block until the gate opens.
	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, _ := publishOne(t, url, "alice", uint64(i+1), "fn", nil)
			codes <- code
		}(i)
	}
	// Wait until both are inside (slot + queue), then probe.
	deadline := time.Now().Add(2 * time.Second)
	for counters.InFlight() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the second request reach the queue

	shedCode, _, hdr := publishOne(t, url, "alice", 99, "fn", nil)
	if shedCode != http.StatusServiceUnavailable {
		t.Errorf("saturated request: status %d, want 503", shedCode)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", hdr.Get("Retry-After"))
	}
	if code, _, _ := call(t, "GET", url+"/v1/healthz", nil, nil); code != http.StatusOK {
		t.Errorf("healthz under saturation: status %d", code)
	}

	close(bs.gate) // drain
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("admitted publish: status %d", code)
		}
	}
	snap := counters.Snapshot()
	if snap.Shed == 0 {
		t.Error("no sheds recorded despite saturation")
	}
	if snap.InFlightPeak != 1 {
		t.Errorf("InFlightPeak = %d, want 1 (the gate admitted too much)", snap.InFlightPeak)
	}
}

// TestGatewayIdempotentRetry: the satellite contract — a keyed publish
// that is rate-limited and then retried dedupes exactly once. The first
// attempt lands; the immediate retry bounces off the empty bucket with
// 429 + Retry-After; the client honors the hint and retries with the SAME
// Idempotency-Key; the store answers from its dedup state: same epoch,
// one transaction, no double-publish.
func TestGatewayIdempotentRetry(t *testing.T) {
	srv, cs, _ := newTestGateway(t, Options{Rate: 2, Burst: 1})
	url := srv.URL
	register(t, url, "alice") // drains the default group's only burst token

	key := map[string]string{GroupHeader: "t", IdempotencyKeyHeader: "client-42/publish/1"}
	code, body, _ := publishOne(t, url, "alice", 1, "immune", key)
	if code != http.StatusOK {
		t.Fatalf("first keyed publish: status %d", code)
	}
	epoch := intField(t, body, "epoch")

	code, _, hdr := publishOne(t, url, "alice", 1, "immune", key)
	if code != http.StatusTooManyRequests {
		t.Fatalf("immediate retry: status %d, want 429", code)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q", hdr.Get("Retry-After"))
	}
	time.Sleep(time.Duration(ra) * time.Second)

	code, body, _ = publishOne(t, url, "alice", 1, "immune", key)
	if code != http.StatusOK {
		t.Fatalf("post-backoff retry: status %d", code)
	}
	if got := intField(t, body, "epoch"); got != epoch {
		t.Errorf("retry epoch = %d, want the original %d", got, epoch)
	}
	if hits := cs.Metrics().Snapshot().DedupHits; hits != 1 {
		t.Errorf("DedupHits = %d, want exactly 1", hits)
	}
	// Exactly one transaction exists: the retried publish did not
	// double-apply.
	rec, err := cs.BeginReconciliation(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if rec.ToEpoch != core.Epoch(epoch) {
		t.Errorf("store frontier = %d, want %d (no extra epoch)", rec.ToEpoch, epoch)
	}
}

// TestGatewayClosedLoopExactlyOnce is the closed-loop audit: 8 keyed
// publishers drive a 4-slot gate over a store that takes ~1ms per publish,
// every 429/503 is retried with the SAME Idempotency-Key, and afterwards an
// auditor's reconciliation window must hold every keyed publish exactly
// once although the gate shed some of their attempts.
func TestGatewayClosedLoopExactlyOnce(t *testing.T) {
	const clients, opsPerClient = 8, 10
	schema := testSchema()
	cs := central.MustOpenMemory(schema)
	defer cs.Close()
	bs := &blockingStore{Store: cs, gate: make(chan struct{})}
	counters := &metrics.GatewayCounters{}
	srv := httptest.NewServer(New(bs, schema, Options{
		MaxInFlight: 4,
		MaxQueue:    2,
		QueueWait:   2 * time.Millisecond,
		Counters:    counters,
	}))
	defer srv.Close()
	url := srv.URL
	register(t, url, "auditor")
	for i := 0; i < clients; i++ {
		register(t, url, fmt.Sprintf("c%d", i))
	}

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			for op := 1; op <= opsPerClient; op++ {
				key := map[string]string{IdempotencyKeyHeader: fmt.Sprintf("%s/publish/%d", peer, op)}
				for backoff := 500 * time.Microsecond; ; backoff = min(2*backoff, 4*time.Millisecond) {
					code, _, _ := publishOne(t, url, peer, uint64(op), "fn", key)
					if code == http.StatusOK {
						break
					}
					if code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
						t.Errorf("%s op %d: status %d", peer, op, code)
						return
					}
					time.Sleep(backoff)
				}
			}
		}(fmt.Sprintf("c%d", i))
	}
	// The store admits nothing until the gate has shed: 8 clients against
	// 4 slots and 2 queue positions must overflow. Then it serves one
	// publish per quarter millisecond — four slots of ~1ms each.
	for deadline := time.Now().Add(5 * time.Second); counters.Snapshot().Shed == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("gate never shed")
		}
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for serving := true; serving; {
		select {
		case bs.gate <- struct{}{}:
			time.Sleep(250 * time.Microsecond)
		case <-done:
			serving = false
		}
	}

	rec, err := cs.BeginReconciliation(context.Background(), "auditor")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[core.TxnID]int)
	for _, c := range rec.Candidates {
		seen[c.Txn.ID]++
	}
	for i := 0; i < clients; i++ {
		for op := 1; op <= opsPerClient; op++ {
			id := core.TxnID{Origin: core.PeerID(fmt.Sprintf("c%d", i)), Seq: uint64(op)}
			if seen[id] != 1 {
				t.Errorf("keyed publish %v appears %d times in the audit window, want exactly once", id, seen[id])
			}
		}
	}
	if len(rec.Candidates) != clients*opsPerClient {
		t.Errorf("audit window holds %d transactions, want %d", len(rec.Candidates), clients*opsPerClient)
	}
}

// TestGatewaySSE: the event-stream flavor of watch pushes frontier
// advances as they happen.
func TestGatewaySSE(t *testing.T) {
	srv, _, _ := newTestGateway(t, Options{})
	url := srv.URL
	register(t, url, "alice")

	req, err := http.NewRequest("GET", url+"/v1/watch?from=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	if code, _, _ := publishOne(t, url, "alice", 1, "immune", nil); code != http.StatusOK {
		t.Fatalf("publish: status %d", code)
	}

	sc := bufio.NewScanner(resp.Body)
	var data string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if data == "" {
		t.Fatalf("no SSE data line (scan err %v)", sc.Err())
	}
	var ev watchEventJSON
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.From != 0 || ev.To < 1 || strings.Contains(data, "txns") {
		t.Fatalf("SSE event: %s", data)
	}
}

// countingStore counts calls so the pool's distribution is observable.
type countingStore struct {
	store.Backend
	calls int64
	mu    sync.Mutex
}

func (s *countingStore) CurrentRecno(ctx context.Context, peer core.PeerID) (int, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return s.Backend.CurrentRecno(ctx, peer)
}

// TestPoolRoundRobin: the connection pool spreads calls across its lanes.
func TestPoolRoundRobin(t *testing.T) {
	schema := testSchema()
	cs := central.MustOpenMemory(schema)
	defer cs.Close()
	if err := cs.RegisterPeer(context.Background(), "a", core.TrustAll(1)); err != nil {
		t.Fatal(err)
	}
	lanes := []*countingStore{{Backend: cs}, {Backend: cs}, {Backend: cs}}
	p := NewPool(lanes[0], lanes[1], lanes[2])
	for i := 0; i < 9; i++ {
		if _, err := p.CurrentRecno(context.Background(), "a"); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range lanes {
		if l.calls != 3 {
			t.Errorf("lane %d served %d calls, want 3", i, l.calls)
		}
	}
}
