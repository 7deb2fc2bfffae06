package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/gateway"
	"orchestra/internal/metrics"
	"orchestra/internal/rpc"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/store/remote"
	"orchestra/internal/trust"
)

const (
	streamPublishers  = 2
	streamSubscribers = 4
	streamTxnsPerOp   = 4
	streamWindow      = 4096
	streamOpTimeout   = 10 * time.Second
)

// wireCounts counts what crosses the rpc transport, at the client side of
// every connection the benchmark opens.
type wireCounts struct {
	calls, watchPolls, bytes atomic.Int64
}

// countingCaller is an rpc.Caller that counts its calls and payload bytes.
type countingCaller struct {
	rpc.Caller
	n *wireCounts
}

func (c countingCaller) Call(ctx context.Context, to, method string, body []byte) ([]byte, error) {
	reply, err := c.Caller.Call(ctx, to, method, body)
	if method == "store.watch" {
		c.n.watchPolls.Add(1)
	} else {
		c.n.calls.Add(1)
	}
	c.n.bytes.Add(int64(len(body) + len(reply)))
	return reply, err
}

// splitStore gives a subscriber's watch long-poll a connection of its own.
// rpc.Client serialises a connection, so on a single remote.Client the poll
// (up to DefaultWatchPoll) races BeginReconciliation and the decision flush
// for it (README, finding 2).
type splitStore struct {
	*remote.Client
	watch *remote.Client
}

func (s splitStore) CanWatch(ctx context.Context) bool { return s.watch.CanWatch(ctx) }

func (s splitStore) WatchFrom(ctx context.Context, from core.Epoch) (<-chan store.WatchEvent, error) {
	return s.watch.WatchFrom(ctx, from)
}

// frontiers tracks every subscriber's reconciliation frontier; a publish is
// done when the lowest one has reached its epoch.
type frontiers struct {
	mu   sync.Mutex
	cond *sync.Cond
	to   []core.Epoch
}

func newFrontiers(n int) *frontiers {
	f := &frontiers{to: make([]core.Epoch, n)}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *frontiers) advance(i int, to core.Epoch) {
	f.mu.Lock()
	if to > f.to[i] {
		f.to[i] = to
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// wait blocks until every frontier has reached e, or the timeout.
func (f *frontiers) wait(e core.Epoch, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer wake.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		low := f.to[0]
		for _, to := range f.to {
			low = min(low, to)
		}
		if low >= e {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("epoch %d not decided by every subscriber within %v (lowest frontier %d)", e, timeout, low)
		}
		f.cond.Wait()
	}
}

// held is what a publisher believes a key holds: its own last write.
type held struct {
	tuple core.Tuple
	by    core.TxnID
}

// publisher is one HTTP client: a curator who is not a reconciling peer, so
// the benchmark keeps the instance its edits are made against.
type publisher struct {
	id      core.PeerID
	hc      *http.Client
	url     string
	seq     uint64
	holds   map[int]held
	tr      *tracer
	jsonLen int64 // request and reply bytes so far
}

type publishBody struct {
	Peer string            `json:"peer"`
	Txns []gateway.WireTxn `json:"txns"`
}

// next draws the publisher's next batch of single-update transactions.
func (p *publisher) next(g *windowGen, taken map[int]bool) publishBody {
	body := publishBody{Peer: string(p.id)}
	for i := 0; i < streamTxnsPerOp; i++ {
		k := g.pick(taken)
		cur, ok := p.holds[k]
		u := editFor(p.id, k, g.function(), cur.tuple, ok)
		p.seq++
		wt := gateway.WireTxn{Seq: p.seq, Updates: []gateway.WireUpdate{{Rel: u.Rel, Tuple: tupleStrings(u.Tuple)}}}
		wt.Updates[0].Op = "insert"
		now := u.Tuple
		if ok {
			wt.Updates[0].Op, wt.Updates[0].New, now = "modify", tupleStrings(u.New), u.New
			wt.Antecedents = []gateway.WireTxnID{{Origin: string(cur.by.Origin), Seq: cur.by.Seq}}
		}
		p.holds[k] = held{tuple: now, by: core.TxnID{Origin: p.id, Seq: p.seq}}
		body.Txns = append(body.Txns, wt)
	}
	return body
}

func tupleStrings(t core.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = v.Str()
	}
	return out
}

// post sends one JSON request and returns the decoded reply; anything but
// 200 is an error.
func (p *publisher) post(path string, body any, reply any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := p.hc.Post(p.url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	p.jsonLen += int64(len(b) + len(raw))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, reply)
}

// publish posts the batch and returns the epoch the store gave it.
func (p *publisher) publish(body publishBody) (core.Epoch, error) {
	var reply struct {
		Epoch core.Epoch `json:"epoch"`
	}
	traced := p.tr.on.Load()
	start := p.tr.now()
	err := p.post("/v1/publish", body, &reply)
	if traced {
		p.tr.add(span{Name: "http.publish", Op: opName(p.id, body.Txns[0].Seq),
			Peer: string(p.id), Epoch: int64(reply.Epoch), N: int64(len(body.Txns)), Start: start, End: p.tr.now()})
	}
	return reply.Epoch, err
}

// streamStack is the headline path end to end: durable central store <-
// remote.Server on loopback TCP <- gateway pool of 2 remote clients <-
// gateway on loopback HTTP <- 2 publishers; 4 subscriber peers stream over
// their own remote clients.
type streamStack struct {
	e      *env
	tr     *tracer
	gen    *windowGen
	cs     *central.Store
	rsrv   *remote.Server
	hsrv   *http.Server
	conns  []*rpc.Client
	wire   wireCounts
	gwc    metrics.GatewayCounters
	pubs   []*publisher
	subs   []*store.Peer
	front  *frontiers
	cancel context.CancelFunc
	done   sync.WaitGroup
	stop   sync.Once

	mu        sync.Mutex // guards what the stream callbacks write
	agg       coreAgg
	decided   [][][]uint8 // [subscriber][publisher][seq] = decisions seen
	deferred  int
	streamErr error
	txns      int
}

// newStreamStack builds and starts the stack. With split, each subscriber's
// watch rides its own connection.
func newStreamStack(e *env, dir string, tr *tracer, split bool) (s *streamStack, err error) {
	schema := benchSchema()
	s = &streamStack{e: e, tr: tr, gen: newWindowGen(e.seed, streamWindow), front: newFrontiers(streamSubscribers)}
	ctx, cancel := context.WithCancel(e.ctx)
	s.cancel = cancel
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.cs, err = central.Open(schema, dir); err != nil {
		return s, err
	}
	s.rsrv = remote.NewServer(traced(s.cs, tr, "server", map[string]string{
		"publish": "gateway.publish", "begin": "peer.begin", "decide": "peer.decide"}), schema)
	addr, err := s.rsrv.Listen("127.0.0.1:0")
	if err != nil {
		return s, err
	}
	dial := func(from string) *remote.Client {
		c := rpc.NewClient(from)
		s.conns = append(s.conns, c)
		return remote.NewClientOn(countingCaller{c, &s.wire}, addr)
	}
	pool := gateway.NewPool(dial("gw0"), dial("gw1"))
	gw := gateway.New(traced(pool, tr, "gateway", map[string]string{"publish": "http.publish"}), schema,
		gateway.Options{Counters: &s.gwc})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	s.hsrv = &http.Server{Handler: gw}
	s.done.Add(1)
	go func() { defer s.done.Done(); s.hsrv.Serve(ln) }()

	for i := 0; i < streamPublishers; i++ {
		p := &publisher{
			id:    core.PeerID(fmt.Sprintf("c%d", i)),
			hc:    &http.Client{Transport: &http.Transport{}},
			url:   "http://" + ln.Addr().String(),
			holds: make(map[int]held),
			tr:    tr,
		}
		var ok struct{}
		if err = p.post("/v1/peers", map[string]string{"peer": string(p.id), "policy": "priority 1 when true"}, &ok); err != nil {
			return s, err
		}
		s.pubs = append(s.pubs, p)
	}

	s.decided = make([][][]uint8, streamSubscribers)
	for i := 0; i < streamSubscribers; i++ {
		id := core.PeerID(fmt.Sprintf("s%d", i))
		pol, perr := trust.Parse("priority 2 when origin = 'c0'\npriority 1 when origin = 'c1'")
		if perr != nil {
			return s, perr
		}
		var st store.Store = dial(string(id))
		if split {
			st = splitStore{Client: st.(*remote.Client), watch: dial(string(id) + "-watch")}
		}
		sub, perr := store.NewPeer(ctx, id, schema, pol, traced(st, tr, "peer", nil))
		if perr != nil {
			return s, perr
		}
		s.subs = append(s.subs, sub)
		s.decided[i] = make([][]uint8, streamPublishers)
		s.done.Add(1)
		go func() {
			defer s.done.Done()
			err := sub.ReconcileStream(ctx, store.StreamOptions{
				OnResult: func(r store.StreamResult) { s.onResult(i, r) },
			})
			if err != nil && ctx.Err() == nil {
				s.mu.Lock()
				s.streamErr = fmt.Errorf("subscriber %s: stream: %w", id, err)
				s.mu.Unlock()
			}
		}()
	}
	return s, nil
}

// onResult runs on subscriber i's stream goroutine after each step.
func (s *streamStack) onResult(i int, r store.StreamResult) {
	if s.tr.on.Load() {
		now := s.tr.now()
		s.tr.add(span{Name: "peer.result", Parent: "peer.begin", Peer: string(r.Peer),
			To: int64(r.To), Recno: int64(r.Batch.Recno), Start: now, End: now})
	}
	s.mu.Lock()
	s.agg.observe(r.Result)
	s.deferred += len(r.Result.Deferred)
	for _, ids := range [][]core.TxnID{r.Result.Accepted, r.Result.Rejected} {
		for _, id := range ids {
			pub := int(id.Origin[1] - '0')
			seen := s.decided[i][pub]
			for uint64(len(seen)) <= id.Seq {
				seen = append(seen, 0)
			}
			seen[id.Seq]++
			s.decided[i][pub] = seen
		}
	}
	s.mu.Unlock()
	s.front.advance(i, r.To)
}

// round is one lockstep pair of operations: both publishers post their
// batch at once and each waits until every subscriber has decided it. The
// pair keeps every cross-publisher conflict one round apart, so decisions
// do not depend on how the two posts interleave.
func (s *streamStack) round(log *opLog) {
	taken := map[int]bool{}
	bodies := make([]publishBody, len(s.pubs))
	for i, p := range s.pubs {
		bodies[i] = p.next(s.gen, taken)
	}
	s.gen.nextRound()
	type outcome struct {
		d   time.Duration
		err error
	}
	out := make([]outcome, len(s.pubs))
	var wg sync.WaitGroup
	for i, p := range s.pubs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			epoch, err := p.publish(bodies[i])
			if err == nil {
				err = s.front.wait(epoch, streamOpTimeout)
			}
			out[i] = outcome{time.Since(start), err}
		}()
	}
	wg.Wait()
	for _, o := range out {
		log.add(o.d, streamTxnsPerOp, o.err)
		s.txns += streamTxnsPerOp
	}
}

// halt ends the subscribers' streams and waits for them; the peers are then
// safe to inspect.
func (s *streamStack) halt() {
	s.stop.Do(func() {
		s.cancel()
		if s.hsrv != nil {
			s.hsrv.Close()
		}
		for _, p := range s.pubs {
			p.hc.CloseIdleConnections()
		}
		for _, c := range s.conns {
			c.Close()
		}
		s.done.Wait()
	})
}

// verify checks the outputs: all subscriber instances equal, and every
// published transaction decided exactly once by each subscriber.
func (s *streamStack) verify() []string {
	s.halt()
	var failed []string
	if s.streamErr != nil {
		failed = append(failed, s.streamErr.Error())
	}
	if s.deferred > 0 {
		failed = append(failed, fmt.Sprintf("%d deferrals under a policy without ties", s.deferred))
	}
	for i, sub := range s.subs {
		if i > 0 && !sub.Instance().Equal(s.subs[0].Instance()) {
			failed = append(failed, fmt.Sprintf("subscriber %s's instance differs from %s's", sub.ID(), s.subs[0].ID()))
		}
		for p, pub := range s.pubs {
			seen := s.decided[i][p]
			for seq := uint64(1); seq <= pub.seq; seq++ {
				if seq >= uint64(len(seen)) || seen[seq] != 1 {
					failed = append(failed, fmt.Sprintf("subscriber %s decided %s:%d other than exactly once", sub.ID(), pub.id, seq))
					break
				}
			}
		}
	}
	return failed
}

func (s *streamStack) close() {
	s.halt()
	if s.rsrv != nil {
		s.rsrv.Close()
	}
	if s.cs != nil {
		s.cs.Close()
	}
}

// serveStream is the headline workload.
type serveStream struct {
	e *env
	s *streamStack

	store0   metrics.StoreSnapshot
	db0      metrics.DBSnapshot
	gw0      metrics.GatewaySnapshot
	st0, lt0 time.Duration
	calls0   int64
	polls0   int64
	bytes0   int64
	json0    int64
}

func newServeStream(e *env) workload { return &serveStream{e: e} }

func (w *serveStream) setup(lap func()) (err error) {
	if w.s, err = newStreamStack(w.e, filepath.Join(w.e.dir, "store"), w.e.tr, true); err != nil {
		return err
	}
	var warm opLog
	for r, n := 0, w.e.scaled(250, 3); r < n; r++ {
		lap()
		w.s.round(&warm)
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.errs[0])
	}
	return nil
}

func (w *serveStream) jsonBytes() (n int64) {
	for _, p := range w.s.pubs {
		n += p.jsonLen
	}
	return n
}

func (w *serveStream) mark() {
	s := w.s
	w.store0, w.db0, w.gw0 = s.cs.Metrics().Snapshot(), s.cs.DBMetrics().Snapshot(), s.gwc.Snapshot()
	w.st0, w.lt0 = peerTimes(s.subs)
	w.calls0, w.polls0, w.bytes0 = s.wire.calls.Load(), s.wire.watchPolls.Load(), s.wire.bytes.Load()
	w.json0 = w.jsonBytes()
	s.mu.Lock()
	s.agg = coreAgg{}
	s.mu.Unlock()
}

func (w *serveStream) step(log *opLog) { w.s.round(log) }

func (w *serveStream) check() []string { return w.s.verify() }

func (w *serveStream) published() int { return w.s.txns }

func (w *serveStream) layers(r *report, log *opLog) {
	s := w.s
	ops, txns := len(log.ms), float64(log.txns)
	s.halt()
	s.agg.report(r, ops, log.txns)
	reportCentral(r, w.store0, s.cs.Metrics().Snapshot())
	reportReldb(r, log.txns, dbDelta(w.db0, s.cs.DBMetrics().Snapshot()))
	st1, lt1 := peerTimes(s.subs)
	reportPeerTimes(r, ops, log.txns, w.st0, w.lt0, st1, lt1)
	gw := s.gwc.Snapshot()
	r.set("gateway.requests", float64(gw.Requests-w.gw0.Requests))
	r.set("gateway.shed", float64(gw.Shed-w.gw0.Shed))
	r.set("gateway.rate_limited", float64(gw.RateLimited-w.gw0.RateLimited))
	r.set("gateway.json_bytes_per_txn", ratio(float64(w.jsonBytes()-w.json0), txns))
	r.set("remote.calls_per_op", ratio(float64(s.wire.calls.Load()-w.calls0), float64(ops)))
	r.set("remote.watch_polls_per_op", ratio(float64(s.wire.watchPolls.Load()-w.polls0), float64(ops)))
	r.set("remote.wire_bytes_per_txn", ratio(float64(s.wire.bytes.Load()-w.bytes0), txns))
	r.set("central.begin_ms", s.tr.p50("server.begin"))
	r.set("central.decide_ms", s.tr.p50("server.decide"))

	path := streamPath(s.tr)
	r.set("gateway.publish_self_ms", median(path.gatewaySelf))
	r.set("remote.publish_self_ms", median(path.remoteSelf))
	r.set("central.publish_ms", median(path.central))
	r.set("watch.wake_ms", median(path.wake))
	r.set("peer.step_ms", median(path.step))
	// The reply's way back through rpc and gateway overlaps the wake-up, so
	// only the way in is on the blocking path.
	in := []float64{median(path.gatewayIn), median(path.remoteIn), median(path.central), median(path.wake), median(path.step)}
	fmt.Printf("serve_stream: blocking path p50s: gateway in %.3f + rpc in %.3f + central %.3f + wake %.3f + step %.3f = %.3f ms; traced op p50 %.3f ms\n",
		in[0], in[1], in[2], in[3], in[4], in[0]+in[1]+in[2]+in[3]+in[4], median(path.op))

	r.set("remote.hol_stall_share", w.headOfLineProbe())
}

// opPath is the blocking path of every traced operation, one entry per op:
// each layer's self time on the way in, then the wake-up and stream step of
// the subscriber that finished last.
type opPath struct {
	gatewaySelf, remoteSelf []float64 // span minus the span inside it
	gatewayIn, remoteIn     []float64 // the way in only
	central, wake, step, op []float64
}

// streamPath joins the spans of each traced publish by op, epoch and
// reconciliation number.
func streamPath(tr *tracer) opPath {
	byOp := func(name string) map[string]span {
		m := map[string]span{}
		for _, s := range tr.named(name) {
			m[s.Op] = s
		}
		return m
	}
	gw, srv := byOp("gateway.publish"), byOp("server.publish")
	type key struct {
		peer string
		n    int64
	}
	begins, results := map[key]span{}, map[key]span{}
	for _, b := range tr.named("peer.begin") {
		for e := b.From + 1; e <= b.To; e++ {
			begins[key{b.Peer, e}] = b
		}
	}
	for _, m := range tr.named("peer.result") {
		results[key{m.Peer, m.Recno}] = m
	}
	var p opPath
	for _, h := range tr.named("http.publish") {
		g, ok1 := gw[h.Op]
		s, ok2 := srv[h.Op]
		if !ok1 || !ok2 {
			continue
		}
		var last, lastBegin span
		complete := true
		for i := 0; i < streamSubscribers; i++ {
			b, ok := begins[key{fmt.Sprintf("s%d", i), s.Epoch}]
			done, ok2 := results[key{b.Peer, b.Recno}]
			if !ok || !ok2 {
				complete = false
				break
			}
			if done.End >= last.End {
				last, lastBegin = done, b
			}
		}
		if !complete {
			continue
		}
		p.gatewaySelf = append(p.gatewaySelf, h.ms()-g.ms())
		p.remoteSelf = append(p.remoteSelf, g.ms()-s.ms())
		p.gatewayIn = append(p.gatewayIn, float64(g.Start-h.Start)/1e6)
		p.remoteIn = append(p.remoteIn, float64(s.Start-g.Start)/1e6)
		p.central = append(p.central, s.ms())
		p.wake = append(p.wake, max(0, float64(lastBegin.Start-s.End)/1e6))
		p.step = append(p.step, float64(last.End-lastBegin.Start)/1e6)
		p.op = append(p.op, float64(max(last.End, h.End)-h.Start)/1e6)
	}
	return p
}

// headOfLineProbe repeats the workload for a moment with every subscriber
// on one plain remote.Client and returns the share of operations slower
// than 100 ms: what sharing a connection with the watch long-poll costs.
func (w *serveStream) headOfLineProbe() float64 {
	s, err := newStreamStack(w.e, "", newTracer(), false)
	if err != nil {
		fmt.Printf("serve_stream: single-connection probe: %v\n", err)
		return 0
	}
	defer s.close()
	var log opLog
	for deadline := time.Now().Add(2 * time.Second / time.Duration(w.e.scale)); time.Now().Before(deadline) && len(log.ms) < 200; {
		s.round(&log)
	}
	slow := 0
	for _, ms := range log.ms {
		if ms > 100 {
			slow++
		}
	}
	return ratio(float64(slow), float64(len(log.ms)))
}

func (w *serveStream) close() {
	if w.s != nil {
		w.s.close()
	}
}
