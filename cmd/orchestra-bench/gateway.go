package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/gateway"
	"orchestra/internal/metrics"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
)

// gatewayResult is what one gateway cell measured: C closed-loop clients
// hammer the HTTP serving surface with keyed publishes through a
// deliberately small backpressure gate, retrying every 429/503 with the
// same Idempotency-Key until it lands. The gate sheds load, the clients
// retry, and the store's idempotency layer guarantees each keyed operation
// applies exactly once — DroppedKeyed counts the operations the audit could
// not find afterwards and must be zero.
type gatewayResult struct {
	Clients      int
	OpsPerClient int
	OpsPerSec    float64
	MeanNs       float64
	P99Ns        float64
	Shed         int64
	Retries      int64
	DroppedKeyed int64
	DedupHits    int64
}

// slowPublishStore gives the backend a realistic publish service time. An
// in-memory store answers in tens of microseconds — no closed-loop client
// fleet can saturate a gate in front of that, and the shedding path would
// go unmeasured. A production store pays disk and network I/O per publish;
// the injected latency stands in for it so the gate actually fills.
type slowPublishStore struct {
	store.Store
	delay time.Duration
}

func (s *slowPublishStore) Publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn) (core.Epoch, error) {
	timer := time.NewTimer(s.delay)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return s.Store.Publish(ctx, peer, txns)
}

// runGatewayCell drives clients×opsPerClient keyed publishes through a
// gateway whose backend takes ~1ms per publish behind a 4-slot gate —
// capacity ~4k ops/s, which a closed-loop fleet of 16 exceeds, so the
// queue fills and the gate sheds. Every shed or failed call is retried
// with the SAME key; afterwards a reader peer audits the store and counts
// exactly-once delivery.
func runGatewayCell(clients, opsPerClient int) (gatewayResult, error) {
	schema := core.MustSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	cs := central.MustOpenMemory(schema)
	defer cs.Close()
	counters := &metrics.GatewayCounters{}
	gw := gateway.New(&slowPublishStore{Store: cs, delay: time.Millisecond}, schema, gateway.Options{
		MaxInFlight: 4,
		MaxQueue:    4,
		QueueWait:   2 * time.Millisecond,
		Counters:    counters,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return gatewayResult{}, err
	}
	srv := &http.Server{Handler: gw}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String()

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1}}
	post := func(path, key string, body any) (int, []byte, error) {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		req, err := http.NewRequest("POST", url+path, bytes.NewReader(b))
		if err != nil {
			return 0, nil, err
		}
		if key != "" {
			req.Header.Set(gateway.IdempotencyKeyHeader, key)
		}
		resp, err := hc.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw, nil
	}

	// Registration rides through the same shedding gate, so retry it too.
	registerRetried := func(peer string) error {
		for attempt := 0; ; attempt++ {
			code, _, err := post("/v1/peers", "", map[string]string{
				"peer": peer, "policy": "priority 1 when true",
			})
			if err == nil && code == http.StatusOK {
				return nil
			}
			if err == nil && code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
				return fmt.Errorf("register %s: status %d", peer, code)
			}
			if attempt > 200 {
				return fmt.Errorf("register %s: still refused after %d attempts", peer, attempt)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < clients; i++ {
		if err := registerRetried(fmt.Sprintf("c%d", i)); err != nil {
			return gatewayResult{}, err
		}
	}
	if err := registerRetried("auditor"); err != nil {
		return gatewayResult{}, err
	}

	// The closed loop. Retry-After on this surface is whole seconds (the
	// HTTP delta-seconds form); a closed-loop bench honors the *signal* but
	// compresses the wait to keep the measurement about throughput, not
	// sleeping.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []time.Duration
		retries  int64
		driveErr error
	)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			peer := fmt.Sprintf("c%d", i)
			myLats := make([]time.Duration, 0, opsPerClient)
			var myRetries int64
			for op := 0; op < opsPerClient; op++ {
				key := fmt.Sprintf("%s/publish/%d", peer, op)
				body := map[string]any{
					"peer": peer,
					"txns": []map[string]any{{
						"seq": op + 1,
						"updates": []map[string]any{{
							"op": "insert", "rel": "F",
							"tuple": []string{"org-" + peer, fmt.Sprintf("p%d", op), "fn"},
						}},
					}},
				}
				opStart := time.Now()
				backoff := 500 * time.Microsecond
				for {
					code, _, err := post("/v1/publish", key, body)
					if err == nil && code == http.StatusOK {
						break
					}
					if err == nil && code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
						mu.Lock()
						if driveErr == nil {
							driveErr = fmt.Errorf("%s op %d: status %d", peer, op, code)
						}
						mu.Unlock()
						return
					}
					myRetries++
					time.Sleep(backoff)
					if backoff < 4*time.Millisecond {
						backoff *= 2
					}
				}
				myLats = append(myLats, time.Since(opStart))
			}
			mu.Lock()
			lats = append(lats, myLats...)
			retries += myRetries
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if driveErr != nil {
		return gatewayResult{}, driveErr
	}

	// Exactly-once audit: the auditor's first reconciliation surfaces every
	// transaction published by anyone else — one candidate per keyed op, no
	// more, no less.
	code, raw, err := post("/v1/reconcile/begin", "", map[string]string{"peer": "auditor"})
	if err != nil || code != http.StatusOK {
		return gatewayResult{}, fmt.Errorf("audit begin: status %d err %v", code, err)
	}
	var audit struct {
		Candidates []json.RawMessage `json:"candidates"`
	}
	if err := json.Unmarshal(raw, &audit); err != nil {
		return gatewayResult{}, err
	}
	total := int64(clients * opsPerClient)
	dropped := total - int64(len(audit.Candidates))

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, d := range lats {
		sum += d
	}
	var mean, p99 float64
	if len(lats) > 0 {
		mean = float64(sum.Nanoseconds()) / float64(len(lats))
		p99 = float64(lats[len(lats)*99/100].Nanoseconds())
	}
	snap := counters.Snapshot()
	e := gatewayResult{
		Clients:      clients,
		OpsPerClient: opsPerClient,
		OpsPerSec:    float64(total) / elapsed.Seconds(),
		MeanNs:       mean,
		P99Ns:        p99,
		Shed:         snap.Shed,
		Retries:      retries,
		DroppedKeyed: dropped,
		DedupHits:    cs.Metrics().Snapshot().DedupHits,
	}
	if dropped != 0 {
		return e, fmt.Errorf("gateway cell clients=%d: %d keyed operations dropped", clients, dropped)
	}
	return e, nil
}

// runGatewayDriver is the standalone `-gateway -clients N` mode: one cell,
// human-readable.
func runGatewayDriver(clients, opsPerClient int) error {
	e, err := runGatewayCell(clients, opsPerClient)
	if err != nil {
		return err
	}
	fmt.Printf("gateway closed loop: clients=%d ops/client=%d\n", e.Clients, e.OpsPerClient)
	fmt.Printf("  throughput:     %.0f ops/s\n", e.OpsPerSec)
	fmt.Printf("  mean latency:   %s\n", time.Duration(e.MeanNs))
	fmt.Printf("  p99 latency:    %s\n", time.Duration(e.P99Ns))
	fmt.Printf("  shed:           %d\n", e.Shed)
	fmt.Printf("  client retries: %d\n", e.Retries)
	fmt.Printf("  dedup hits:     %d\n", e.DedupHits)
	fmt.Printf("  dropped keyed:  %d\n", e.DroppedKeyed)
	return nil
}
