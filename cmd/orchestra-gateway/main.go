// Command orchestra-gateway fronts an orchestra-store with the
// production-shaped HTTP/JSON serving surface: the full store capability
// set (publish, begin/decide, watch via long-poll or SSE, snapshot and
// replay) behind bearer-token auth, per-group token-bucket rate limits, a
// backend connection pool, and queue-depth backpressure that sheds load
// with Retry-After instead of collapsing. Routes and semantics are
// documented in docs/GATEWAY.md.
//
// Usage:
//
//	orchestra-store -listen :7400 -schema protein &
//	orchestra-gateway -listen :8080 -store 127.0.0.1:7400 -pool 4 \
//	    -rate 500 -burst 100 -max-inflight 128 -token s3cret
//
// With -memory the gateway hosts an in-process store instead — a
// self-contained single-binary deployment for demos and smoke tests.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/gateway"
	"orchestra/internal/metrics"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/store/remote"
	"orchestra/internal/workload"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP address to serve on")
	storeAddr := flag.String("store", "", "TCP address of the orchestra-store backend")
	memory := flag.Bool("memory", false, "host an in-process in-memory store instead of -store")
	schemaName := flag.String("schema", "protein", "built-in schema: protein|swissprot")
	pool := flag.Int("pool", 4, "backend connection pool size")
	token := flag.String("token", "", "bearer token required on every request (empty = no auth)")
	rate := flag.Float64("rate", 0, "per-group rate limit in requests/second (0 = unlimited)")
	burst := flag.Int("burst", 0, "rate-limit burst size (default: rate)")
	maxInFlight := flag.Int("max-inflight", 128, "max concurrently served requests")
	maxQueue := flag.Int("max-queue", 0, "max queued requests before shedding (default 2x max-inflight)")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "max time a request queues before being shed")
	watchWait := flag.Duration("watch-wait", 10*time.Second, "long-poll watch wait cap")
	flag.Parse()

	schema, err := builtinSchema(*schemaName)
	if err != nil {
		log.Fatal(err)
	}

	var backend store.Store
	switch {
	case *memory:
		cs := central.MustOpenMemory(schema)
		defer cs.Close()
		backend = cs
	case *storeAddr != "":
		clients := make([]store.Backend, *pool)
		for i := range clients {
			clients[i] = remote.NewClient(fmt.Sprintf("gateway-%d", i), *storeAddr)
		}
		backend = gateway.NewPool(clients...)
	default:
		log.Fatal("orchestra-gateway: need -store ADDR or -memory")
	}

	counters := &metrics.GatewayCounters{}
	opts := gateway.Options{
		Rate:        *rate,
		Burst:       *burst,
		MaxInFlight: *maxInFlight,
		MaxQueue:    *maxQueue,
		QueueWait:   *queueWait,
		WatchWait:   *watchWait,
		Counters:    counters,
	}
	if *token != "" {
		want := "Bearer " + *token
		opts.Auth = func(r *http.Request) error {
			if r.Header.Get("Authorization") != want {
				return fmt.Errorf("bad or missing bearer token")
			}
			return nil
		}
	}

	gw := gateway.New(backend, schema, opts)
	srv := &http.Server{
		Addr:              *listen,
		Handler:           gw,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		log.Printf("orchestra-gateway: serving schema %q on %s (backend=%s, pool=%d, rate=%.0f/s, inflight=%d)",
			*schemaName, *listen, backendName(*memory, *storeAddr), *pool, *rate, *maxInFlight)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("orchestra-gateway: shutting down; %s", counters.Snapshot())
	srv.Close()
}

func backendName(memory bool, addr string) string {
	if memory {
		return "in-memory"
	}
	return addr
}

// builtinSchema resolves the named schema.
func builtinSchema(name string) (*core.Schema, error) {
	switch name {
	case "protein":
		return core.NewSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	case "swissprot":
		return workload.Schema(), nil
	default:
		return nil, fmt.Errorf("unknown schema %q (want protein|swissprot)", name)
	}
}
