package simnet

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"orchestra/internal/rpc"
)

func echoHandler(_ context.Context, req rpc.Request) ([]byte, error) {
	return append([]byte(req.Method+":"), req.Body...), nil
}

func TestCallRoundTrip(t *testing.T) {
	net := NewVirtual(DefaultLatency)
	a := net.Node("a", rpc.HandlerFunc(echoHandler))
	net.Node("b", rpc.HandlerFunc(echoHandler))
	resp, err := a.Call(context.Background(), "b", "ping", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping:x" {
		t.Errorf("resp = %q", resp)
	}
	if a.Addr() != "a" {
		t.Errorf("Addr = %q", a.Addr())
	}
}

func TestStatsAndVirtualLatency(t *testing.T) {
	net := NewVirtual(time.Millisecond)
	a := net.Node("a", rpc.HandlerFunc(echoHandler))
	net.Node("b", rpc.HandlerFunc(echoHandler))
	net.Stats().Reset()
	for i := 0; i < 5; i++ {
		if _, err := a.Call(context.Background(), "b", "m", []byte("1234")); err != nil {
			t.Fatal(err)
		}
	}
	if got := net.Stats().Messages(); got != 10 {
		t.Errorf("messages = %d, want 10 (5 requests + 5 replies)", got)
	}
	if got := net.Stats().Bytes(); got == 0 {
		t.Error("bytes not counted")
	}
	if got := net.VirtualLatency(); got != 10*time.Millisecond {
		t.Errorf("virtual latency = %v, want 10ms", got)
	}
	if net.Latency() != time.Millisecond {
		t.Errorf("Latency = %v", net.Latency())
	}
}

func TestProcessingCostCharged(t *testing.T) {
	net := NewVirtual(time.Millisecond)
	net.SetProcessingCost(4 * time.Millisecond)
	a := net.Node("a", rpc.HandlerFunc(echoHandler))
	net.Node("b", rpc.HandlerFunc(echoHandler))
	if _, err := a.Call(context.Background(), "b", "m", nil); err != nil {
		t.Fatal(err)
	}
	// 2 messages × 1ms wire + 1 delivered request × 4ms processing.
	if got := net.VirtualLatency(); got != 6*time.Millisecond {
		t.Errorf("virtual = %v, want 6ms", got)
	}
}

func TestRealSleepLatency(t *testing.T) {
	net := New(200 * time.Microsecond)
	a := net.Node("a", rpc.HandlerFunc(echoHandler))
	net.Node("b", rpc.HandlerFunc(echoHandler))
	start := time.Now()
	if _, err := a.Call(context.Background(), "b", "m", nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 400*time.Microsecond {
		t.Errorf("elapsed %v, want >= 400us (request + reply)", elapsed)
	}
}

func TestUnknownNode(t *testing.T) {
	net := NewVirtual(0)
	a := net.Node("a", rpc.HandlerFunc(echoHandler))
	if _, err := a.Call(context.Background(), "ghost", "m", nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v", err)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	net := NewVirtual(0)
	a := net.Node("a", rpc.HandlerFunc(echoHandler))
	net.Node("b", rpc.HandlerFunc(echoHandler))
	net.Partition("b")
	if _, err := a.Call(context.Background(), "b", "m", nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("partitioned call: %v", err)
	}
	// Partitioning the caller blocks it too.
	net.Heal("b")
	net.Partition("a")
	if _, err := a.Call(context.Background(), "b", "m", nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("partitioned caller: %v", err)
	}
	net.Heal("a")
	if _, err := a.Call(context.Background(), "b", "m", nil); err != nil {
		t.Errorf("healed call: %v", err)
	}
}

func TestRemove(t *testing.T) {
	net := NewVirtual(0)
	a := net.Node("a", rpc.HandlerFunc(echoHandler))
	net.Node("b", rpc.HandlerFunc(echoHandler))
	net.Remove("b")
	if _, err := a.Call(context.Background(), "b", "m", nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call to removed node: %v", err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	net := NewVirtual(0)
	a := net.Node("a", rpc.HandlerFunc(echoHandler))
	net.Node("b", rpc.HandlerFunc(func(context.Context, rpc.Request) ([]byte, error) {
		return nil, fmt.Errorf("handler failure")
	}))
	_, err := a.Call(context.Background(), "b", "m", nil)
	if err == nil || err.Error() != "handler failure" {
		t.Errorf("err = %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	net := NewVirtual(0)
	a := net.Node("a", rpc.HandlerFunc(echoHandler))
	net.Node("b", rpc.HandlerFunc(echoHandler))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Call(ctx, "b", "m", nil); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestHandleReplacement(t *testing.T) {
	net := NewVirtual(0)
	a := net.Node("a", rpc.HandlerFunc(echoHandler))
	b := net.Node("b", rpc.HandlerFunc(echoHandler))
	b.Handle(rpc.HandlerFunc(func(_ context.Context, req rpc.Request) ([]byte, error) {
		return []byte("replaced:" + req.From), nil
	}))
	resp, err := a.Call(context.Background(), "b", "m", nil)
	if err != nil || string(resp) != "replaced:a" {
		t.Errorf("resp = %q, err = %v", resp, err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	net := NewVirtual(0)
	var mu sync.Mutex
	seen := map[string]int{}
	net.Node("server", rpc.HandlerFunc(func(_ context.Context, req rpc.Request) ([]byte, error) {
		mu.Lock()
		seen[req.From]++
		mu.Unlock()
		return req.Body, nil
	}))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		addr := fmt.Sprintf("client-%d", i)
		node := net.Node(addr, rpc.HandlerFunc(echoHandler))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := node.Call(context.Background(), "server", "m", []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 8 {
		t.Errorf("seen %d clients", len(seen))
	}
	for from, n := range seen {
		if n != 50 {
			t.Errorf("%s: %d calls", from, n)
		}
	}
}

func TestMuxDispatch(t *testing.T) {
	mux := rpc.NewMux()
	mux.Handle("x", func(context.Context, rpc.Request) ([]byte, error) { return []byte("X"), nil })
	mux.Handle("y", func(context.Context, rpc.Request) ([]byte, error) { return []byte("Y"), nil })
	net := NewVirtual(0)
	a := net.Node("a", mux)
	net.Node("b", mux)
	resp, err := a.Call(context.Background(), "b", "x", nil)
	if err != nil || string(resp) != "X" {
		t.Errorf("x: %q %v", resp, err)
	}
	if _, err := a.Call(context.Background(), "b", "nope", nil); err == nil {
		t.Error("unknown method should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Handle should panic")
		}
	}()
	mux.Handle("x", func(context.Context, rpc.Request) ([]byte, error) { return nil, nil })
}

// TestInvokeEncodeDecode: a typed call round-trips through the fabric,
// with a gob body as the DHT experiment's messages use, and a call with no
// body and no reply works too.
func TestInvokeEncodeDecode(t *testing.T) {
	type args struct{ A, B int }
	type reply struct{ Sum int }
	mux := rpc.NewMux()
	mux.Handle("add", func(_ context.Context, req rpc.Request) ([]byte, error) {
		var a args
		if err := gob.NewDecoder(bytes.NewReader(req.Body)).Decode(&a); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err := gob.NewEncoder(&buf).Encode(reply{Sum: a.A + a.B})
		return buf.Bytes(), err
	})
	net := NewVirtual(0)
	caller := net.Node("c", rpc.HandlerFunc(echoHandler))
	net.Node("s", mux)
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(args{2, 3}); err != nil {
		t.Fatal(err)
	}
	resp, err := caller.Call(context.Background(), "s", "add", body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var out reply
	if err := gob.NewDecoder(bytes.NewReader(resp)).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Sum != 5 {
		t.Errorf("sum = %d", out.Sum)
	}
	mux.Handle("noop", func(context.Context, rpc.Request) ([]byte, error) { return nil, nil })
	if _, err := caller.Call(context.Background(), "s", "noop", nil); err != nil {
		t.Fatal(err)
	}
}
