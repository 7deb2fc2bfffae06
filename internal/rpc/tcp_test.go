package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func startEcho(t *testing.T) (addr string, srv *Server) {
	t.Helper()
	srv = NewServer(HandlerFunc(func(_ context.Context, req Request) ([]byte, error) {
		return append([]byte(req.From+"/"+req.Method+":"), req.Body...), nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func TestTCPRoundTrip(t *testing.T) {
	addr, _ := startEcho(t)
	cl := NewClient("me")
	defer cl.Close()
	resp, err := cl.Call(context.Background(), addr, "hello", []byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "me/hello:world" {
		t.Errorf("resp = %q", resp)
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	addr, _ := startEcho(t)
	cl := NewClient("me")
	defer cl.Close()
	for i := 0; i < 20; i++ {
		if _, err := cl.Call(context.Background(), addr, "m", nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPHandlerError(t *testing.T) {
	srv := NewServer(HandlerFunc(func(context.Context, Request) ([]byte, error) {
		return nil, context.DeadlineExceeded
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient("me")
	defer cl.Close()
	_, err = cl.Call(context.Background(), addr, "m", nil)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("err = %v", err)
	}
	// The connection survives handler errors.
	if _, err := cl.Call(context.Background(), addr, "m", nil); err == nil {
		t.Error("second call should also return the handler error")
	}
}

func TestTCPDialFailure(t *testing.T) {
	cl := NewClient("me")
	defer cl.Close()
	if _, err := cl.Call(context.Background(), "127.0.0.1:1", "m", nil); err == nil {
		t.Error("dial to closed port should fail")
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	addr, _ := startEcho(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := NewClient("client")
			defer cl.Close()
			for j := 0; j < 25; j++ {
				if _, err := cl.Call(context.Background(), addr, "m", []byte{byte(id)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPServerClose(t *testing.T) {
	addr, srv := startEcho(t)
	cl := NewClient("me")
	defer cl.Close()
	if _, err := cl.Call(context.Background(), addr, "m", nil); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := cl.Call(ctx, addr, "m", nil); err == nil {
		t.Error("call after server close should fail")
	}
	// Double close is safe.
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestTCPReconnectAfterDrop(t *testing.T) {
	addr, srv := startEcho(t)
	cl := NewClient("me")
	defer cl.Close()
	if _, err := cl.Call(context.Background(), addr, "m", nil); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address.
	srv.Close()
	srv2 := NewServer(HandlerFunc(func(_ context.Context, req Request) ([]byte, error) { return []byte("v2"), nil }))
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	// First call may fail on the stale pooled connection; the retry dials
	// fresh.
	var resp []byte
	var err error
	for i := 0; i < 3; i++ {
		resp, err = cl.Call(context.Background(), addr, "m", nil)
		if err == nil {
			break
		}
	}
	if err != nil || string(resp) != "v2" {
		t.Errorf("after reconnect: %q %v", resp, err)
	}
}

// TestTCPServerAppliesTimeoutAsRelativeBudget: the wire carries a remaining
// *duration*, and the server must apply it relative to its own clock. The
// request frame here is hand-rolled with no client clock involved at all —
// a server that still reconstructed an absolute deadline from the field
// would hand the handler a context expired half a century ago.
func TestTCPServerAppliesTimeoutAsRelativeBudget(t *testing.T) {
	const budget = 300 * time.Millisecond
	remaining := make(chan time.Duration, 1)
	srv := NewServer(HandlerFunc(func(ctx context.Context, _ Request) ([]byte, error) {
		dl, ok := ctx.Deadline()
		if !ok {
			remaining <- -1
			return nil, nil
		}
		remaining <- time.Until(dl)
		return nil, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, appendRequestHead(nil, "raw", "m", int64(budget)), nil); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(bufio.NewReader(conn)); err != nil {
		t.Fatal(err)
	}
	rem := <-remaining
	if rem <= 0 || rem > budget {
		t.Errorf("handler saw %v of a %v budget; the timeout was not applied relative to the server clock", rem, budget)
	}
}

// TestTCPClientSendsRemainingBudget: the client must put the *remaining*
// time to its context deadline on the wire, not the absolute wall-clock
// instant — with an hour-long deadline, an absolute UnixNano mistaken for a
// duration would give the handler a deadline decades out.
func TestTCPClientSendsRemainingBudget(t *testing.T) {
	srv := NewServer(HandlerFunc(func(ctx context.Context, _ Request) ([]byte, error) {
		dl, ok := ctx.Deadline()
		if !ok {
			return nil, errors.New("no deadline on handler context")
		}
		return []byte(time.Until(dl).String()), nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient("me")
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	resp, err := cl.Call(ctx, addr, "budget", nil)
	if err != nil {
		t.Fatal(err)
	}
	rem, err := time.ParseDuration(string(resp))
	if err != nil {
		t.Fatalf("handler reply %q: %v", resp, err)
	}
	if rem <= 0 || rem > time.Hour {
		t.Errorf("handler saw a %v budget from an hour-long client deadline", rem)
	}
	if rem < 55*time.Minute {
		t.Errorf("handler budget %v lost too much of the client's hour in transit", rem)
	}
}

// TestClientSharedAcrossGoroutinesSurvivesDrops is the production shape of a
// streaming remote.Client — watch loop and store calls on one rpc.Client —
// under a server that keeps cutting its accepted connections. A caller may
// see a cut as an error, but the pool must stay coherent: no data race
// between dropping a broken connection and looking it up (run under -race),
// a clean call once the cutting stops, and no connection orphaned where
// Close cannot reach it (two callers that miss the pool both dial; the
// loser's connection must be closed).
func TestClientSharedAcrossGoroutinesSurvivesDrops(t *testing.T) {
	addr, srv := startEcho(t)
	cl := NewClient("me")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serverConns := func(each func(net.Conn)) int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for c := range srv.conns {
			each(c)
		}
		return len(srv.conns)
	}

	stop, cutterDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(cutterDone)
		for {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
				serverConns(func(c net.Conn) { c.Close() })
			}
		}
	}()
	var callers sync.WaitGroup
	var okCalls atomic.Int64
	for g := 0; g < 4; g++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for i := 0; i < 300; i++ {
				if resp, err := cl.Call(ctx, addr, "m", []byte("x")); err == nil {
					if string(resp) != "me/m:x" {
						t.Errorf("resp = %q", resp)
					}
					okCalls.Add(1)
				} // else: the cut, surfaced; the next call redials
			}
		}()
	}
	callers.Wait()
	close(stop)
	<-cutterDone
	if okCalls.Load() == 0 {
		t.Error("no call succeeded between cuts")
	}

	// Quiet server: at most one stale pooled connection stands between the
	// client and a clean call.
	_, err := cl.Call(ctx, addr, "m", nil)
	if err != nil {
		_, err = cl.Call(ctx, addr, "m", nil)
	}
	if err != nil {
		t.Fatalf("call after the cuts stopped: %v", err)
	}
	// Every connection the client dialled is by now dropped, closed as a
	// dial loser, or pooled; Close takes the pooled ones, so the server must
	// see all of its connections end.
	cl.Close()
	for deadline := time.Now().Add(5 * time.Second); serverConns(func(net.Conn) {}) > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("server connections still open after Client.Close: a dialled connection was orphaned")
		}
	}
}

// TestTCPCallHonoursCancel: a cancelled context without a deadline must end
// the call at once — there is no deadline to map onto the connection, so
// before the fix the call waited out the handler and returned its reply
// with a nil error. The connection the reply would have arrived on is
// dropped, and the next call dials fresh.
func TestTCPCallHonoursCancel(t *testing.T) {
	release := make(chan struct{})
	srv := NewServer(HandlerFunc(func(context.Context, Request) ([]byte, error) {
		select {
		case <-release:
		case <-time.After(2 * time.Second):
		}
		return []byte("late"), nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient("me")
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	resp, err := cl.Call(ctx, addr, "slow", nil)
	took := time.Since(start)
	close(release)
	if took > 100*time.Millisecond {
		t.Errorf("cancelled call returned after %v (resp %q, err %v)", took, resp, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call: resp %q, err %v, want an error wrapping context.Canceled", resp, err)
	}
	if resp, err := cl.Call(context.Background(), addr, "slow", nil); err != nil || string(resp) != "late" {
		t.Errorf("call after the cancelled one: %q %v", resp, err)
	}
}

// TestTCPCancelSparesQueuedCaller: a cancelled call on a pooled connection
// must not take down the caller queued behind it on the same connection.
// The cancelled call retires the connection before it lets go of it, so the
// queued call writes nothing there: it dials afresh, succeeds, and gets its
// own reply, not the cancelled call's late one.
func TestTCPCancelSparesQueuedCaller(t *testing.T) {
	started, release := make(chan struct{}, 1), make(chan struct{})
	srv := NewServer(HandlerFunc(func(_ context.Context, req Request) ([]byte, error) {
		if req.Method == "slow" {
			started <- struct{}{}
			<-release
			return []byte("late"), nil
		}
		return append([]byte(req.Method+":"), req.Body...), nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)
	cl := NewClient("me")
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	slowErr := make(chan error, 1)
	go func() {
		_, err := cl.Call(ctx, addr, "slow", nil)
		slowErr <- err
	}()
	<-started // the slow call holds the pooled connection
	type result struct {
		resp []byte
		err  error
	}
	queued := make(chan result, 1)
	go func() {
		resp, err := cl.Call(context.Background(), addr, "echo", []byte("mine"))
		queued <- result{resp, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the second call queue on the connection
	cancel()
	if err := <-slowErr; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call: %v, want an error wrapping context.Canceled", err)
	}
	select {
	case r := <-queued:
		if r.err != nil || string(r.resp) != "echo:mine" {
			t.Errorf("queued call: %q %v, want its own reply", r.resp, r.err)
		}
	case <-time.After(time.Second):
		t.Fatal("queued call did not return")
	}
}

// TestFrameGolden pins the envelope's bytes, length prefix included: a
// request (version, From, Method, TimeoutNanos as a uvarint, body as the
// rest) and both response statuses.
func TestFrameGolden(t *testing.T) {
	frame := func(head, body []byte) string {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeFrame(bw, head, body); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		return hex.EncodeToString(buf.Bytes())
	}
	for _, c := range []struct{ name, got, want string }{
		{"request", frame(appendRequestHead(nil, "p1", "store.begin", 1500), []byte("body")),
			"16000000" + "02" + "027031" + "0b73746f72652e626567696e" + "dc0b" + "626f6479"},
		{"ok response", frame(okHead, []byte("ok")), "04000000" + "0200" + "6f6b"},
		{"error response", frame(errHead, []byte("boom")), "06000000" + "0201" + "626f6f6d"},
	} {
		if c.got != c.want {
			t.Errorf("%s frame:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
}

// FuzzDecodeFrame feeds arbitrary frames to both envelope decoders. Neither
// may panic, and anything accepted must be canonical: re-encoding the
// decoded frame gives back exactly its bytes.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(append(appendRequestHead(nil, "p1", "store.begin", 1500), "body"...))
	f.Add(appendRequestHead(nil, "", "", 0))
	f.Add(append(append([]byte(nil), okHead...), "reply"...))
	f.Add(append(append([]byte(nil), errHead...), "boom"...))
	f.Add([]byte{1, 0}) // version 1, which this build refuses
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, timeout, err := decodeRequest(data); err == nil {
			if re := append(appendRequestHead(nil, req.From, req.Method, timeout), req.Body...); !bytes.Equal(re, data) {
				t.Fatalf("request decode not canonical: %x re-encodes to %x", data, re)
			}
		}
		if body, remote, err := decodeResponse(data); err == nil {
			head, payload := okHead, body
			if remote != nil {
				head, payload = errHead, []byte(remote.Error())
			}
			if re := append(append([]byte(nil), head...), payload...); !bytes.Equal(re, data) {
				t.Fatalf("response decode not canonical: %x re-encodes to %x", data, re)
			}
		}
	})
}
