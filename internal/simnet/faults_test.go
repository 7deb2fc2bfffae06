package simnet

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"orchestra/internal/rpc"
)

// countingHandler counts invocations and echoes the body.
type countingHandler struct{ runs atomic.Int64 }

func (h *countingHandler) ServeRPC(_ context.Context, req rpc.Request) ([]byte, error) {
	h.runs.Add(1)
	return req.Body, nil
}

func faultFabric(t *testing.T, seed int64, f Faults) (*Network, *Node, *countingHandler) {
	t.Helper()
	net := NewVirtual(time.Microsecond)
	net.Seed(seed)
	net.SetFaults(f)
	h := &countingHandler{}
	net.Node("b", h)
	a := net.Node("a", nil)
	return net, a, h
}

// TestFaultLossAccounting: under message loss, every call is accounted for
// exactly once — success, lost request, or lost reply — and the handler ran
// for exactly the calls whose request got through. Lost replies leave the
// handler's side effect committed: that count must be > 0 at 50% loss, the
// property that makes blind retry unsafe.
func TestFaultLossAccounting(t *testing.T) {
	const calls = 200
	net, a, h := faultFabric(t, 42, Faults{Loss: 0.5})
	ctx := context.Background()
	succ := 0
	for i := 0; i < calls; i++ {
		if _, err := a.Call(ctx, "b", "m", []byte("x")); err == nil {
			succ++
		} else if !errors.Is(err, ErrTimeout) {
			t.Fatalf("unexpected error kind: %v", err)
		}
	}
	fs := net.FaultStats()
	if got := succ + int(fs.LostRequests()) + int(fs.LostReplies()); got != calls {
		t.Errorf("accounting: %d successes + %d lostReq + %d lostReply != %d calls",
			succ, fs.LostRequests(), fs.LostReplies(), calls)
	}
	if got, want := h.runs.Load(), int64(calls)-fs.LostRequests(); got != want {
		t.Errorf("handler ran %d times, want %d (calls - lost requests)", got, want)
	}
	if fs.LostReplies() == 0 {
		t.Error("no lost replies at 50% loss — the retry-unsafe case went unexercised")
	}
	if fs.LostRequests() == 0 || succ == 0 {
		t.Errorf("degenerate split: %d successes, %d lost requests", succ, fs.LostRequests())
	}
}

// TestFaultSeedDeterminism: the same seed and call order replay the same
// per-call outcome sequence; a different seed diverges.
func TestFaultSeedDeterminism(t *testing.T) {
	outcomes := func(seed int64) []bool {
		_, a, _ := faultFabric(t, seed, Faults{Loss: 0.3})
		out := make([]bool, 100)
		for i := range out {
			_, err := a.Call(context.Background(), "b", "m", nil)
			out[i] = err == nil
		}
		return out
	}
	x, y := outcomes(7), outcomes(7)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	z := outcomes(8)
	same := true
	for i := range x {
		if x[i] != z[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 100-call schedules")
	}
}

// TestFaultDuplicateDelivery: Dup = 1 runs the handler twice per call while
// the caller sees exactly one (the first) response.
func TestFaultDuplicateDelivery(t *testing.T) {
	const calls = 20
	net, a, h := faultFabric(t, 1, Faults{Dup: 1})
	for i := 0; i < calls; i++ {
		resp, err := a.Call(context.Background(), "b", "m", []byte("payload"))
		if err != nil || string(resp) != "payload" {
			t.Fatalf("call %d: %v %q", i, err, resp)
		}
	}
	if got := h.runs.Load(); got != 2*calls {
		t.Errorf("handler ran %d times, want %d", got, 2*calls)
	}
	if got := net.FaultStats().Duplicates(); got != calls {
		t.Errorf("Duplicates() = %d, want %d", got, calls)
	}
}

// TestFaultJitter: injected jitter is charged to the (virtual) clock and
// counted, on top of the base per-message latency.
func TestFaultJitter(t *testing.T) {
	net, a, _ := faultFabric(t, 3, Faults{Jitter: time.Millisecond})
	const calls = 50
	for i := 0; i < calls; i++ {
		if _, err := a.Call(context.Background(), "b", "m", nil); err != nil {
			t.Fatal(err)
		}
	}
	fs := net.FaultStats()
	if fs.Jitter() <= 0 {
		t.Fatal("no jitter charged")
	}
	base := time.Duration(2*calls) * time.Microsecond // request + reply per call
	if got := net.VirtualLatency(); got != base+fs.Jitter() {
		t.Errorf("virtual clock %v != base %v + jitter %v", got, base, fs.Jitter())
	}
}

// TestOneWayPartition blocks one direction only and heals.
func TestOneWayPartition(t *testing.T) {
	net := NewVirtual(time.Microsecond)
	echo := rpc.HandlerFunc(func(_ context.Context, req rpc.Request) ([]byte, error) {
		return req.Body, nil
	})
	a := net.Node("a", echo)
	b := net.Node("b", echo)
	net.PartitionOneWay("a", "b")

	if _, err := a.Call(context.Background(), "b", "m", nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("a->b through one-way partition: %v", err)
	}
	if _, err := b.Call(context.Background(), "a", "m", nil); err != nil {
		t.Errorf("b->a should flow: %v", err)
	}
	if got := net.FaultStats().PartitionDrops(); got != 1 {
		t.Errorf("PartitionDrops() = %d, want 1", got)
	}
	net.HealOneWay("a", "b")
	if _, err := a.Call(context.Background(), "b", "m", nil); err != nil {
		t.Errorf("a->b after heal: %v", err)
	}
}

// TestCrashRestart: a crashed node refuses traffic in both roles until
// restarted, without losing its registration.
func TestCrashRestart(t *testing.T) {
	net := NewVirtual(time.Microsecond)
	echo := rpc.HandlerFunc(func(_ context.Context, req rpc.Request) ([]byte, error) {
		return req.Body, nil
	})
	a := net.Node("a", echo)
	b := net.Node("b", echo)
	net.Crash("b")

	if _, err := a.Call(context.Background(), "b", "m", nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call to crashed node: %v", err)
	}
	if _, err := b.Call(context.Background(), "a", "m", nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call from crashed node: %v", err)
	}
	if got := net.FaultStats().CrashDrops(); got != 2 {
		t.Errorf("CrashDrops() = %d, want 2", got)
	}
	net.Restart("b")
	if _, err := a.Call(context.Background(), "b", "m", []byte("back")); err != nil {
		t.Errorf("call after restart: %v", err)
	}
}

// TestInFlightReplyDiesWithCrash: a handler entered before its node
// crashes runs to its end, but its reply dies with the process: the call
// fails with ErrUnreachable and counts as a crash drop, also when the node
// has restarted before the handler returns. A call the crash does not
// overlap still gets its reply.
func TestInFlightReplyDiesWithCrash(t *testing.T) {
	for _, restart := range []bool{false, true} {
		net := NewVirtual(time.Microsecond)
		entered, release, ran := make(chan struct{}), make(chan struct{}), make(chan struct{}, 1)
		a := net.Node("a", nil)
		net.Node("b", rpc.HandlerFunc(func(_ context.Context, req rpc.Request) ([]byte, error) {
			entered <- struct{}{}
			<-release
			ran <- struct{}{}
			return req.Body, nil
		}))
		errc := make(chan error, 1)
		go func() {
			_, err := a.Call(context.Background(), "b", "m", []byte("x"))
			errc <- err
		}()
		<-entered
		net.Crash("b")
		if restart {
			net.Restart("b")
		}
		close(release)
		if err := <-errc; !errors.Is(err, ErrUnreachable) {
			t.Errorf("restart=%v: call in flight across a crash returned %v, want ErrUnreachable", restart, err)
		}
		<-ran // the handler's side effects stand
		if got := net.FaultStats().CrashDrops(); got != 1 {
			t.Errorf("restart=%v: CrashDrops() = %d, want 1", restart, got)
		}
		if restart {
			go func() { <-entered }()
			if body, err := a.Call(context.Background(), "b", "m", []byte("y")); err != nil || string(body) != "y" {
				t.Errorf("call after restart = %q, %v", body, err)
			}
		}
	}
}

// TestLinkFaultsOverride: per-link faults override the fabric default and
// stay confined to their directed link.
func TestLinkFaultsOverride(t *testing.T) {
	net := NewVirtual(time.Microsecond)
	net.Seed(5)
	echo := rpc.HandlerFunc(func(_ context.Context, req rpc.Request) ([]byte, error) {
		return req.Body, nil
	})
	a := net.Node("a", echo)
	net.Node("b", echo)
	net.Node("c", echo)
	net.SetLinkFaults("a", "b", Faults{Loss: 1})

	for i := 0; i < 10; i++ {
		if _, err := a.Call(context.Background(), "b", "m", nil); !errors.Is(err, ErrTimeout) {
			t.Fatalf("a->b with Loss=1: %v", err)
		}
		if _, err := a.Call(context.Background(), "c", "m", nil); err != nil {
			t.Fatalf("a->c must stay fault-free: %v", err)
		}
	}
	if got := net.FaultStats().LostRequests(); got != 10 {
		t.Errorf("LostRequests() = %d, want 10", got)
	}
}

// TestRetryOverFaultyFabric wires rpc.WithRetry over a lossy link: with
// enough attempts every call eventually lands, exercising the
// fabric-and-retry stack the chaos tests build on.
func TestRetryOverFaultyFabric(t *testing.T) {
	_, a, h := faultFabric(t, 11, Faults{Loss: 0.4})
	c := rpc.WithRetry(a, rpc.RetryPolicy{
		MaxAttempts: 25,
		BaseDelay:   time.Microsecond,
		MaxDelay:    10 * time.Microsecond,
		Classify:    func(err error) bool { return errors.Is(err, ErrTimeout) },
	})
	for i := 0; i < 50; i++ {
		resp, err := c.Call(context.Background(), "b", "m", []byte("x"))
		if err != nil || string(resp) != "x" {
			t.Fatalf("call %d: %v %q", i, err, resp)
		}
	}
	if h.runs.Load() <= 50 {
		t.Error("no retries happened at 40% loss — fault injection inert?")
	}
}
