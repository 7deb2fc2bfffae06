package pastry

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"orchestra/internal/rpc"
	"orchestra/internal/simnet"
)

// kvApp is a toy keyed store used to exercise routing: each node stores the
// entries it owns.
type kvApp struct {
	mu   sync.Mutex
	addr string
	data map[string]string
}

func newKVApp(addr string) *kvApp { return &kvApp{addr: addr, data: make(map[string]string)} }

type kvArgs struct{ K, V string }

func (a *kvApp) ServeRPC(_ context.Context, req rpc.Request) ([]byte, error) {
	var args kvArgs
	if err := Decode(req.Body, &args); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	switch req.Method {
	case "kv.put":
		a.data[args.K] = args.V
		return Encode(a.addr)
	case "kv.get":
		return Encode(a.data[args.K])
	default:
		return nil, fmt.Errorf("kv: unknown method %s", req.Method)
	}
}

func buildRing(t *testing.T, n int) (*Ring, []*kvApp) {
	t.Helper()
	net := simnet.NewVirtual(simnet.DefaultLatency)
	ring := NewRing(net)
	apps := make([]*kvApp, n)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("peer%02d", i)
		apps[i] = newKVApp(addr)
		if _, err := ring.Join(addr, apps[i]); err != nil {
			t.Fatal(err)
		}
	}
	return ring, apps
}

func TestIDBasics(t *testing.T) {
	a, b := Key("alpha"), Key("beta")
	if a == b {
		t.Fatal("distinct keys hash equal")
	}
	if a.Less(b) == b.Less(a) {
		t.Error("Less must order distinct IDs")
	}
	if a.String() == "" || len(a.String()) != 40 {
		t.Errorf("String = %q", a.String())
	}
	// Digit coverage.
	var id ID
	id[0] = 0xAB
	if id.Digit(0) != 0xA || id.Digit(1) != 0xB {
		t.Errorf("digits = %x %x", id.Digit(0), id.Digit(1))
	}
	if SharedPrefix(a, a) != IDDigits {
		t.Error("SharedPrefix with self")
	}
	if p := SharedPrefix(a, b); p < 0 || p >= IDDigits {
		t.Errorf("SharedPrefix = %d", p)
	}
}

func TestDistance(t *testing.T) {
	var zero, one, max ID
	one[IDBytes-1] = 1
	for i := range max {
		max[i] = 0xff
	}
	if d := distance(zero, one); d != one {
		t.Errorf("distance(0,1) = %s", d)
	}
	// Wrap: distance from 1 to 0 is 2^160-1.
	if d := distance(one, zero); d != max {
		t.Errorf("distance(1,0) = %s", d)
	}
	if d := distance(one, one); d != zero {
		t.Errorf("distance(x,x) = %s", d)
	}
}

func TestOwnerSuccessorRule(t *testing.T) {
	ring, _ := buildRing(t, 16)
	nodes := ring.Nodes()
	for i := 1; i < len(nodes); i++ {
		if !nodes[i-1].ID().Less(nodes[i].ID()) {
			t.Fatal("nodes not sorted")
		}
	}
	// Brute-force check against the definition for many keys.
	for i := 0; i < 200; i++ {
		key := Key(fmt.Sprintf("key-%d", i))
		owner := ring.Owner(key)
		var best *Node
		bestD := ID{}
		for _, n := range nodes {
			d := distance(key, n.ID())
			if best == nil || d.Less(bestD) {
				best, bestD = n, d
			}
		}
		if owner != best {
			t.Fatalf("key %d: Owner=%s brute=%s", i, owner.Addr(), best.Addr())
		}
	}
}

func TestRoutingReachesOwner(t *testing.T) {
	ring, _ := buildRing(t, 32)
	nodes := ring.Nodes()
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		start := nodes[i%len(nodes)]
		got, err := start.RouteString(ctx, key, "kv.put", MustEncode(kvArgs{K: key, V: "v"}))
		if err != nil {
			t.Fatalf("route %s: %v", key, err)
		}
		var deliveredAt string
		if err := Decode(got, &deliveredAt); err != nil {
			t.Fatal(err)
		}
		if want := ring.OwnerOfString(key).Addr(); deliveredAt != want {
			t.Fatalf("key %s delivered at %s, owner %s", key, deliveredAt, want)
		}
	}
}

func TestPutGetAcrossRing(t *testing.T) {
	ring, _ := buildRing(t, 20)
	nodes := ring.Nodes()
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)
		if _, err := nodes[i%20].RouteString(ctx, k, "kv.put", MustEncode(kvArgs{K: k, V: v})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		k, want := fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i)
		resp, err := nodes[(i+7)%20].RouteString(ctx, k, "kv.get", MustEncode(kvArgs{K: k}))
		if err != nil {
			t.Fatal(err)
		}
		var got string
		Decode(resp, &got)
		if got != want {
			t.Fatalf("get %s = %q, want %q", k, got, want)
		}
	}
}

func TestHopCountsReasonable(t *testing.T) {
	ring, _ := buildRing(t, 50)
	nodes := ring.Nodes()
	ctx := context.Background()
	var totalForwards int64
	const msgs = 200
	for i := 0; i < msgs; i++ {
		k := fmt.Sprintf("hops-%d", i)
		if _, err := nodes[i%50].RouteString(ctx, k, "kv.put", MustEncode(kvArgs{K: k, V: ""})); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		totalForwards += n.Forwarded()
	}
	avg := float64(totalForwards) / msgs
	// With 50 nodes, leaf sets of 16 and a prefix table, greedy routing
	// should average well under 3 forwards.
	if avg > 3 {
		t.Errorf("average forwards per message = %.2f", avg)
	}
	var delivered int64
	for _, n := range nodes {
		delivered += n.Delivered()
	}
	if delivered != msgs {
		t.Errorf("delivered = %d, want %d", delivered, msgs)
	}
}

func TestSingleNodeRingOwnsEverything(t *testing.T) {
	ring, apps := buildRing(t, 1)
	node := ring.Nodes()[0]
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("solo-%d", i)
		if _, err := node.RouteString(ctx, k, "kv.put", MustEncode(kvArgs{K: k, V: "v"})); err != nil {
			t.Fatal(err)
		}
	}
	if len(apps[0].data) != 10 {
		t.Errorf("solo node stored %d keys", len(apps[0].data))
	}
	if node.Forwarded() != 0 {
		t.Errorf("solo node forwarded %d", node.Forwarded())
	}
}

func TestJoinErrorsAndLeave(t *testing.T) {
	ring, _ := buildRing(t, 4)
	if _, err := ring.Join("peer00", newKVApp("peer00")); err == nil {
		t.Error("duplicate join accepted")
	}
	if ring.Len() != 4 {
		t.Errorf("Len = %d", ring.Len())
	}
	if _, ok := ring.Node("peer01"); !ok {
		t.Error("Node lookup failed")
	}
	ring.Leave("peer01")
	if ring.Len() != 3 {
		t.Errorf("Len after leave = %d", ring.Len())
	}
	if _, ok := ring.Node("peer01"); ok {
		t.Error("left node still present")
	}
	ring.Leave("ghost") // no-op
	// Routing still works after a departure.
	nodes := ring.Nodes()
	if _, err := nodes[0].RouteString(context.Background(), "post-leave", "kv.put",
		MustEncode(kvArgs{K: "post-leave", V: "v"})); err != nil {
		t.Errorf("route after leave: %v", err)
	}
}

func TestDirectCall(t *testing.T) {
	ring, _ := buildRing(t, 5)
	nodes := ring.Nodes()
	resp, err := nodes[0].Call(context.Background(), nodes[3].Addr(), "kv.put",
		MustEncode(kvArgs{K: "direct", V: "v"}))
	if err != nil {
		t.Fatal(err)
	}
	var at string
	Decode(resp, &at)
	if at != nodes[3].Addr() {
		t.Errorf("direct call delivered at %s", at)
	}
}

func TestEmptyRingOwner(t *testing.T) {
	ring := NewRing(simnet.NewVirtual(0))
	if ring.Owner(Key("x")) != nil {
		t.Error("empty ring should have no owner")
	}
}
