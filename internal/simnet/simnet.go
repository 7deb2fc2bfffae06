// Package simnet is an in-process request/response network fabric with
// configurable per-message latency, fault injection, and message/byte
// accounting. It implements rpc.Caller, so code written for the TCP
// transport runs over it unchanged.
//
// The paper's distributed-store experiments run "with a delay of at least
// 500 microseconds added to every message (and reply) transmission" (§6);
// simnet reproduces exactly that cost model while keeping experiments
// deterministic and single-process.
//
// # Fault injection
//
// Beyond the base latency, the fabric can inject seeded-deterministic
// faults per link (SetFaults for a fabric-wide default, SetLinkFaults per
// directed link): message loss — applied independently to requests and
// replies, so a lost reply leaves a handler's side effect committed while
// the caller sees a timeout — duplicate delivery, latency jitter, one-way
// partitions (PartitionOneWay), and whole-node crash/restart (Crash,
// Restart). All randomness derives from the fabric seed and the link's
// endpoints, so a seeded run replays the same fault schedule per link.
// FaultStats counts every injected fault.
package simnet

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/rpc"
)

// DefaultLatency matches the paper's per-message delay.
const DefaultLatency = 500 * time.Microsecond

// ErrUnreachable is returned for calls to unknown, partitioned, or crashed
// nodes, ErrTimeout when an injected fault swallowed the request or its
// reply. They are the rpc package's sentinels (see there for what a caller
// may retry), so errors.Is matches under either name.
var (
	ErrUnreachable = rpc.ErrUnreachable
	ErrTimeout     = rpc.ErrTimeout
)

// Stats counts traffic on the fabric.
type Stats struct {
	messages atomic.Int64 // each request and each reply is one message
	bytes    atomic.Int64
}

// Messages returns the number of messages sent (requests + replies).
func (s *Stats) Messages() int64 { return s.messages.Load() }

// Bytes returns the total payload bytes carried.
func (s *Stats) Bytes() int64 { return s.bytes.Load() }

// Reset zeroes the counters.
func (s *Stats) Reset() {
	s.messages.Store(0)
	s.bytes.Store(0)
}

// Faults configures probabilistic fault injection. The zero value injects
// nothing.
type Faults struct {
	// Loss is the per-message drop probability, applied independently to
	// the request and the reply of each call. A dropped request never
	// reaches the handler; a dropped reply discards the response of a
	// handler that did run — the case that makes blind retry unsafe.
	Loss float64
	// Dup is the per-call duplicate-delivery probability: the handler runs
	// a second time with the same request and the caller sees only the
	// first response.
	Dup float64
	// Jitter adds a uniformly distributed extra latency in [0, Jitter] to
	// each message on top of the fabric's base latency.
	Jitter time.Duration
}

// active reports whether any fault is configured.
func (f Faults) active() bool { return f.Loss > 0 || f.Dup > 0 || f.Jitter > 0 }

// FaultStats counts injected faults; all methods are concurrency-safe.
type FaultStats struct {
	lostRequests   atomic.Int64
	lostReplies    atomic.Int64
	duplicates     atomic.Int64
	jitterNanos    atomic.Int64
	crashDrops     atomic.Int64
	partitionDrops atomic.Int64
}

// LostRequests returns the number of requests dropped before delivery.
func (f *FaultStats) LostRequests() int64 { return f.lostRequests.Load() }

// LostReplies returns the number of replies dropped after the handler ran.
func (f *FaultStats) LostReplies() int64 { return f.lostReplies.Load() }

// Duplicates returns the number of duplicate deliveries performed.
func (f *FaultStats) Duplicates() int64 { return f.duplicates.Load() }

// Jitter returns the total extra latency injected.
func (f *FaultStats) Jitter() time.Duration { return time.Duration(f.jitterNanos.Load()) }

// CrashDrops returns the number of calls refused because an endpoint was
// crashed, and of replies dropped because the target crashed while the
// handler ran.
func (f *FaultStats) CrashDrops() int64 { return f.crashDrops.Load() }

// PartitionDrops returns the number of calls refused by a (one- or two-way)
// partition.
func (f *FaultStats) PartitionDrops() int64 { return f.partitionDrops.Load() }

// Lost returns the total messages dropped (requests + replies).
func (f *FaultStats) Lost() int64 { return f.lostRequests.Load() + f.lostReplies.Load() }

// linkKey identifies a directed link.
type linkKey struct{ from, to string }

// Network is the fabric: a set of registered nodes plus the latency and
// fault models.
type Network struct {
	mu          sync.RWMutex
	latency     time.Duration
	nodes       map[string]*Node
	partitioned map[string]bool
	oneway      map[linkKey]bool
	crashed     map[string]bool
	stats       Stats
	// sleeper is replaceable for tests that must not consume wall-clock
	// time; it also lets the experiment harness charge latency virtually.
	sleeper func(time.Duration)
	// virtual accumulates charged latency when sleeping is disabled.
	virtual atomic.Int64
	// procCost is charged once per delivered request, modelling the
	// receiving node's per-request processing cost (deserialization,
	// dispatch, storage work) on testbeds where it is not negligible.
	procCost atomic.Int64

	// faultMu guards the fault policy and the per-link generators; every
	// call's fault plan is drawn in one critical section, so per-link draw
	// sequences are deterministic for a given seed and call order.
	faultMu       sync.Mutex
	seed          int64
	defaultFaults Faults
	linkFaults    map[linkKey]Faults
	linkRngs      map[linkKey]*rand.Rand
	fstats        FaultStats
}

// New returns a fabric with the given per-message latency (DefaultLatency
// if zero).
func New(latency time.Duration) *Network {
	if latency <= 0 {
		latency = DefaultLatency
	}
	return &Network{
		latency:     latency,
		nodes:       make(map[string]*Node),
		partitioned: make(map[string]bool),
		oneway:      make(map[linkKey]bool),
		crashed:     make(map[string]bool),
		sleeper:     time.Sleep,
		linkFaults:  make(map[linkKey]Faults),
		linkRngs:    make(map[linkKey]*rand.Rand),
	}
}

// NewVirtual returns a fabric that charges latency to a virtual clock
// instead of sleeping: experiments read the accumulated VirtualLatency and
// report it as network time without slowing the run down.
func NewVirtual(latency time.Duration) *Network {
	n := New(latency)
	n.sleeper = nil
	return n
}

// Latency returns the per-message latency.
func (n *Network) Latency() time.Duration { return n.latency }

// Stats returns the fabric's counters.
func (n *Network) Stats() *Stats { return &n.stats }

// FaultStats returns the fabric's fault counters.
func (n *Network) FaultStats() *FaultStats { return &n.fstats }

// VirtualLatency returns the total latency charged on a virtual fabric.
func (n *Network) VirtualLatency() time.Duration {
	return time.Duration(n.virtual.Load())
}

// SetProcessingCost sets the per-delivered-request processing charge.
func (n *Network) SetProcessingCost(d time.Duration) {
	n.procCost.Store(int64(d))
}

// Seed fixes the fault-randomness seed and resets every link's generator;
// a seeded fabric replays the same per-link fault schedule for the same
// call order.
func (n *Network) Seed(seed int64) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	n.seed = seed
	n.linkRngs = make(map[linkKey]*rand.Rand)
}

// SetFaults sets the fabric-wide default fault policy (overridden per link
// by SetLinkFaults).
func (n *Network) SetFaults(f Faults) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	n.defaultFaults = f
}

// SetLinkFaults sets the fault policy of the directed link from → to,
// overriding the fabric-wide default.
func (n *Network) SetLinkFaults(from, to string, f Faults) {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	n.linkFaults[linkKey{from, to}] = f
}

// Node registers (or replaces) a node at the address with the handler and
// returns it.
func (n *Network) Node(addr string, h rpc.Handler) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	node := &Node{net: n, addr: addr}
	node.handler.Store(&h)
	n.nodes[addr] = node
	return node
}

// Remove unregisters a node.
func (n *Network) Remove(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, addr)
}

// Partition isolates an address: calls to or from it fail.
func (n *Network) Partition(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[addr] = true
}

// Heal reconnects a partitioned address.
func (n *Network) Heal(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, addr)
}

// PartitionOneWay blocks the directed link from → to only; traffic in the
// opposite direction still flows.
func (n *Network) PartitionOneWay(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.oneway[linkKey{from, to}] = true
}

// HealOneWay unblocks the directed link from → to.
func (n *Network) HealOneWay(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.oneway, linkKey{from, to})
}

// Crash marks the node at addr as down: calls to or from it fail with
// ErrUnreachable until Restart. Unlike Remove, the node stays registered,
// modelling a process crash rather than a departure. A crashed process
// sends no reply: a call whose handler is running at the node when it
// crashes fails too, once the handler returns, even if the node has
// restarted by then.
func (n *Network) Crash(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[addr] = true
	if nd := n.nodes[addr]; nd != nil {
		nd.crashes.Add(1)
	}
}

// Restart brings a crashed node back.
func (n *Network) Restart(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, addr)
}

// lookup returns the target node and its crash generation, honouring
// crashes and partitions.
func (n *Network) lookup(from, to string) (*Node, uint64, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.crashed[from] || n.crashed[to] {
		n.fstats.crashDrops.Add(1)
		return nil, 0, fmt.Errorf("%w: %s -> %s (node crashed)", ErrUnreachable, from, to)
	}
	if n.partitioned[from] || n.partitioned[to] {
		n.fstats.partitionDrops.Add(1)
		return nil, 0, fmt.Errorf("%w: %s -> %s (partitioned)", ErrUnreachable, from, to)
	}
	if n.oneway[linkKey{from, to}] {
		n.fstats.partitionDrops.Add(1)
		return nil, 0, fmt.Errorf("%w: %s -> %s (one-way partition)", ErrUnreachable, from, to)
	}
	node, ok := n.nodes[to]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	return node, node.crashes.Load(), nil
}

// faultPlan is the complete set of fault decisions for one call, drawn up
// front in a single critical section so per-link randomness stays
// deterministic however the call interleaves with handler execution.
type faultPlan struct {
	reqDelay   time.Duration
	replyDelay time.Duration
	dropReq    bool
	dropReply  bool
	dup        bool
}

// plan draws the fault plan for one call on the directed link from → to.
func (n *Network) plan(from, to string) faultPlan {
	n.faultMu.Lock()
	defer n.faultMu.Unlock()
	f, ok := n.linkFaults[linkKey{from, to}]
	if !ok {
		f = n.defaultFaults
	}
	if !f.active() {
		return faultPlan{}
	}
	k := linkKey{from, to}
	rng := n.linkRngs[k]
	if rng == nil {
		h := fnv.New64a()
		h.Write([]byte(from))
		h.Write([]byte{0})
		h.Write([]byte(to))
		rng = rand.New(rand.NewSource(n.seed ^ int64(h.Sum64())))
		n.linkRngs[k] = rng
	}
	var p faultPlan
	if f.Jitter > 0 {
		p.reqDelay = time.Duration(rng.Int63n(int64(f.Jitter) + 1))
		p.replyDelay = time.Duration(rng.Int63n(int64(f.Jitter) + 1))
	}
	if f.Loss > 0 {
		p.dropReq = rng.Float64() < f.Loss
		p.dropReply = rng.Float64() < f.Loss
	}
	if f.Dup > 0 {
		p.dup = rng.Float64() < f.Dup
	}
	return p
}

// charge accounts one message of the given size and applies latency.
func (n *Network) charge(size int) {
	n.stats.messages.Add(1)
	n.stats.bytes.Add(int64(size))
	n.delay(n.latency)
}

// delay sleeps (or charges virtually) the given duration.
func (n *Network) delay(d time.Duration) {
	if d <= 0 {
		return
	}
	if n.sleeper != nil {
		n.sleeper(d)
	} else {
		n.virtual.Add(int64(d))
	}
}

// jitter charges injected extra latency and counts it.
func (n *Network) jitter(d time.Duration) {
	if d <= 0 {
		return
	}
	n.fstats.jitterNanos.Add(int64(d))
	n.delay(d)
}

// Node is one endpoint on the fabric.
type Node struct {
	net     *Network
	addr    string
	handler atomic.Pointer[rpc.Handler]
	// crashes counts the node's crashes (Network.Crash, under the
	// network's lock), so a call can tell that its handler outlived one.
	crashes atomic.Uint64
}

// Addr returns the node's address.
func (nd *Node) Addr() string { return nd.addr }

// Handle replaces the node's handler.
func (nd *Node) Handle(h rpc.Handler) { nd.handler.Store(&h) }

// Call implements rpc.Caller: it charges a request message, invokes the
// target handler, and charges the reply message — subject to the link's
// fault plan. A lost request returns ErrTimeout without running the
// handler; a lost reply returns ErrTimeout after the handler ran (its side
// effects stand); a duplicated call runs the handler twice and returns the
// first response. A call whose target crashes while the handler runs (and
// perhaps restarts) fails with ErrUnreachable: the reply died with the
// process, and the handler's side effects stand.
func (nd *Node) Call(ctx context.Context, to, method string, body []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	target, gen, err := nd.net.lookup(nd.addr, to)
	if err != nil {
		return nil, err
	}
	p := nd.net.plan(nd.addr, to)
	nd.net.charge(len(body) + len(method))
	nd.net.jitter(p.reqDelay)
	if p.dropReq {
		nd.net.fstats.lostRequests.Add(1)
		return nil, fmt.Errorf("%w: request %s -> %s %s", ErrTimeout, nd.addr, to, method)
	}
	h := target.handler.Load()
	if h == nil {
		return nil, fmt.Errorf("%w: %s has no handler", ErrUnreachable, to)
	}
	if pc := nd.net.procCost.Load(); pc > 0 {
		nd.net.delay(time.Duration(pc))
	}
	req := rpc.Request{From: nd.addr, Method: method, Body: body}
	resp, herr := (*h).ServeRPC(ctx, req)
	if p.dup {
		// Duplicate delivery: the same request reaches the handler again;
		// whatever it returns is discarded. Idempotency-keyed backends
		// dedupe it, anything else sees a true duplicate.
		nd.net.fstats.duplicates.Add(1)
		_, _ = (*h).ServeRPC(ctx, req)
	}
	if target.crashes.Load() != gen {
		nd.net.fstats.crashDrops.Add(1)
		return nil, fmt.Errorf("%w: %s crashed during %s from %s", ErrUnreachable, to, method, nd.addr)
	}
	nd.net.charge(len(resp))
	nd.net.jitter(p.replyDelay)
	if p.dropReply {
		nd.net.fstats.lostReplies.Add(1)
		return nil, fmt.Errorf("%w: reply %s -> %s %s", ErrTimeout, to, nd.addr, method)
	}
	if herr != nil {
		return nil, herr
	}
	return resp, nil
}
