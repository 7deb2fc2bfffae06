package pastry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"orchestra/internal/rpc"
	"orchestra/internal/simnet"
)

// LeafSetSize is the number of neighbours kept on each side of a node.
const LeafSetSize = 8

// routeMethod is the overlay's forwarding RPC method.
const routeMethod = "dht.route"

// maxHops bounds forwarding against routing-state bugs.
const maxHops = 128

// Entry identifies a remote node.
type Entry struct {
	ID   ID
	Addr string
}

// envelope is the routed message.
type envelope struct {
	Key    ID
	Method string
	Body   []byte
	Origin string
	Hops   int
}

// Node is one overlay participant. Its application handler is invoked for
// messages whose key it owns; other messages are forwarded greedily to the
// known node closest (by successor distance) to the key.
type Node struct {
	id   ID
	addr string
	sim  *simnet.Node
	app  rpc.Handler

	mu    sync.RWMutex
	leaf  []Entry // nearest neighbours on both sides, sorted by ID
	table [IDDigits][16]*Entry

	hopsForwarded atomic.Int64
	delivered     atomic.Int64
}

// newNode registers the node on the fabric.
func newNode(net *simnet.Network, addr string, app rpc.Handler) *Node {
	n := &Node{id: NodeID(addr), addr: addr, app: app}
	mux := rpc.NewMux()
	mux.Handle(routeMethod, n.handleRoute)
	n.sim = net.Node(addr, mux)
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() ID { return n.id }

// Addr returns the node's fabric address.
func (n *Node) Addr() string { return n.addr }

// Delivered returns how many messages this node delivered as owner.
func (n *Node) Delivered() int64 { return n.delivered.Load() }

// Forwarded returns how many messages this node forwarded.
func (n *Node) Forwarded() int64 { return n.hopsForwarded.Load() }

// setState installs the routing state computed by the Ring builder.
func (n *Node) setState(leaf []Entry, table [IDDigits][16]*Entry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.leaf = leaf
	n.table = table
}

// nextHop returns the known node closest to owning key, or nil if this node
// is the closest known (and therefore the owner, given exact leaf sets).
func (n *Node) nextHop(key ID) *Entry {
	n.mu.RLock()
	defer n.mu.RUnlock()
	best := (*Entry)(nil)
	bestDist := distance(key, n.id)
	consider := func(e *Entry) {
		if e == nil {
			return
		}
		d := distance(key, e.ID)
		if d.Less(bestDist) {
			best, bestDist = e, d
		}
	}
	for i := range n.leaf {
		consider(&n.leaf[i])
	}
	// Prefix-table entries provide the long hops; the row to inspect is
	// the one matching the shared prefix with the key, but considering all
	// rows is equally correct and the tables are small.
	row := SharedPrefix(n.id, key)
	if row < IDDigits {
		for c := 0; c < 16; c++ {
			consider(n.table[row][c])
		}
	}
	return best
}

// handleRoute is the overlay forwarding handler.
func (n *Node) handleRoute(ctx context.Context, req rpc.Request) ([]byte, error) {
	var env envelope
	if err := Decode(req.Body, &env); err != nil {
		return nil, err
	}
	return n.route(ctx, env)
}

// route delivers or forwards the envelope.
func (n *Node) route(ctx context.Context, env envelope) ([]byte, error) {
	if env.Hops > maxHops {
		return nil, fmt.Errorf("dht: routing loop for key %s", env.Key)
	}
	next := n.nextHop(env.Key)
	if next == nil {
		n.delivered.Add(1)
		return n.app.ServeRPC(ctx, rpc.Request{From: env.Origin, Method: env.Method, Body: env.Body})
	}
	n.hopsForwarded.Add(1)
	env.Hops++
	body, err := Encode(&env)
	if err != nil {
		return nil, err
	}
	return n.sim.Call(ctx, next.Addr, routeMethod, body)
}

// Route sends a message keyed by key to its owner, starting at this node,
// and returns the owner's application response.
func (n *Node) Route(ctx context.Context, key ID, method string, body []byte) ([]byte, error) {
	return n.route(ctx, envelope{Key: key, Method: method, Body: body, Origin: n.addr})
}

// RouteString is Route with a string key.
func (n *Node) RouteString(ctx context.Context, key, method string, body []byte) ([]byte, error) {
	return n.Route(ctx, Key(key), method, body)
}

// Call performs a direct (non-routed) call to another node's application
// handler — used when the caller already knows the responsible node, e.g.
// a transaction controller replying with antecedent locations.
func (n *Node) Call(ctx context.Context, to, method string, body []byte) ([]byte, error) {
	env := envelope{Key: NodeID(to), Method: method, Body: body, Origin: n.addr}
	b, err := Encode(&env)
	if err != nil {
		return nil, err
	}
	return n.sim.Call(ctx, to, routeMethod, b)
}
