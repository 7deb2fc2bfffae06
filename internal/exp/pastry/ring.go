package pastry

import (
	"fmt"
	"sort"
	"sync"

	"orchestra/internal/rpc"
	"orchestra/internal/simnet"
)

// Ring manages overlay membership and builds each node's routing state from
// the full membership (see the package comment for why membership is
// centrally managed in this reproduction).
type Ring struct {
	net *simnet.Network

	mu     sync.RWMutex
	byAddr map[string]*Node
	sorted []*Node // by ID
}

// NewRing returns an empty overlay on the fabric.
func NewRing(net *simnet.Network) *Ring {
	return &Ring{net: net, byAddr: make(map[string]*Node)}
}

// Join adds a node at addr with the application handler and rebuilds
// routing state. It returns the node.
func (r *Ring) Join(addr string, app rpc.Handler) (*Node, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byAddr[addr]; dup {
		return nil, fmt.Errorf("dht: node %s already joined", addr)
	}
	n := newNode(r.net, addr, app)
	r.byAddr[addr] = n
	r.sorted = append(r.sorted, n)
	sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i].id.Less(r.sorted[j].id) })
	r.rebuildLocked()
	return n, nil
}

// Leave removes a node and rebuilds routing state.
func (r *Ring) Leave(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.byAddr[addr]
	if !ok {
		return
	}
	delete(r.byAddr, addr)
	for i, c := range r.sorted {
		if c == n {
			r.sorted = append(r.sorted[:i], r.sorted[i+1:]...)
			break
		}
	}
	r.net.Remove(addr)
	r.rebuildLocked()
}

// Len returns the membership size.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sorted)
}

// Node returns the member at addr.
func (r *Ring) Node(addr string) (*Node, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.byAddr[addr]
	return n, ok
}

// Nodes returns the members sorted by ID.
func (r *Ring) Nodes() []*Node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Node, len(r.sorted))
	copy(out, r.sorted)
	return out
}

// Owner returns the authoritative owner (successor) of a key; the reference
// against which routing is verified.
func (r *Ring) Owner(key ID) *Node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.sorted) == 0 {
		return nil
	}
	i := sort.Search(len(r.sorted), func(i int) bool { return !r.sorted[i].id.Less(key) })
	if i == len(r.sorted) {
		i = 0 // wrap: successor of the largest key is the smallest node
	}
	return r.sorted[i]
}

// OwnerOfString is Owner for a string key.
func (r *Ring) OwnerOfString(key string) *Node { return r.Owner(Key(key)) }

// rebuildLocked recomputes every node's leaf set and routing table.
func (r *Ring) rebuildLocked() {
	n := len(r.sorted)
	if n == 0 {
		return
	}
	for i, node := range r.sorted {
		// Leaf set: LeafSetSize neighbours on each side (the whole ring if
		// small), excluding self.
		var leaf []Entry
		if n-1 <= 2*LeafSetSize {
			for j, other := range r.sorted {
				if j != i {
					leaf = append(leaf, Entry{ID: other.id, Addr: other.addr})
				}
			}
		} else {
			for d := 1; d <= LeafSetSize; d++ {
				pred := r.sorted[((i-d)%n+n)%n]
				succ := r.sorted[(i+d)%n]
				leaf = append(leaf, Entry{ID: pred.id, Addr: pred.addr}, Entry{ID: succ.id, Addr: succ.addr})
			}
		}
		// Routing table: for each (shared prefix length, digit) cell, the
		// member with that prefix relationship nearest the slot's ideal,
		// preferring the closest by ring distance from the node.
		var table [IDDigits][16]*Entry
		for _, other := range r.sorted {
			if other == node {
				continue
			}
			p := SharedPrefix(node.id, other.id)
			if p >= IDDigits {
				continue
			}
			d := other.id.Digit(p)
			cur := table[p][d]
			if cur == nil || distance(node.id, other.id).Less(distance(node.id, cur.ID)) {
				table[p][d] = &Entry{ID: other.id, Addr: other.addr}
			}
		}
		node.setState(leaf, table)
	}
}
