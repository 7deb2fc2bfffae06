package trust

import (
	"container/heap"
	"math"
	"sort"
	"sync"

	"orchestra/internal/core"
)

// Graph resolves trust delegations across a set of participants. Each
// member has its own trust (usually a textual *Policy, possibly carrying
// `delegate <peer> priority <n>` mappings); the graph computes every
// member's *effective* trust — its own rules plus, for every transitively
// reachable delegate, that delegate's direct rules capped at the
// bottleneck priority of the best delegation path (the priority-preserving
// transitive closure of Gatterbauer & Suciu: cap(B→D) is the maximum over
// paths of the minimum edge priority, so cycles are harmless — a cycle
// can never raise a cap). Effective policies are lowered to their plans
// at resolution time.
//
// Changing one member's trust (Set) re-resolves only the affected
// participants — those whose closure can reach the changed member —
// making a mid-stream mapping change O(affected), not O(members). The
// per-member recompile counters expose exactly that.
//
// A Graph is safe for concurrent use.
type Graph struct {
	mu         sync.RWMutex
	schema     *core.Schema
	members    map[core.PeerID]core.Trust
	resolved   map[core.PeerID]core.Trust
	recompiles map[core.PeerID]int
	total      int
}

// NewGraph returns an empty graph. The schema (may be nil) is bound to
// effective policies whose member policy has none, so attr('name') rules
// resolve.
func NewGraph(schema *core.Schema) *Graph {
	return &Graph{
		schema:     schema,
		members:    make(map[core.PeerID]core.Trust),
		resolved:   make(map[core.PeerID]core.Trust),
		recompiles: make(map[core.PeerID]int),
	}
}

// Set registers or replaces a member's trust and re-resolves every
// affected participant (the peers whose delegation closure contains the
// changed member, plus the member itself). It returns the affected set,
// sorted; each entry's effective trust was recompiled.
func (g *Graph) Set(peer core.PeerID, t core.Trust) []core.PeerID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members[peer] = t
	affected := g.affectedLocked(peer)
	for _, a := range affected {
		g.resolved[a] = g.resolveLocked(a)
		g.recompiles[a]++
		g.total++
	}
	return affected
}

// Remove drops a member and re-resolves the participants that delegated
// (transitively) to it.
func (g *Graph) Remove(peer core.PeerID) []core.PeerID {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.members[peer]; !ok {
		return nil
	}
	affected := g.affectedLocked(peer)
	delete(g.members, peer)
	delete(g.resolved, peer)
	out := affected[:0]
	for _, a := range affected {
		if a == peer {
			continue
		}
		g.resolved[a] = g.resolveLocked(a)
		g.recompiles[a]++
		g.total++
		out = append(out, a)
	}
	return out
}

// Effective returns the member's resolved, planned trust, or nil for an
// unknown member.
func (g *Graph) Effective(peer core.PeerID) core.Trust {
	g.mu.RLock()
	if t, ok := g.resolved[peer]; ok {
		g.mu.RUnlock()
		return t
	}
	g.mu.RUnlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	if t, ok := g.resolved[peer]; ok {
		return t
	}
	if _, ok := g.members[peer]; !ok {
		return nil
	}
	t := g.resolveLocked(peer)
	g.resolved[peer] = t
	g.recompiles[peer]++
	g.total++
	return t
}

// Members returns the member IDs, sorted.
func (g *Graph) Members() []core.PeerID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]core.PeerID, 0, len(g.members))
	for id := range g.members {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Closure returns the member's transitive delegation closure: for every
// reachable delegate, the bottleneck-maximal priority cap of the best
// path. The member itself is excluded (its own rules are uncapped).
func (g *Graph) Closure(peer core.PeerID) map[core.PeerID]int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	caps := g.closureLocked(peer)
	out := make(map[core.PeerID]int, len(caps))
	for k, v := range caps {
		out[k] = v
	}
	return out
}

// Recompiles returns how many times the member's effective trust has been
// resolved (including its initial registration).
func (g *Graph) Recompiles(peer core.PeerID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.recompiles[peer]
}

// TotalRecompiles returns the total number of effective-trust resolutions
// across all members.
func (g *Graph) TotalRecompiles() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.total
}

// affectedLocked returns the members whose effective trust depends on the
// given peer: reverse reachability over delegation edges, including the
// peer itself, sorted.
func (g *Graph) affectedLocked(changed core.PeerID) []core.PeerID {
	rev := make(map[core.PeerID][]core.PeerID)
	for id, t := range g.members {
		if pol, ok := t.(*Policy); ok {
			for _, d := range pol.delegs {
				rev[d.Peer] = append(rev[d.Peer], id)
			}
		}
	}
	seen := map[core.PeerID]bool{changed: true}
	queue := []core.PeerID{changed}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, src := range rev[n] {
			if !seen[src] {
				seen[src] = true
				queue = append(queue, src)
			}
		}
	}
	out := make([]core.PeerID, 0, len(seen))
	for id := range seen {
		if _, ok := g.members[id]; ok {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// capItem / capHeap implement the max-heap for the widest-path search,
// tie-breaking on peer ID for determinism.
type capItem struct {
	peer core.PeerID
	cap  int
}

type capHeap []capItem

func (h capHeap) Len() int { return len(h) }
func (h capHeap) Less(i, j int) bool {
	if h[i].cap != h[j].cap {
		return h[i].cap > h[j].cap
	}
	return h[i].peer < h[j].peer
}
func (h capHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *capHeap) Push(x any)      { *h = append(*h, x.(capItem)) }
func (h *capHeap) Pop() any        { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h *capHeap) push(it capItem) { heap.Push(h, it) }
func (h *capHeap) pop() capItem    { return heap.Pop(h).(capItem) }

// closureLocked runs the widest-path (maximum-bottleneck) search from one
// member over delegation edges: Dijkstra with a max-heap, where a path's
// width is the minimum delegation cap along it. Delegations to
// unregistered peers contribute nothing. Cycles are handled naturally —
// caps never increase along a path, so a node popped at its best width is
// final.
func (g *Graph) closureLocked(src core.PeerID) map[core.PeerID]int {
	pol, ok := g.members[src].(*Policy)
	if !ok || len(pol.delegs) == 0 {
		return nil
	}
	best := map[core.PeerID]int{src: math.MaxInt}
	h := &capHeap{{peer: src, cap: math.MaxInt}}
	for h.Len() > 0 {
		it := h.pop()
		if it.cap < best[it.peer] {
			continue // stale entry
		}
		p, ok := g.members[it.peer].(*Policy)
		if !ok {
			continue // non-textual members carry no delegations
		}
		for _, d := range p.delegs {
			if _, known := g.members[d.Peer]; !known {
				continue
			}
			w := d.Cap
			if it.cap < w {
				w = it.cap
			}
			if w > best[d.Peer] {
				best[d.Peer] = w
				h.push(capItem{peer: d.Peer, cap: w})
			}
		}
	}
	delete(best, src)
	return best
}

// resolveLocked builds and plans the member's effective trust: its own
// rules uncapped, each closure member's direct rules capped at the
// closure width, and non-textual closure members as dynamic sources. The
// merge order (own rules, then closure members sorted by ID) and the
// duplicate-rule suppression are deterministic, so resolution is
// reproducible bit-for-bit.
func (g *Graph) resolveLocked(peer core.PeerID) core.Trust {
	own := g.members[peer]
	pol, ok := own.(*Policy)
	if !ok {
		return own
	}
	caps := g.closureLocked(peer)
	if len(caps) == 0 {
		pol.planned() // plan at registration even without delegations
		return pol
	}
	eff := NewPolicy()
	eff.schema = pol.schema
	if eff.schema == nil {
		eff.schema = g.schema
	}
	eff.interpret = pol.interpret

	type ruleKey struct {
		prio int
		pred string
	}
	seen := make(map[ruleKey]bool)
	// bestPred tracks the highest priority a predicate appears at: a
	// lower-priority copy of the same predicate can never win the max
	// and is dropped.
	bestPred := make(map[string]int)
	addRule := func(prio int, r *Rule) {
		if prio <= 0 {
			return
		}
		k := ruleKey{prio: prio, pred: r.Predicate}
		if seen[k] || bestPred[r.Predicate] >= prio {
			return
		}
		seen[k] = true
		bestPred[r.Predicate] = prio
		eff.rules = append(eff.rules, Rule{Priority: prio, Predicate: r.Predicate, expr: r.expr})
	}
	for i := range pol.rules {
		addRule(pol.rules[i].Priority, &pol.rules[i])
	}
	order := make([]core.PeerID, 0, len(caps))
	for c := range caps {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, c := range order {
		w := caps[c]
		switch ct := g.members[c].(type) {
		case *Policy:
			for i := range ct.rules {
				prio := ct.rules[i].Priority
				if prio > w {
					prio = w
				}
				addRule(prio, &ct.rules[i])
			}
		case nil:
		default:
			eff.dyn = append(eff.dyn, dynSource{t: ct, cap: w})
		}
	}
	eff.planned() // plan at resolution, not first decision
	return eff
}
