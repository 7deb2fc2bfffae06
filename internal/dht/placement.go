package dht

import (
	"fmt"
	"sort"
)

// A Placement maps group identifiers to fleet members (store nodes). It
// uses the Pastry overlay's ownership rule — a key belongs to its successor
// on the 160-bit identifier circle — and adds virtual nodes so small fleets
// still spread load evenly.
//
// Determinism is the contract: the same member set always produces the
// same group → member mapping, regardless of the order members were added,
// so every process that knows the membership agrees on placement without
// coordination. Minimal movement is the consistent-hash guarantee: adding
// a member only claims keys from its ring neighbours, removing one only
// reassigns the keys it owned.

// DefaultVirtualNodes is the number of ring points each member projects.
// More points smooth the load distribution at the cost of a larger sorted
// ring; 64 keeps the worst member within a small factor of the mean for
// fleets of a few to a few hundred stores.
const DefaultVirtualNodes = 64

// Placement is a consistent-hash map from group IDs to member names. It is
// not safe for concurrent mutation; guard it with the fleet's lock.
type Placement struct {
	vnodes  int
	members map[string]bool
	// points is the sorted ring: every member's virtual-node IDs.
	points []placePoint
}

type placePoint struct {
	id     ID
	member string
}

// NewPlacement returns an empty placement ring. vnodes <= 0 uses
// DefaultVirtualNodes.
func NewPlacement(vnodes int) *Placement {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Placement{vnodes: vnodes, members: make(map[string]bool)}
}

// AddMember projects the member's virtual nodes onto the ring. Adding an
// existing member is an error — membership changes must be explicit, since
// each one triggers a rebalance.
func (p *Placement) AddMember(name string) error {
	if name == "" {
		return fmt.Errorf("dht: empty placement member name")
	}
	if p.members[name] {
		return fmt.Errorf("dht: placement member %s already present", name)
	}
	p.members[name] = true
	for v := 0; v < p.vnodes; v++ {
		p.points = append(p.points, placePoint{
			id:     Key(fmt.Sprintf("placement:%s#%d", name, v)),
			member: name,
		})
	}
	p.sortPoints()
	return nil
}

// RemoveMember withdraws the member's virtual nodes; its keys fall to their
// ring successors.
func (p *Placement) RemoveMember(name string) error {
	if !p.members[name] {
		return fmt.Errorf("dht: placement member %s not present", name)
	}
	delete(p.members, name)
	kept := p.points[:0]
	for _, pt := range p.points {
		if pt.member != name {
			kept = append(kept, pt)
		}
	}
	p.points = kept
	return nil
}

// sortPoints restores ring order; ties (two members hashing to one point,
// astronomically unlikely) break by member name so the mapping stays
// deterministic regardless of insertion order.
func (p *Placement) sortPoints() {
	sort.Slice(p.points, func(i, j int) bool {
		if p.points[i].id != p.points[j].id {
			return p.points[i].id.Less(p.points[j].id)
		}
		return p.points[i].member < p.points[j].member
	})
}

// Members returns the current membership, sorted.
func (p *Placement) Members() []string {
	out := make([]string, 0, len(p.members))
	for m := range p.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Size returns the number of members.
func (p *Placement) Size() int { return len(p.members) }

// Place returns the member owning the group: the successor of the group's
// key on the ring (wrapping past the highest point to the lowest). It
// panics on an empty ring — a fleet always has at least one store.
func (p *Placement) Place(group string) string {
	if len(p.points) == 0 {
		panic("dht: placement ring has no members")
	}
	k := Key("group:" + group)
	i := sort.Search(len(p.points), func(i int) bool { return !p.points[i].id.Less(k) })
	if i == len(p.points) {
		i = 0
	}
	return p.points[i].member
}
