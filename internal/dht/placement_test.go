package dht

import (
	"fmt"
	"testing"
)

func groupIDs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("group-%04d", i)
	}
	return out
}

// Placement must be a pure function of the membership set: insertion order
// cannot matter, and re-running the mapping gives the same answer.
func TestPlacementDeterministic(t *testing.T) {
	groups := groupIDs(500)
	a := NewPlacement(0)
	b := NewPlacement(0)
	for _, m := range []string{"s0", "s1", "s2", "s3"} {
		if err := a.AddMember(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []string{"s3", "s1", "s0", "s2"} { // different order
		if err := b.AddMember(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range groups {
		if am, bm := a.Place(g), b.Place(g); am != bm {
			t.Fatalf("placement depends on insertion order: %s → %s vs %s", g, am, bm)
		}
		if first, again := a.Place(g), a.Place(g); first != again {
			t.Fatalf("placement not stable: %s → %s then %s", g, first, again)
		}
	}
	if err := a.AddMember("s0"); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if err := a.RemoveMember("ghost"); err == nil {
		t.Fatal("removing unknown member accepted")
	}
}

// Every member must own a reasonable share of groups (virtual nodes smooth
// the split), and all groups must land on actual members.
func TestPlacementDistribution(t *testing.T) {
	groups := groupIDs(2000)
	p := NewPlacement(0)
	members := []string{"s0", "s1", "s2", "s3", "s4"}
	for _, m := range members {
		if err := p.AddMember(m); err != nil {
			t.Fatal(err)
		}
	}
	counts := make(map[string]int)
	for _, g := range groups {
		counts[p.Place(g)]++
	}
	mean := len(groups) / len(members)
	for _, m := range members {
		if counts[m] == 0 {
			t.Fatalf("member %s owns no groups", m)
		}
		if counts[m] > 3*mean {
			t.Fatalf("member %s owns %d of %d groups (mean %d): distribution too skewed", m, counts[m], len(groups), mean)
		}
	}
}

// Consistent hashing's defining property: growing the fleet only moves
// groups onto the new member (nothing shuffles between survivors), and
// shrinking only moves the removed member's groups.
func TestPlacementMinimalMovement(t *testing.T) {
	groups := groupIDs(2000)
	p := NewPlacement(0)
	for _, m := range []string{"s0", "s1", "s2", "s3"} {
		if err := p.AddMember(m); err != nil {
			t.Fatal(err)
		}
	}
	before := make(map[string]string, len(groups))
	for _, g := range groups {
		before[g] = p.Place(g)
	}

	// Grow: every moved group must have moved TO the new member.
	if err := p.AddMember("s4"); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, g := range groups {
		after := p.Place(g)
		if after != before[g] {
			moved++
			if after != "s4" {
				t.Fatalf("grow moved %s from %s to %s (not the new member)", g, before[g], after)
			}
		}
	}
	if moved == 0 {
		t.Fatal("grow moved nothing: new member owns no groups")
	}
	if moved > len(groups)/2 {
		t.Fatalf("grow moved %d of %d groups: far more than the 1/5 share", moved, len(groups))
	}

	// Shrink back: only s4's groups move, and the mapping returns exactly
	// to the 4-member assignment.
	if err := p.RemoveMember("s4"); err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if got := p.Place(g); got != before[g] {
			t.Fatalf("shrink did not restore %s: %s, want %s", g, got, before[g])
		}
	}
}

// Place is a function of (membership, group id) that durable fleets depend
// on across binaries: a fleet reopened by a newer build must find every
// group on the node whose directory holds its rows. The owners below were
// computed at 75c0f66, before the Pastry overlay left this package.
func TestPlacementPinned(t *testing.T) {
	p := NewPlacement(0)
	for _, m := range []string{"store-a", "store-b", "store-c"} {
		if err := p.AddMember(m); err != nil {
			t.Fatal(err)
		}
	}
	for group, want := range map[string]string{
		"g0":        "store-c",
		"lab-7":     "store-a",
		"swissprot": "store-a",
		"tenant/42": "store-b",
		"g13":       "store-b",
	} {
		if got := p.Place(group); got != want {
			t.Errorf("Place(%q) = %s, want %s", group, got, want)
		}
	}
}
