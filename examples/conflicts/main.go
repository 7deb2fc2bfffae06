// Command conflicts walks through deferral and user-driven conflict
// resolution: two curators publish contradictory values for the same key, a
// third participant trusting both equally must defer; dirty-value
// protection then defers a later dependent update, and the user finally
// resolves the conflict group, which cascades to everything deferred
// behind it.
package main

import (
	"context"
	"fmt"
	"log"

	"orchestra"
)

func main() {
	ctx := context.Background()
	schema := orchestra.MustSchema(
		orchestra.NewRelation("F", 2, "organism", "protein", "function"))
	sys, err := orchestra.NewSystem(schema)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	alice, _ := sys.AddPeer("alice", orchestra.TrustAll(1))
	bob, _ := sys.AddPeer("bob", orchestra.TrustAll(1))
	carol, _ := sys.AddPeer("carol", orchestra.TrustAll(1))
	dave, _ := sys.AddPeer("dave", orchestra.TrustAll(1))

	// Alice and Bob disagree about rat/prot1.
	alice.Edit(orchestra.Insert("F", orchestra.Strs("rat", "prot1", "immune response"), "alice"))
	alice.PublishAndReconcile(ctx)
	bob.Edit(orchestra.Insert("F", orchestra.Strs("rat", "prot1", "cell metabolism"), "bob"))
	bob.PublishAndReconcile(ctx)

	// Carol trusts both equally: the conflict defers.
	res, err := carol.PublishAndReconcile(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("carol deferred %v\n", res.Deferred)
	for _, g := range carol.Engine().ConflictGroups() {
		fmt.Printf("conflict group: %v\n", g)
	}

	// Dave imports Bob's version and extends it; Carol must defer Dave's
	// dependent revision too (its key is dirty).
	dave.PublishAndReconcile(ctx) // dave also defers alice vs bob — pick bob's.
	gd := dave.Engine().ConflictGroups()[0]
	winner := optionOf(gd, "cell metabolism")
	if _, err := dave.Resolve(ctx, gd.Conflict, winner); err != nil {
		log.Fatal(err)
	}
	dave.Edit(orchestra.Modify("F",
		orchestra.Strs("rat", "prot1", "cell metabolism"),
		orchestra.Strs("rat", "prot1", "cell metabolism (curated)"), "dave"))
	dave.PublishAndReconcile(ctx)

	res, err = carol.PublishAndReconcile(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("carol's dirty-key deferral of dave's revision: deferred=%v\n", res.Deferred)

	// Carol's user resolves in favour of Dave's curated refinement: the
	// winning option carries its antecedent (Bob's insert), so accepting it
	// applies the whole chain, while Alice's version is rejected.
	gc := carol.Engine().ConflictGroups()[0]
	fmt.Printf("carol resolves: %v\n", gc)
	res, err = carol.Resolve(ctx, gc.Conflict, optionOf(gc, "curated"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after resolution: accepted=%v rejected=%v\n", res.Accepted, res.Rejected)

	fmt.Println("\nfinal instances:")
	for _, p := range sys.Peers() {
		fmt.Printf("  %-6s:", p.ID())
		for _, t := range p.Instance().Tuples("F") {
			fmt.Printf(" %v", t)
		}
		fmt.Println()
	}
	fmt.Printf("state ratio: %.3f\n", orchestra.StateRatio(sys.Instances(), "F"))
}

// optionOf returns the index of the conflict-group option whose effect
// mentions the given function value.
func optionOf(g *orchestra.ConflictGroup, fn string) int {
	for i, o := range g.Options {
		if contains(o.Effect(), fn) {
			return i
		}
	}
	return 0
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
