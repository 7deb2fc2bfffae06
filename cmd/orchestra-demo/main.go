// Command orchestra-demo narrates the paper's running example (Figures 1
// and 2) epoch by epoch: three bioinformatics warehouses with asymmetric
// trust publish and reconcile protein-function updates, ending with p1
// deferring the three-way rat/prot1 controversy — which the demo then
// resolves each possible way, showing the resulting instances.
package main

import (
	"context"
	"fmt"
	"log"

	"orchestra"
)

func main() {
	fmt.Println("Orchestra CDSS — the SIGMOD 2006 running example (Figures 1-2)")
	fmt.Println()
	fmt.Println("Participants: p1 trusts {p2:1, p3:1}; p2 trusts {p1:2, p3:1}; p3 trusts {p2:1}")
	fmt.Println("Relation: F(organism, protein, function), key (organism, protein)")
	fmt.Println()

	for _, choice := range []string{"immune", "cell-resp", "cell-metab", "reject all"} {
		fmt.Printf("=== run with p1's user choosing %q ===\n", choice)
		run(choice)
		fmt.Println()
	}
}

func run(choice string) {
	ctx := context.Background()
	schema := orchestra.MustSchema(
		orchestra.NewRelation("F", 2, "organism", "protein", "function"))
	sys, err := orchestra.NewSystem(schema)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	p1, _ := sys.AddPeer("p1", orchestra.TrustOrigins(map[orchestra.PeerID]int{"p2": 1, "p3": 1}))
	p2, _ := sys.AddPeer("p2", orchestra.TrustOrigins(map[orchestra.PeerID]int{"p1": 2, "p3": 1}))
	p3, _ := sys.AddPeer("p3", orchestra.TrustOrigins(map[orchestra.PeerID]int{"p2": 1}))

	// Epoch 1.
	p3.Edit(orchestra.Insert("F", orchestra.Strs("rat", "prot1", "cell-metab"), "p3"))
	p3.Edit(orchestra.Modify("F",
		orchestra.Strs("rat", "prot1", "cell-metab"),
		orchestra.Strs("rat", "prot1", "immune"), "p3"))
	p3.PublishAndReconcile(ctx)
	show(1, "p3", p3)

	// Epoch 2.
	p2.Edit(orchestra.Insert("F", orchestra.Strs("mouse", "prot2", "immune"), "p2"))
	p2.Edit(orchestra.Insert("F", orchestra.Strs("rat", "prot1", "cell-resp"), "p2"))
	res, _ := p2.PublishAndReconcile(ctx)
	fmt.Printf("  epoch 2: p2 rejected %v (conflicts with its own state)\n", res.Rejected)
	show(2, "p2", p2)

	// Epoch 3.
	res, _ = p3.PublishAndReconcile(ctx)
	fmt.Printf("  epoch 3: p3 accepted %v, rejected %v\n", res.Accepted, res.Rejected)
	show(3, "p3", p3)

	// Epoch 4.
	res, _ = p1.PublishAndReconcile(ctx)
	fmt.Printf("  epoch 4: p1 accepted %v, deferred %v\n", res.Accepted, res.Deferred)
	show(4, "p1", p1)

	groups := p1.Engine().ConflictGroups()
	if len(groups) != 1 {
		log.Fatalf("expected one conflict group, got %v", groups)
	}
	g := groups[0]
	fmt.Printf("  conflict at p1: %v\n", g.Conflict)
	for i, o := range g.Options {
		fmt.Printf("    option %d: %s (txns %v)\n", i, o.Effect(), o.Txns)
	}

	winner := -1
	if choice != "reject all" {
		for i, o := range g.Options {
			if contains(o.Effect(), choice) {
				winner = i
			}
		}
	}
	res, err = p1.Resolve(ctx, g.Conflict, winner)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  resolution: accepted %v, rejected %v\n", res.Accepted, res.Rejected)
	show(0, "p1 (final)", p1)
}

func show(epoch int, label string, p *orchestra.Peer) {
	if epoch > 0 {
		fmt.Printf("  I(%s)|%d:", label, epoch)
	} else {
		fmt.Printf("  I(%s):", label)
	}
	for _, t := range p.Instance().Tuples("F") {
		fmt.Printf(" %v", t)
	}
	fmt.Println()
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
