package orchestra_test

import (
	"context"
	"fmt"
	"log"

	"orchestra"
)

// Example reproduces the paper's core behaviour in miniature: two curators
// disagree, a third participant defers the conflict, and its user resolves
// it.
func Example() {
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

	alice.Edit(orchestra.Insert("F", orchestra.Strs("rat", "prot1", "immune"), "alice"))
	alice.PublishAndReconcile(ctx)
	bob.Edit(orchestra.Insert("F", orchestra.Strs("rat", "prot1", "metabolism"), "bob"))
	bob.PublishAndReconcile(ctx)

	res, _ := carol.PublishAndReconcile(ctx)
	fmt.Printf("carol deferred %d conflicting transactions\n", len(res.Deferred))

	g := carol.Engine().ConflictGroups()[0]
	for i, o := range g.Options {
		fmt.Printf("option %d: %s\n", i, o.Effect())
	}
	carol.Resolve(ctx, g.Conflict, 0)
	tuple, _ := carol.Instance().Lookup("F", orchestra.Strs("rat", "prot1"))
	fmt.Printf("carol accepted: %v\n", tuple)

	// Output:
	// carol deferred 2 conflicting transactions
	// option 0: +F(rat, prot1, immune; alice)
	// option 1: +F(rat, prot1, metabolism; bob)
	// carol accepted: (rat, prot1, immune)
}

// ExampleParseTrustPolicy shows the acceptance-rule language: priorities
// over predicates on an update's origin, relation, operation, and
// attribute values.
func ExampleParseTrustPolicy() {
	schema := orchestra.MustSchema(
		orchestra.NewRelation("F", 2, "organism", "protein", "function"))
	policy, err := orchestra.ParseTrustPolicy(`
# SWISS-PROT-style authority ranking:
priority 3 when origin = 'swissprot'
priority 2 when origin = 'genbank' and attr('organism') = 'human'
priority 1 when op = 'insert'
`)
	if err != nil {
		log.Fatal(err)
	}
	policy.WithSchema(schema)

	u := orchestra.Insert("F", orchestra.Strs("human", "P01308", "hormone activity"), "genbank")
	fmt.Println(policy.Priority(u))
	u = orchestra.Delete("F", orchestra.Strs("rat", "P99999", "unknown"), "anonymous")
	fmt.Println(policy.Priority(u))
	// Output:
	// 2
	// 0
}

// ExampleStateRatio computes the paper's §6 sharing-quality metric.
func ExampleStateRatio() {
	ctx := context.Background()
	schema := orchestra.MustSchema(orchestra.NewRelation("F", 1, "k", "v"))
	sys, _ := orchestra.NewSystem(schema)
	defer sys.Close()
	a, _ := sys.AddPeer("a", orchestra.TrustAll(1))
	b, _ := sys.AddPeer("b", orchestra.TrustAll(1))

	a.Edit(orchestra.Insert("F", orchestra.Strs("shared", "same"), "a"))
	a.PublishAndReconcile(ctx)
	b.PublishAndReconcile(ctx) // b imports: both agree on "shared"
	b.Edit(orchestra.Insert("F", orchestra.Strs("solo", "mine"), "b"))
	b.PublishAndReconcile(ctx) // only b has "solo"

	fmt.Printf("%.1f\n", orchestra.StateRatio(sys.Instances(), "F"))
	// Output:
	// 1.5
}
