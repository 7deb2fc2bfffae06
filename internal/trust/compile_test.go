package trust

import (
	"fmt"
	"testing"

	"orchestra/internal/core"
)

// differentialUpdates is a spread of updates exercising every leaf the
// predicate language can read: origins, operations, relations, attribute
// values (old and new side), and tuples of different shapes.
func differentialUpdates() []core.Update {
	var out []core.Update
	for _, origin := range []core.PeerID{"p1", "p2", "vip", "anon", ""} {
		out = append(out,
			core.Insert("F", core.Strs("rat", "prot1", "immune-response"), origin),
			core.Insert("F", core.Strs("mouse", "prot2", "metabolism"), origin),
			core.Delete("F", core.Strs("rat", "prot1", "immune-response"), origin),
			core.Modify("F", core.Strs("rat", "prot1", "immune-response"),
				core.Strs("rat", "prot1", "cell-metab"), origin),
			core.Insert("G", core.Strs("x"), origin),
		)
	}
	return out
}

// policyCorpus is the set of policy texts the planned-vs-reference
// differential sweeps: origin dispatch, IN sets, constant folding,
// attribute predicates by name and index, operation and relation tests,
// boolean structure, and delegation-free duplicates.
var policyCorpus = []string{
	"priority 2 when origin = 'p1'\npriority 1 when origin = 'p2'",
	"priority 3 when origin in ('p1', 'p2', 'vip')",
	"priority 2 when true",
	"priority 5 when 1 = 2\npriority 1 when true",
	"priority 4 when 1 < 2 and 'x' = 'x'",
	"priority 3 when attr('organism') = 'rat' and attr('function') like 'immune%'",
	"priority 2 when attr(0) = 'mouse'",
	"priority 2 when op = 'ins'\npriority 3 when op = 'del'",
	"priority 2 when rel = 'F' and origin <> 'anon'",
	"priority 3 when not (origin = 'anon' or origin = '')",
	"priority 7 when origin = 'vip' and attr('protein') = 'prot1'\npriority 1 when true",
	"priority 2 when newattr('function') = 'cell-metab'",
	"priority 2 when attr('organism') in ('rat', 'dog')",
	"priority 9 when origin = 'vip'\npriority 9 when origin = 'vip'", // duplicate, deduped
	"priority 3 when origin = 'p1'\npriority 2 when origin = 'p1'",   // same origin, two tiers
}

// TestCompiledMatchesInterpreted is the policy-level differential: for
// every corpus policy and every update, the planned evaluation and the
// reference walk over every rule must return bit-identical priorities —
// with and without a schema bound.
func TestCompiledMatchesInterpreted(t *testing.T) {
	s := schema(t)
	updates := differentialUpdates()
	for i, text := range policyCorpus {
		for _, bind := range []*core.Schema{nil, s} {
			comp := MustParse(text)
			interp := MustParse(text).WithInterpreted()
			if bind != nil {
				comp.WithSchema(bind)
				interp.WithSchema(bind)
			}
			for j, u := range updates {
				if c, iv := comp.Priority(u), interp.Priority(u); c != iv {
					t.Errorf("policy %d update %d (schema=%v): compiled=%d interpreted=%d\n%s",
						i, j, bind != nil, c, iv, text)
				}
			}
		}
	}
}

// TestOriginDispatch: pure origin-equality and origin-IN rules lower
// into the dispatch map, leaving no general rules to scan per decision.
func TestOriginDispatch(t *testing.T) {
	p := MustParse("priority 3 when origin = 'a'\npriority 2 when origin in ('b', 'c')")
	prog := p.planned()
	if len(prog.rules) != 0 {
		t.Fatalf("origin rules left %d general rules", len(prog.rules))
	}
	want := map[core.PeerID]int{"a": 3, "b": 2, "c": 2}
	for id, prio := range want {
		if got := prog.origins[id]; got != prio {
			t.Errorf("dispatch[%s] = %d, want %d", id, got, prio)
		}
	}
	if got := p.Priority(ins("z", "r", "p", "f")); got != 0 {
		t.Errorf("unlisted origin priority = %d", got)
	}
}

// TestConstantFolding: leaf-free predicates fold when the plan is built —
// an always-true rule becomes the plan's constant floor, an always-false
// rule vanishes.
func TestConstantFolding(t *testing.T) {
	p := MustParse("priority 2 when 1 < 2 and 'x' = 'x'\npriority 9 when 1 = 2")
	prog := p.planned()
	if prog.floor != 2 {
		t.Errorf("floor = %d, want 2", prog.floor)
	}
	if len(prog.rules) != 0 || len(prog.origins) != 0 {
		t.Errorf("folded policy kept rules: %d general, %d origin", len(prog.rules), len(prog.origins))
	}
	if got := p.Priority(ins("anyone", "a", "b", "c")); got != 2 {
		t.Errorf("priority = %d, want 2", got)
	}
}

// TestCompiledRuleOrdering: general rules are sorted by priority
// descending so evaluation can stop at the first match — the first match
// IS the max.
func TestCompiledRuleOrdering(t *testing.T) {
	p := MustParse(
		"priority 1 when attr(0) = 'a'\npriority 5 when attr(0) = 'b'\npriority 3 when attr(0) = 'c'")
	prog := p.planned()
	if len(prog.rules) != 3 {
		t.Fatalf("rules = %d", len(prog.rules))
	}
	for i := 1; i < len(prog.rules); i++ {
		if prog.rules[i-1].Priority < prog.rules[i].Priority {
			t.Fatalf("rules not sorted desc: %d then %d", prog.rules[i-1].Priority, prog.rules[i].Priority)
		}
	}
}

// TestPolicyAddDedup pins the duplicate-rule suppression: an identical
// (priority, predicate) pair registers once, while the same predicate at a
// different priority stays a distinct rule.
func TestPolicyAddDedup(t *testing.T) {
	p := NewPolicy()
	p.MustAdd(2, "origin = 'a'")
	if err := p.Add(2, "origin = 'a'"); err != nil {
		t.Fatalf("duplicate add errored: %v", err)
	}
	if p.Len() != 1 {
		t.Fatalf("duplicate rule registered: %d rules", p.Len())
	}
	p.MustAdd(3, "origin = 'a'") // different priority: a real second rule
	if p.Len() != 2 {
		t.Fatalf("distinct-priority rule deduped: %d rules", p.Len())
	}
	if got := p.Priority(ins("a", "x", "y", "z")); got != 3 {
		t.Errorf("priority = %d, want 3", got)
	}
	// Parse dedupes too: the textual form round-trips to the deduped set.
	q := MustParse("priority 9 when origin = 'vip'\npriority 9 when origin = 'vip'")
	if q.Len() != 1 {
		t.Errorf("Parse kept duplicate rule: %d rules", q.Len())
	}
}

// TestInterpretedEscapeHatch: WithInterpreted switches the evaluator to
// the reference walk without changing any decision.
func TestInterpretedEscapeHatch(t *testing.T) {
	p := MustParse("priority 2 when origin = 'a'").WithInterpreted()
	if got := p.Priority(ins("a", "x", "y", "z")); got != 2 {
		t.Errorf("interpreted priority = %d", got)
	}
}

// TestCompiledConcurrentEval: a planned policy serves concurrent
// evaluations (the plan is shared and read-only, each evaluation walks
// the rules with its own context); run with -race this pins the safety
// claim.
func TestCompiledConcurrentEval(t *testing.T) {
	p := MustParse("priority 3 when attr('organism') = 'rat' and origin in ('a', 'b')\npriority 1 when true").
		WithSchema(schema(t))
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- true }()
			for i := 0; i < 200; i++ {
				u := ins(fmt.Sprintf("%c", 'a'+g%3), "rat", "p", "f")
				if got := p.Priority(u); got == 0 {
					t.Errorf("concurrent eval returned 0")
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
