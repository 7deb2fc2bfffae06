package trust

import (
	"reflect"
	"testing"

	"orchestra/internal/core"
)

// TestGraphChainClosure: delegation caps compose as path bottlenecks down
// a chain — a --3--> b --2--> c gives a the closure {b:3, c:2}.
func TestGraphChainClosure(t *testing.T) {
	g := NewGraph(nil)
	g.Set("c", MustParse("priority 9 when origin = 'pz'"))
	g.Set("b", MustParse("priority 4 when origin = 'py'\ndelegate 'c' priority 2"))
	g.Set("a", MustParse("priority 5 when origin = 'px'\ndelegate 'b' priority 3"))

	want := map[core.PeerID]int{"b": 3, "c": 2}
	if got := g.Closure("a"); !reflect.DeepEqual(got, want) {
		t.Fatalf("closure(a) = %v, want %v", got, want)
	}
	eff := g.Effective("a")
	for origin, prio := range map[core.PeerID]int{"px": 5, "py": 3, "pz": 2, "pq": 0} {
		if got := eff.Priority(ins(string(origin), "r", "p", "f")); got != prio {
			t.Errorf("effective(a) priority(%s) = %d, want %d", origin, got, prio)
		}
	}
	// b's own closure is one hop: c capped at 2, uncapped own rules.
	effB := g.Effective("b")
	if got := effB.Priority(ins("py", "r", "p", "f")); got != 4 {
		t.Errorf("effective(b) priority(py) = %d, want 4", got)
	}
	if got := effB.Priority(ins("pz", "r", "p", "f")); got != 2 {
		t.Errorf("effective(b) priority(pz) = %d, want 2", got)
	}
}

// TestGraphWidestPath: with two routes to the same delegate, the closure
// keeps the maximum-bottleneck cap (Gatterbauer & Suciu), not the first
// or the sum.
func TestGraphWidestPath(t *testing.T) {
	g := NewGraph(nil)
	g.Set("d", MustParse("priority 9 when origin = 'pz'"))
	g.Set("b", MustParse("delegate 'd' priority 4"))
	g.Set("c", MustParse("delegate 'd' priority 9"))
	g.Set("a", MustParse("delegate 'b' priority 5\ndelegate 'c' priority 1"))

	// Via b: min(5,4)=4. Via c: min(1,9)=1. Widest: 4.
	want := map[core.PeerID]int{"b": 5, "c": 1, "d": 4}
	if got := g.Closure("a"); !reflect.DeepEqual(got, want) {
		t.Fatalf("closure(a) = %v, want %v", got, want)
	}
	if got := g.Effective("a").Priority(ins("pz", "r", "p", "f")); got != 4 {
		t.Errorf("effective(a) priority(pz) = %d, want 4", got)
	}
}

// TestGraphCycle: mutual delegation converges — caps never increase along
// a path, so a cycle cannot amplify trust, and resolution terminates.
func TestGraphCycle(t *testing.T) {
	g := NewGraph(nil)
	g.Set("a", MustParse("priority 5 when origin = 'pa'"))
	g.Set("b", MustParse("priority 4 when origin = 'pb'"))
	// Close the cycle by re-registering both with delegations.
	g.Set("a", MustParse("priority 5 when origin = 'pa'\ndelegate 'b' priority 3"))
	g.Set("b", MustParse("priority 4 when origin = 'pb'\ndelegate 'a' priority 2"))

	effA, effB := g.Effective("a"), g.Effective("b")
	// a sees b's rules capped at 3; the cycle back to a adds nothing new
	// (own rules are already uncapped).
	if got := effA.Priority(ins("pb", "r", "p", "f")); got != 3 {
		t.Errorf("effective(a) priority(pb) = %d, want 3", got)
	}
	if got := effA.Priority(ins("pa", "r", "p", "f")); got != 5 {
		t.Errorf("effective(a) priority(pa) = %d, want 5", got)
	}
	// b sees a's rules capped at 2.
	if got := effB.Priority(ins("pa", "r", "p", "f")); got != 2 {
		t.Errorf("effective(b) priority(pa) = %d, want 2", got)
	}
	if got := effB.Priority(ins("pb", "r", "p", "f")); got != 4 {
		t.Errorf("effective(b) priority(pb) = %d, want 4", got)
	}
}

// TestGraphIncrementalRecompile: changing one member re-resolves exactly
// the participants whose closure reaches it — nobody else.
func TestGraphIncrementalRecompile(t *testing.T) {
	g := NewGraph(nil)
	g.Set("c", MustParse("priority 1 when origin = 'pz'"))
	g.Set("b", MustParse("delegate 'c' priority 2"))
	g.Set("a", MustParse("delegate 'b' priority 3"))
	g.Set("d", MustParse("priority 1 when true")) // isolated

	before := map[core.PeerID]int{}
	for _, id := range g.Members() {
		g.Effective(id) // force initial resolution
		before[id] = g.Recompiles(id)
	}
	totalBefore := g.TotalRecompiles()

	affected := g.Set("c", MustParse("priority 8 when origin = 'pz'"))
	wantAffected := []core.PeerID{"a", "b", "c"}
	if !reflect.DeepEqual(affected, wantAffected) {
		t.Fatalf("affected = %v, want %v", affected, wantAffected)
	}
	for _, id := range wantAffected {
		if got := g.Recompiles(id); got != before[id]+1 {
			t.Errorf("recompiles(%s) = %d, want %d", id, got, before[id]+1)
		}
	}
	if got := g.Recompiles("d"); got != before["d"] {
		t.Errorf("isolated peer recompiled: %d -> %d", before["d"], got)
	}
	if got := g.TotalRecompiles(); got != totalBefore+len(wantAffected) {
		t.Errorf("total recompiles = %d, want %d", got, totalBefore+len(wantAffected))
	}
	// The re-resolution is live: a now sees pz at min(3, 2, 8) = 2.
	if got := g.Effective("a").Priority(ins("pz", "r", "p", "f")); got != 2 {
		t.Errorf("effective(a) priority(pz) = %d, want 2", got)
	}
}

// TestGraphNonTextualDelegate: a delegation to a member registered with an
// in-process predicate policy still works — the delegate becomes a dynamic
// source capped at the delegation priority.
func TestGraphNonTextualDelegate(t *testing.T) {
	g := NewGraph(nil)
	g.Set("fn", core.TrustAll(9))
	g.Set("a", MustParse("priority 1 when origin = 'pa'\ndelegate 'fn' priority 2"))

	eff := g.Effective("a")
	if got := eff.Priority(ins("anyone", "r", "p", "f")); got != 2 {
		t.Errorf("dynamic delegate priority = %d, want 2 (capped)", got)
	}
	if got := eff.Priority(ins("pa", "r", "p", "f")); got != 2 {
		t.Errorf("own-rule vs dyn max = %d, want 2", got)
	}
	// A non-textual member's own effective trust is itself, untouched.
	if g.Effective("fn").Priority(ins("x", "r", "p", "f")) != 9 {
		t.Error("non-textual member's effective trust altered")
	}
}

// TestGraphNonTextualDelegateDifferential: the dynamic-source loop exists
// in both the plan and the reference walk. A textual member delegating to
// a core.TrustOrigins member and a core.TrustFunc member (directly and
// through a textual intermediary) prices every differential update the
// same under both evaluators.
func TestGraphNonTextualDelegateDifferential(t *testing.T) {
	build := func(interpret bool) *Graph {
		pol := func(text string) *Policy {
			p := MustParse(text)
			if interpret {
				p.WithInterpreted()
			}
			return p
		}
		g := NewGraph(schema(t))
		g.Set("orig", core.TrustOrigins(map[core.PeerID]int{"p1": 5, "vip": 2, "anon": 1}))
		g.Set("fn", core.TrustFunc(func(u core.Update) int {
			switch {
			case u.Op == core.OpDelete:
				return 4
			case u.Op == core.OpModify:
				return 1
			case u.Rel == "G":
				return 9
			}
			return 0
		}))
		g.Set("mid", pol("priority 2 when attr('organism') = 'mouse'\ndelegate 'fn' priority 6"))
		g.Set("a", pol("priority 3 when origin = 'p2'\npriority 1 when op = 'insert' and rel = 'F'\n"+
			"delegate 'orig' priority 4\ndelegate 'fn' priority 3\ndelegate 'mid' priority 5"))
		return g
	}
	planned, ref := build(false), build(true)
	if dyn := planned.Effective("a").(*Policy).planned().dyn; len(dyn) != 2 {
		t.Fatalf("effective(a) has %d dynamic sources, want 2", len(dyn))
	}
	seen := map[int]bool{}
	for _, peer := range []core.PeerID{"a", "mid"} {
		for j, u := range differentialUpdates() {
			p, r := planned.Effective(peer).Priority(u), ref.Effective(peer).Priority(u)
			if p != r {
				t.Errorf("effective(%s) update %d: planned=%d reference=%d", peer, j, p, r)
			}
			seen[p] = true
		}
	}
	// The row reaches every cap: 0 (untrusted), the textual rules, and both
	// dynamic sources clipped at their widths.
	for _, want := range []int{0, 1, 2, 3, 4, 5} {
		if !seen[want] {
			t.Errorf("no update priced at %d; the row no longer exercises it", want)
		}
	}
}

// TestGraphUnknownDelegate: delegations to members the graph has never
// seen contribute nothing (stores refuse them at registration; the graph
// itself is lenient so recovery can load rows in any order).
func TestGraphUnknownDelegate(t *testing.T) {
	g := NewGraph(nil)
	g.Set("a", MustParse("priority 2 when origin = 'pa'\ndelegate 'ghost' priority 5"))
	eff := g.Effective("a")
	if got := eff.Priority(ins("pa", "r", "p", "f")); got != 2 {
		t.Errorf("priority(pa) = %d", got)
	}
	if got := eff.Priority(ins("ghost", "r", "p", "f")); got != 0 {
		t.Errorf("unknown delegate leaked trust: %d", got)
	}
	// Registering the ghost later re-resolves a automatically.
	affected := g.Set("ghost", MustParse("priority 9 when origin = 'pg'"))
	if !reflect.DeepEqual(affected, []core.PeerID{"a", "ghost"}) {
		t.Fatalf("affected = %v", affected)
	}
	if got := g.Effective("a").Priority(ins("pg", "r", "p", "f")); got != 5 {
		t.Errorf("post-registration priority(pg) = %d, want 5", got)
	}
}

// TestGraphRemove: dropping a member strips its rules from every
// delegator's effective policy.
func TestGraphRemove(t *testing.T) {
	g := NewGraph(nil)
	g.Set("b", MustParse("priority 4 when origin = 'pb'"))
	g.Set("a", MustParse("priority 5 when origin = 'pa'\ndelegate 'b' priority 3"))
	if got := g.Effective("a").Priority(ins("pb", "r", "p", "f")); got != 3 {
		t.Fatalf("pre-remove priority(pb) = %d", got)
	}
	affected := g.Remove("b")
	if !reflect.DeepEqual(affected, []core.PeerID{"a"}) {
		t.Fatalf("affected = %v", affected)
	}
	if got := g.Effective("a").Priority(ins("pb", "r", "p", "f")); got != 0 {
		t.Errorf("post-remove priority(pb) = %d, want 0", got)
	}
	if g.Effective("b") != nil {
		t.Error("removed member still resolves")
	}
}

// TestDelegationRoundTrip: the textual form with delegations satisfies the
// Parse(String) fixpoint, including peers needing quote escapes.
func TestDelegationRoundTrip(t *testing.T) {
	texts := []string{
		"priority 2 when origin = 'a'\ndelegate 'b' priority 3\n",
		"delegate 'o''brien' priority 1\n",
		"priority 1 when true\ndelegate 'x' priority 2\ndelegate 'y' priority 7\n",
	}
	for _, text := range texts {
		p, err := Parse(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		if got := p.String(); got != text {
			t.Errorf("String() = %q, want %q", got, text)
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if q.String() != p.String() {
			t.Errorf("fixpoint broken: %q vs %q", q.String(), p.String())
		}
	}
}

// TestDelegationParseErrors: malformed delegate lines fail with line
// numbers, and delegation caps must be positive.
func TestDelegationParseErrors(t *testing.T) {
	for _, text := range []string{
		"delegate",
		"delegate 'x'",
		"delegate 'x' priority",
		"delegate 'x' priority zero",
		"delegate 'x' priority 0",
		"delegate 'x' priority -3",
		"delegate 'x' priority 2 trailing",
		"delegate priority 2", // "priority" swallowed as the peer name, then malformed
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded", text)
		}
	}
	p := NewPolicy()
	if err := p.AddDelegation("", 1); err == nil {
		t.Error("empty peer accepted")
	}
	if err := p.AddDelegation("x", 0); err == nil {
		t.Error("zero cap accepted")
	}
	// Duplicate delegations keep the wider cap.
	p.MustDelegate("x", 2).MustDelegate("x", 5).MustDelegate("x", 1)
	if ds := p.Delegations(); len(ds) != 1 || ds[0].Cap != 5 {
		t.Errorf("delegations = %v", ds)
	}
}
