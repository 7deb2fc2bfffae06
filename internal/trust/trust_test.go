package trust

import (
	"strings"
	"testing"

	"orchestra/internal/core"
)

func schema(t *testing.T) *core.Schema {
	t.Helper()
	return core.MustSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
}

func ins(origin, org, prot, fn string) core.Update {
	return core.Insert("F", core.Strs(org, prot, fn), core.PeerID(origin))
}

func TestPolicyOriginEquality(t *testing.T) {
	p := NewPolicy()
	if err := p.Add(2, "origin = 'p1'"); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(1, "origin = 'p2'"); err != nil {
		t.Fatal(err)
	}
	if got := p.Priority(ins("p1", "rat", "x", "y")); got != 2 {
		t.Errorf("p1 priority = %d", got)
	}
	if got := p.Priority(ins("p2", "rat", "x", "y")); got != 1 {
		t.Errorf("p2 priority = %d", got)
	}
	if got := p.Priority(ins("p9", "rat", "x", "y")); got != 0 {
		t.Errorf("unlisted priority = %d", got)
	}
	if p.Len() != 2 || len(p.Rules()) != 2 {
		t.Error("rule accounting broken")
	}
}

func TestPolicyMaxWins(t *testing.T) {
	p := NewPolicy()
	p.MustAdd(1, "true")
	p.MustAdd(5, "origin = 'vip'")
	if got := p.Priority(ins("vip", "a", "b", "c")); got != 5 {
		t.Errorf("priority = %d, want max 5", got)
	}
	if got := p.Priority(ins("anon", "a", "b", "c")); got != 1 {
		t.Errorf("priority = %d, want 1", got)
	}
}

func TestPolicyAttrByNameAndIndex(t *testing.T) {
	p := NewPolicy().WithSchema(schema(t))
	p.MustAdd(3, "attr('organism') = 'rat' and attr('function') like 'immune%'")
	p.MustAdd(1, "attr(0) = 'mouse'")
	if got := p.Priority(ins("x", "rat", "p1", "immune-response")); got != 3 {
		t.Errorf("rat immune priority = %d", got)
	}
	if got := p.Priority(ins("x", "rat", "p1", "metabolism")); got != 0 {
		t.Errorf("rat other priority = %d", got)
	}
	if got := p.Priority(ins("x", "mouse", "p1", "metabolism")); got != 1 {
		t.Errorf("mouse priority = %d", got)
	}
}

func TestPolicyAttrNameWithoutSchema(t *testing.T) {
	p := NewPolicy() // no schema bound
	p.MustAdd(1, "attr('organism') = 'rat'")
	if got := p.Priority(ins("x", "rat", "p1", "f")); got != 0 {
		t.Errorf("priority without schema = %d, want 0 (name unresolvable)", got)
	}
}

func TestPolicyOpAndNewattr(t *testing.T) {
	p := NewPolicy().WithSchema(schema(t))
	p.MustAdd(2, "op = 'modify' and newattr('function') = 'immune'")
	p.MustAdd(1, "op in ('insert', 'delete')")
	mod := core.Modify("F", core.Strs("rat", "p1", "old"), core.Strs("rat", "p1", "immune"), "x")
	if got := p.Priority(mod); got != 2 {
		t.Errorf("modify priority = %d", got)
	}
	del := core.Delete("F", core.Strs("rat", "p1", "old"), "x")
	if got := p.Priority(del); got != 1 {
		t.Errorf("delete priority = %d", got)
	}
	// newattr on a non-modify falls back to the current tuple.
	p2 := NewPolicy().WithSchema(schema(t))
	p2.MustAdd(1, "newattr('function') = 'f'")
	if got := p2.Priority(ins("x", "rat", "p1", "f")); got != 1 {
		t.Errorf("newattr fallback priority = %d", got)
	}
}

func TestExpressionOperators(t *testing.T) {
	s := schema(t)
	u := ins("p1", "rat", "prot", "fn")
	cases := []struct {
		src  string
		want bool
	}{
		{"true", true},
		{"false", false},
		{"not false", true},
		{"not not true", true},
		{"true and true", true},
		{"true and false", false},
		{"false or true", true},
		{"false or false", false},
		{"(true or false) and true", true},
		{"origin = 'p1'", true},
		{"origin != 'p1'", false},
		{"origin <> 'p1'", false},
		{"rel = 'F'", true},
		{"relation = 'F'", true},
		{"op = 'insert'", true},
		{"operation = 'insert'", true},
		{"origin in ('a', 'p1', 'b')", true},
		{"origin in ('a', 'b')", false},
		{"attr('organism') = 'rat'", true},
		{"attr(1) = 'prot'", true},
		{"attr(99) = 'x'", false},
		{"attr('nope') = 'x'", false},
		{"attr('organism') < 'sat'", true},
		{"attr('organism') <= 'rat'", true},
		{"attr('organism') > 'aat'", true},
		{"attr('organism') >= 'rat'", true},
		{"1 < 2", true},
		{"2.5 >= 2.5", true},
		{"-1 < 0", true},
		{"1 = 1 and 2 = 2", true},
		{"'a' < 1", false}, // incomparable kinds
		{"origin like 'p%'", true},
		{"origin like '%1'", true},
		{"origin like 'p_'", true},
		{"origin like 'q%'", false},
		{"attr('function') like 'f%n'", true},
		{"null = null", true},
		{"attr(99) = null", true},
		{"1 like 'x'", false}, // like on non-string
	}
	for _, c := range cases {
		e, err := compile(c.src)
		if err != nil {
			t.Errorf("%q: compile error: %v", c.src, err)
			continue
		}
		got := e.eval(&evalCtx{u: u, schema: s}).truthy()
		if got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"%", "", true},
		{"%", "anything", true},
		{"", "", true},
		{"", "x", false},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"a%c", "abbbc", true},
		{"a%c", "ac", true},
		{"a%c", "ab", false},
		{"%abc%", "xxabcyy", true},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"%a%b%", "xaxbx", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.pat, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"origin =",
		"= 'x'",
		"(true",
		"origin like 5",
		"origin in ()",
		"origin in ('a',)",
		"attr()",
		"attr('x'",
		"attr(1.5) = 'x'",
		"bogus = 'x'",
		"true extra",
		"origin ! 'x'",
		"'unterminated",
		"origin in 'x'",
		"origin @ 'x'",
	}
	for _, src := range bad {
		if _, err := compile(src); err == nil {
			t.Errorf("%q should fail to compile", src)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := compile("origin = ")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if !strings.Contains(se.Error(), "position") {
		t.Errorf("error message: %v", se)
	}
}

func TestParsePolicyText(t *testing.T) {
	p, err := Parse(`
# comment line
-- another comment
priority 2 when origin = 'p1'

priority 1 when origin in ('p2', 'p3')
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("rules = %d", p.Len())
	}
	if got := p.Priority(ins("p3", "a", "b", "c")); got != 1 {
		t.Errorf("p3 priority = %d", got)
	}
	// Round-trip through String.
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if p2.Len() != 2 {
		t.Error("round-trip lost rules")
	}
}

func TestParsePolicyErrors(t *testing.T) {
	bad := []string{
		"nonsense",
		"priority",
		"priority x when true",
		"priority 2 true",
		"priority 2 when origin =",
		"priority 0 when true",
		"priority -1 when true",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q should fail to parse", src)
		}
	}
}

func TestMustHelpersPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic")
		}
	}()
	MustParse("garbage")
}

func TestPolicyImplementsCoreTrust(t *testing.T) {
	var _ core.Trust = NewPolicy()
}

func TestPriorityShortCircuit(t *testing.T) {
	// Rules with priority <= current best are skipped; ensure a
	// lower-priority matching rule after a higher one doesn't lower the
	// result.
	p := NewPolicy()
	p.MustAdd(5, "true")
	p.MustAdd(3, "true")
	if got := p.Priority(ins("x", "a", "b", "c")); got != 5 {
		t.Errorf("priority = %d", got)
	}
}
