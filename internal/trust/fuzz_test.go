package trust

import (
	"testing"

	"orchestra/internal/core"
)

// FuzzTrustParse: the textual policy format must never panic on arbitrary
// input, and every accepted policy must satisfy the Parse(p.String())
// fixpoint — the rendered form re-parses to an identical rendering, so the
// persisted `trust` table rows always round-trip across recovery. An
// accepted policy's plan must also price every differential update exactly
// as the reference walk does, with and without a schema bound.
func FuzzTrustParse(f *testing.F) {
	seeds := []string{
		"",
		"priority 1 when true",
		"priority 2 when origin = 'p1'\npriority 1 when origin = 'p2'",
		"priority 3 when origin in ('a', 'b', 'c')",
		"priority 4 when attr('organism') = 'rat' and attr('function') like 'immune%'",
		"priority 2 when op = 'ins' and rel = 'F'",
		"priority 5 when not (attr(0) = 'x' or newattr(1) <> 'y')",
		"priority 3 when attr('organism') < 'sat' or op = 'delete'\npriority 1 when rel = 'G'",
		"delegate 'pd' priority 3",
		"priority 2 when origin = 'a'\ndelegate 'b' priority 3\ndelegate 'o''brien' priority 1",
		"# comment\n-- also comment\n\npriority 1 when 1 < 2",
		"priority -1 when true",
		"priority 1 when",
		"delegate priority 2",
		"delegate 'x' priority 0",
		"priority 9999999999999999999999 when true",
		"priority 1 when origin = 'unterminated",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(text)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		rendered := p.String()
		q, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendered policy failed to re-parse: %v\nrendered: %q\ninput: %q", err, rendered, text)
		}
		if again := q.String(); again != rendered {
			t.Fatalf("Parse(String) not a fixpoint:\nfirst:  %q\nsecond: %q\ninput: %q", rendered, again, text)
		}
		// Fuzzed attr/op/rel predicates are the general rules the plan
		// walks; origin and constant rules exercise its dispatch and floor.
		q.WithInterpreted()
		for _, bind := range []*core.Schema{nil, schema(t)} {
			p.WithSchema(bind)
			q.WithSchema(bind)
			for j, u := range differentialUpdates() {
				if c, i := p.Priority(u), q.Priority(u); c != i {
					t.Fatalf("update %d (schema=%v): planned=%d reference=%d for %q", j, bind != nil, c, i, rendered)
				}
			}
		}
	})
}
