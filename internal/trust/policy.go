package trust

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"orchestra/internal/core"
)

// Rule is one acceptance rule (θ, v): a parsed predicate and the integer
// priority assigned to updates satisfying it.
type Rule struct {
	Priority  int
	Predicate string
	expr      expr
}

// Delegation is one trust delegation: "trust whatever Peer accepts, at
// priority capped at Cap". Delegations are inert on a standalone Policy —
// resolving them needs the other participants' policies, which is the
// Graph's job (graph.go); stores resolve registered policies through a
// Graph automatically.
type Delegation struct {
	Peer core.PeerID
	Cap  int
}

// Policy is a participant's ordered set of acceptance rules plus its trust
// delegations. It implements core.Trust: the priority of an update is the
// maximum priority among matching rules, or 0 (untrusted) if none match.
// The zero Policy trusts nothing.
//
// Rules are lowered into a plan (plan.go) — a constant floor, an origin
// map, and the remaining rules in priority order — lazily on first
// evaluation and again after mutation. Every predicate is evaluated by
// walking its parsed tree; WithInterpreted skips the plan and walks every
// rule in order, the reference for the planned-vs-reference
// differentials. A Policy is safe for concurrent evaluation, but mutation
// (Add, AddDelegation, WithSchema) must not race with evaluation.
// Policies must not be copied after first use.
type Policy struct {
	rules  []Rule
	delegs []Delegation
	schema *core.Schema
	// dyn carries delegated non-textual trust sources; only resolved
	// policies built by Graph.Effective have them.
	dyn []dynSource
	// interpret skips the plan (WithInterpreted).
	interpret bool
	// lowered caches the plan; nil after any mutation. Racing rebuilds
	// are harmless: lowering is deterministic.
	lowered atomic.Pointer[plan]
}

// NewPolicy returns an empty policy. Bind a schema with WithSchema to
// resolve attribute names in predicates.
func NewPolicy() *Policy { return &Policy{} }

// WithSchema returns the policy with the schema used for attr('name')
// resolution. The receiver is returned for chaining.
func (p *Policy) WithSchema(s *core.Schema) *Policy {
	p.schema = s
	p.lowered.Store(nil)
	return p
}

// Schema returns the schema bound by WithSchema, nil if none.
func (p *Policy) Schema() *core.Schema { return p.schema }

// WithInterpreted returns the policy evaluating every rule in order
// instead of through its plan: the reference evaluator for the
// planned-vs-reference differentials; no non-test caller.
func (p *Policy) WithInterpreted() *Policy {
	p.interpret = true
	return p
}

// Add parses and appends a rule. Priorities must be positive: priority 0
// is the implicit "untrusted" default. A rule identical to one already
// present (same priority, same predicate text) is dropped: duplicates
// cannot change the max-of-matching semantics and would only inflate
// every evaluation.
func (p *Policy) Add(priority int, predicate string) error {
	if priority <= 0 {
		return fmt.Errorf("trust: rule priority must be positive, got %d", priority)
	}
	e, err := compile(predicate)
	if err != nil {
		return err
	}
	for i := range p.rules {
		if p.rules[i].Priority == priority && p.rules[i].Predicate == predicate {
			return nil
		}
	}
	p.rules = append(p.rules, Rule{Priority: priority, Predicate: predicate, expr: e})
	p.lowered.Store(nil)
	return nil
}

// MustAdd is Add that panics on error, for literals in tests and examples.
func (p *Policy) MustAdd(priority int, predicate string) *Policy {
	if err := p.Add(priority, predicate); err != nil {
		panic(err)
	}
	return p
}

// AddDelegation appends a delegation. The cap must be positive; a second
// delegation to the same peer keeps the higher cap (a wider delegation
// subsumes a narrower one).
func (p *Policy) AddDelegation(peer core.PeerID, cap int) error {
	if cap <= 0 {
		return fmt.Errorf("trust: delegation priority must be positive, got %d", cap)
	}
	if peer == "" {
		return fmt.Errorf("trust: delegation needs a peer name")
	}
	for i := range p.delegs {
		if p.delegs[i].Peer == peer {
			if cap > p.delegs[i].Cap {
				p.delegs[i].Cap = cap
			}
			return nil
		}
	}
	p.delegs = append(p.delegs, Delegation{Peer: peer, Cap: cap})
	return nil
}

// MustDelegate is AddDelegation that panics on error.
func (p *Policy) MustDelegate(peer core.PeerID, cap int) *Policy {
	if err := p.AddDelegation(peer, cap); err != nil {
		panic(err)
	}
	return p
}

// Rules returns a copy of the rules, for display.
func (p *Policy) Rules() []Rule {
	out := make([]Rule, len(p.rules))
	copy(out, p.rules)
	return out
}

// Delegations returns a copy of the delegations.
func (p *Policy) Delegations() []Delegation {
	out := make([]Delegation, len(p.delegs))
	copy(out, p.delegs)
	return out
}

// Len returns the number of rules.
func (p *Policy) Len() int { return len(p.rules) }

// planned returns the policy's plan, lowering the rules on first use.
func (p *Policy) planned() *plan {
	if pl := p.lowered.Load(); pl != nil {
		return pl
	}
	pl := newPlan(p.rules, p.dyn, p.schema)
	p.lowered.Store(pl)
	return pl
}

// Priority implements core.Trust. Delegations are not evaluated here —
// see Delegation and Graph.
func (p *Policy) Priority(u core.Update) int {
	if p.interpret {
		return p.interpretPriority(u)
	}
	return p.planned().priority(u)
}

// interpretPriority is the reference evaluator: every rule in order, no
// plan.
func (p *Policy) interpretPriority(u core.Update) int {
	best := 0
	ctx := &evalCtx{u: u, schema: p.schema}
	for i := range p.rules {
		r := &p.rules[i]
		if r.Priority <= best {
			continue
		}
		if r.expr.eval(ctx).truthy() {
			best = r.Priority
		}
	}
	for i := range p.dyn {
		d := &p.dyn[i]
		if d.cap <= best {
			continue
		}
		if v := d.t.Priority(u); v > 0 {
			if v > d.cap {
				v = d.cap
			}
			if v > best {
				best = v
			}
		}
	}
	return best
}

// String renders the policy in the textual rule format accepted by Parse:
// rules first, then delegations.
func (p *Policy) String() string {
	var b strings.Builder
	for _, r := range p.rules {
		fmt.Fprintf(&b, "priority %d when %s\n", r.Priority, r.Predicate)
	}
	for _, d := range p.delegs {
		fmt.Fprintf(&b, "delegate '%s' priority %d\n", strings.ReplaceAll(string(d.Peer), "'", "''"), d.Cap)
	}
	return b.String()
}

// Parse reads a policy in textual form: one rule or delegation per line,
//
//	priority <n> when <predicate>
//	delegate <peer> priority <n>
//
// The delegated peer may be a bare identifier or a quoted string (a
// doubled single quote escapes a quote). Blank lines and lines starting
// with '#' or '--' are ignored.
func Parse(text string) (*Policy, error) {
	p := NewPolicy()
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "--") {
			continue
		}
		if rest, ok := cutKeyword(line, "delegate"); ok {
			if err := parseDelegation(p, rest); err != nil {
				return nil, fmt.Errorf("trust: line %d: %w", lineno, err)
			}
			continue
		}
		rest, ok := cutKeyword(line, "priority")
		if !ok {
			return nil, fmt.Errorf("trust: line %d: expected 'priority <n> when <predicate>' or 'delegate <peer> priority <n>'", lineno)
		}
		rest = strings.TrimSpace(rest)
		sp := strings.IndexFunc(rest, func(r rune) bool { return r == ' ' || r == '\t' })
		if sp < 0 {
			return nil, fmt.Errorf("trust: line %d: missing predicate", lineno)
		}
		n, err := strconv.Atoi(rest[:sp])
		if err != nil {
			return nil, fmt.Errorf("trust: line %d: bad priority %q", lineno, rest[:sp])
		}
		pred, ok := cutKeyword(strings.TrimSpace(rest[sp:]), "when")
		if !ok {
			return nil, fmt.Errorf("trust: line %d: expected 'when' after priority", lineno)
		}
		if err := p.Add(n, strings.TrimSpace(pred)); err != nil {
			return nil, fmt.Errorf("trust: line %d: %w", lineno, err)
		}
	}
	return p, sc.Err()
}

// parseDelegation parses the remainder of a `delegate <peer> priority <n>`
// line (everything after the keyword).
func parseDelegation(p *Policy, rest string) error {
	lx := &lexer{src: strings.TrimSpace(rest)}
	peerTok, err := lx.next()
	if err != nil {
		return err
	}
	var peer core.PeerID
	switch peerTok.kind {
	case tokString, tokIdent:
		peer = core.PeerID(peerTok.text)
	default:
		return fmt.Errorf("delegate needs a peer name, found %s", peerTok.kind)
	}
	kw, err := lx.next()
	if err != nil {
		return err
	}
	if kw.kind != tokIdent || lower(kw.text) != "priority" {
		return fmt.Errorf("expected 'priority <n>' after the delegated peer")
	}
	numTok, err := lx.next()
	if err != nil {
		return err
	}
	if numTok.kind != tokNumber {
		return fmt.Errorf("expected a delegation priority, found %s %q", numTok.kind, numTok.text)
	}
	n, err := strconv.Atoi(numTok.text)
	if err != nil {
		return fmt.Errorf("bad delegation priority %q", numTok.text)
	}
	if trailing, err := lx.next(); err != nil {
		return err
	} else if trailing.kind != tokEOF {
		return fmt.Errorf("unexpected trailing input %q", trailing.text)
	}
	return p.AddDelegation(peer, n)
}

// MustParse is Parse that panics on error.
func MustParse(text string) *Policy {
	p, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return p
}

// cutKeyword strips a leading case-insensitive keyword followed by a word
// boundary, returning the remainder.
func cutKeyword(s, kw string) (string, bool) {
	if len(s) < len(kw) || !strings.EqualFold(s[:len(kw)], kw) {
		return "", false
	}
	rest := s[len(kw):]
	if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
		return "", false
	}
	return rest, true
}
