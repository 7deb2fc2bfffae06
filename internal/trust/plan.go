package trust

import (
	"sort"

	"orchestra/internal/core"
)

// plan is a policy's rule list lowered for evaluation. Three passes run
// once, when the plan is built, not per decision:
//
//   - constant floor: a leaf-free predicate is decided now; an always-true
//     rule raises the floor to its priority, an always-false rule vanishes;
//   - origin dispatch: rules of the shape `origin = 'x'` or
//     `origin in (...)` collapse into one map lookup;
//   - early exit: the remaining general rules are sorted by priority
//     descending, so evaluation stops at the first match (the first match
//     IS the maximum) and skips the tail once the running best dominates it.
//
// A general rule keeps its parsed predicate and is evaluated by walking it
// (expr.eval), exactly as the reference evaluator does. A plan is
// immutable once built and safe for concurrent use.
type plan struct {
	// floor is the priority of the highest always-true rule (0 if none).
	floor int
	// origins is the maximum origin-dispatched rule priority per origin.
	origins map[core.PeerID]int
	// rules are the remaining general rules, sorted by priority descending.
	rules []Rule
	// dyn are delegated non-textual trust sources, sorted by cap
	// descending so a dominated tail is skipped.
	dyn    []dynSource
	schema *core.Schema
}

// dynSource is a delegated trust source that could not be inlined as
// rules (a non-textual core.Trust): it contributes min(cap, priority).
type dynSource struct {
	t   core.Trust
	cap int
}

// newPlan lowers a rule list (plus delegated dynamic sources). The result
// is decision-equivalent to interpreting the rules in order: the
// differential tests pin this.
func newPlan(rules []Rule, dyn []dynSource, schema *core.Schema) *plan {
	pl := &plan{schema: schema}
	for _, r := range rules {
		if v, ok := foldConst(r.expr); ok {
			if v.truthy() && r.Priority > pl.floor {
				pl.floor = r.Priority
			}
			continue
		}
		if origins, ok := originDispatch(r.expr); ok {
			if pl.origins == nil {
				pl.origins = make(map[core.PeerID]int)
			}
			for _, o := range origins {
				if r.Priority > pl.origins[o] {
					pl.origins[o] = r.Priority
				}
			}
			continue
		}
		pl.rules = append(pl.rules, r)
	}
	sort.SliceStable(pl.rules, func(i, j int) bool { return pl.rules[i].Priority > pl.rules[j].Priority })
	pl.dyn = append([]dynSource(nil), dyn...)
	sort.SliceStable(pl.dyn, func(i, j int) bool { return pl.dyn[i].cap > pl.dyn[j].cap })
	return pl
}

// priority evaluates the plan against one update: the planned equivalent
// of the reference evaluator's max-of-matching-rules walk.
func (pl *plan) priority(u core.Update) int {
	best := pl.floor
	if p := pl.origins[u.Origin]; p > best {
		best = p
	}
	if len(pl.rules) > 0 && pl.rules[0].Priority > best {
		ctx := &evalCtx{u: u, schema: pl.schema}
		for i := range pl.rules {
			r := &pl.rules[i]
			if r.Priority <= best {
				break // sorted descending: nothing below can raise best
			}
			if r.expr.eval(ctx).truthy() {
				best = r.Priority // first match is the max of the remainder
				break
			}
		}
	}
	for i := range pl.dyn {
		d := &pl.dyn[i]
		if d.cap <= best {
			break // sorted descending: min(cap, ·) cannot raise best
		}
		if p := d.t.Priority(u); p > 0 {
			if p > d.cap {
				p = d.cap
			}
			if p > best {
				best = p
			}
		}
	}
	return best
}

// foldConst evaluates a leaf-free predicate now. The language is pure, so
// evaluating against an empty context is exact.
func foldConst(e expr) (val, bool) {
	if hasLeaves(e) {
		return val{}, false
	}
	return e.eval(&evalCtx{}), true
}

func hasLeaves(e expr) bool {
	switch n := e.(type) {
	case *litExpr:
		return false
	case *fieldExpr, *attrExpr:
		return true
	case *cmpExpr:
		return hasLeaves(n.l) || hasLeaves(n.r)
	case *inExpr:
		return hasLeaves(n.l)
	case *likeExpr:
		return hasLeaves(n.l)
	case *notExpr:
		return hasLeaves(n.e)
	case *andExpr:
		return hasLeaves(n.l) || hasLeaves(n.r)
	case *orExpr:
		return hasLeaves(n.l) || hasLeaves(n.r)
	}
	return true // unknown node: treat as dynamic
}

// originDispatch recognizes predicates decidable from the origin alone
// with equality semantics: `origin = '<peer>'` (either side) and
// `origin in (...)`. Non-string members can never equal the (string)
// origin and are dropped; a rule with no string members never fires.
func originDispatch(e expr) ([]core.PeerID, bool) {
	switch n := e.(type) {
	case *cmpExpr:
		if n.op != tokEq {
			return nil, false
		}
		var lit *litExpr
		if f, ok := n.l.(*fieldExpr); ok && f.f == fieldOrigin {
			lit, _ = n.r.(*litExpr)
		} else if f, ok := n.r.(*fieldExpr); ok && f.f == fieldOrigin {
			lit, _ = n.l.(*litExpr)
		}
		if lit == nil || lit.v.kind != 's' {
			return nil, false
		}
		return []core.PeerID{core.PeerID(lit.v.s)}, true
	case *inExpr:
		f, ok := n.l.(*fieldExpr)
		if !ok || f.f != fieldOrigin {
			return nil, false
		}
		out := []core.PeerID{}
		for _, o := range n.opts {
			if o.kind == 's' {
				out = append(out, core.PeerID(o.s))
			}
		}
		return out, true
	}
	return nil, false
}
