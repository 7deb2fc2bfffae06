package trust

import (
	"strings"

	"orchestra/internal/core"
)

// val is the dynamic value domain of the predicate language: strings,
// numbers, booleans, and null (absent attribute).
type val struct {
	kind byte // 'n' null, 's' string, 'f' number, 'b' bool
	s    string
	f    float64
	b    bool
}

var (
	nullVal  = val{kind: 'n'}
	trueVal  = val{kind: 'b', b: true}
	falseVal = val{kind: 'b', b: false}
)

func strVal(s string) val  { return val{kind: 's', s: s} }
func numVal(f float64) val { return val{kind: 'f', f: f} }
func (v val) truthy() bool { return v.kind == 'b' && v.b }

func boolVal(b bool) val {
	if b {
		return trueVal
	}
	return falseVal
}

// equalVal compares for (in)equality; values of different kinds are unequal.
func equalVal(a, b val) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case 's':
		return a.s == b.s
	case 'f':
		return a.f == b.f
	case 'b':
		return a.b == b.b
	default:
		return true // null == null
	}
}

// compareVal orders two values; ok is false for incomparable kinds.
func compareVal(a, b val) (int, bool) {
	if a.kind != b.kind || a.kind == 'n' || a.kind == 'b' {
		return 0, false
	}
	switch a.kind {
	case 's':
		return strings.Compare(a.s, b.s), true
	case 'f':
		switch {
		case a.f < b.f:
			return -1, true
		case a.f > b.f:
			return 1, true
		default:
			return 0, true
		}
	}
	return 0, false
}

// evalCtx carries the update under evaluation and the optional schema used
// to resolve attribute names.
type evalCtx struct {
	u      core.Update
	schema *core.Schema
}

// attr resolves an attribute of the update's "current" tuple (the inserted
// or deleted tuple, or the source of a modification); newAttr resolves
// against the replacement tuple of a modification (falling back to the
// current tuple for inserts/deletes).
func (c *evalCtx) attr(t core.Tuple, name string, idx int, named bool) val {
	if named {
		if c.schema == nil {
			return nullVal
		}
		rel, ok := c.schema.Relation(c.u.Rel)
		if !ok {
			return nullVal
		}
		idx = rel.AttrIndex(name)
	}
	if idx < 0 || idx >= len(t) {
		return nullVal
	}
	return coreValueToVal(t[idx])
}

func coreValueToVal(v core.Value) val {
	switch v.Kind() {
	case core.KindString:
		return strVal(v.Str())
	case core.KindInt:
		return numVal(float64(v.Int()))
	case core.KindFloat:
		return numVal(v.Float())
	case core.KindBool:
		return boolVal(v.Bool())
	default:
		return nullVal
	}
}

// expr is a parsed predicate expression node. A rule's predicate is
// evaluated only by walking its expr tree.
type expr interface {
	eval(c *evalCtx) val
}

type litExpr struct{ v val }

func (e *litExpr) eval(*evalCtx) val { return e.v }

// fieldKind selects a built-in field of the update.
type fieldKind uint8

const (
	fieldOrigin fieldKind = iota
	fieldRel
	fieldOp
)

type fieldExpr struct{ f fieldKind }

func (e *fieldExpr) eval(c *evalCtx) val {
	switch e.f {
	case fieldOrigin:
		return strVal(string(c.u.Origin))
	case fieldRel:
		return strVal(c.u.Rel)
	default:
		switch c.u.Op {
		case core.OpInsert:
			return strVal("insert")
		case core.OpDelete:
			return strVal("delete")
		case core.OpModify:
			return strVal("modify")
		}
		return nullVal
	}
}

// attrExpr reads attr('name') / attr(i) of the current tuple, or
// newattr(...) of the replacement tuple.
type attrExpr struct {
	name    string
	idx     int
	named   bool
	replace bool // newattr
}

func (e *attrExpr) eval(c *evalCtx) val {
	t := c.u.Tuple
	if e.replace && c.u.New != nil {
		t = c.u.New
	}
	return c.attr(t, e.name, e.idx, e.named)
}

type cmpExpr struct {
	op   tokenKind
	l, r expr
}

func (e *cmpExpr) eval(c *evalCtx) val {
	lv, rv := e.l.eval(c), e.r.eval(c)
	switch e.op {
	case tokEq:
		return boolVal(equalVal(lv, rv))
	case tokNe:
		return boolVal(!equalVal(lv, rv))
	}
	cmp, ok := compareVal(lv, rv)
	if !ok {
		return falseVal
	}
	switch e.op {
	case tokLt:
		return boolVal(cmp < 0)
	case tokLe:
		return boolVal(cmp <= 0)
	case tokGt:
		return boolVal(cmp > 0)
	case tokGe:
		return boolVal(cmp >= 0)
	}
	return falseVal
}

type inExpr struct {
	l    expr
	opts []val
}

func (e *inExpr) eval(c *evalCtx) val {
	lv := e.l.eval(c)
	for _, o := range e.opts {
		if equalVal(lv, o) {
			return trueVal
		}
	}
	return falseVal
}

// likeExpr matches SQL LIKE patterns with % (any run) and _ (any one rune).
type likeExpr struct {
	l       expr
	pattern string
}

func (e *likeExpr) eval(c *evalCtx) val {
	lv := e.l.eval(c)
	if lv.kind != 's' {
		return falseVal
	}
	return boolVal(likeMatch(e.pattern, lv.s))
}

// likeMatch implements LIKE over runes: an iterative two-pointer match
// that, on a mismatch, backtracks to the last '%' and lets it absorb one
// more rune.
func likeMatch(pattern, s string) bool {
	p, str := []rune(pattern), []rune(s)
	pi, si := 0, 0
	star, starSi := -1, 0
	for si < len(str) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == str[si]):
			pi++
			si++
		case pi < len(p) && p[pi] == '%':
			star, starSi = pi, si
			pi++
		case star >= 0:
			starSi++
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

type notExpr struct{ e expr }

func (e *notExpr) eval(c *evalCtx) val { return boolVal(!e.e.eval(c).truthy()) }

type andExpr struct{ l, r expr }

func (e *andExpr) eval(c *evalCtx) val {
	if !e.l.eval(c).truthy() {
		return falseVal
	}
	return boolVal(e.r.eval(c).truthy())
}

type orExpr struct{ l, r expr }

func (e *orExpr) eval(c *evalCtx) val {
	if e.l.eval(c).truthy() {
		return trueVal
	}
	return boolVal(e.r.eval(c).truthy())
}
