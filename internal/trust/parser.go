package trust

import "strconv"

// parser is a recursive-descent parser for the predicate language with the
// grammar (lowest precedence first):
//
//	expr    := and ('or' and)*
//	and     := unary ('and' unary)*
//	unary   := 'not' unary | primary
//	primary := '(' expr ')' | 'true' | 'false' | comparison
//	comparison := operand (cmpop operand | 'in' '(' literal,* ')' | 'like' string)?
//	operand := 'origin' | 'rel' | 'op' | attr | newattr | literal
//	attr    := ('attr' | 'newattr') '(' (string | number) ')'
type parser struct {
	lex *lexer
	tok token
}

func newParser(src string) (*parser, error) {
	p := &parser{lex: &lexer{src: src}}
	return p, p.advance()
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return p.lex.errorf(p.tok.pos, format, args...)
}

func (p *parser) expect(k tokenKind) error {
	if p.tok.kind != k {
		return p.errorf("expected %s, found %s %q", k, p.tok.kind, p.tok.text)
	}
	return p.advance()
}

// isKeyword reports whether the current token is the given (lowercase)
// keyword identifier.
func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokIdent && lower(p.tok.text) == kw
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// parseExpr parses a full expression and requires EOF afterwards when
// topLevel is set.
func (p *parser) parseExpr() (expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &orExpr{l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &andExpr{l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (expr, error) {
	if p.isKeyword("not") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &notExpr{e: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr, error) {
	if p.tok.kind == tokLParen {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	operand, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	switch {
	case p.tok.kind == tokEq, p.tok.kind == tokNe, p.tok.kind == tokLt,
		p.tok.kind == tokLe, p.tok.kind == tokGt, p.tok.kind == tokGe:
		op := p.tok.kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return &cmpExpr{op: op, l: operand, r: right}, nil
	case p.isKeyword("in"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		var opts []val
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			opts = append(opts, lit)
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &inExpr{l: operand, opts: opts}, nil
	case p.isKeyword("like"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokString {
			return nil, p.errorf("like requires a string pattern")
		}
		pat := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &likeExpr{l: operand, pattern: pat}, nil
	default:
		// A bare operand is a boolean expression (true/false literal or a
		// field, which is truthy only if it is the boolean true).
		return operand, nil
	}
}

func (p *parser) parseOperand() (expr, error) {
	switch p.tok.kind {
	case tokString:
		e := &litExpr{v: strVal(p.tok.text)}
		return e, p.advance()
	case tokNumber:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", p.tok.text)
		}
		e := &litExpr{v: numVal(f)}
		return e, p.advance()
	case tokIdent:
		switch lower(p.tok.text) {
		case "true":
			return &litExpr{v: trueVal}, p.advance()
		case "false":
			return &litExpr{v: falseVal}, p.advance()
		case "null":
			return &litExpr{v: nullVal}, p.advance()
		case "origin":
			return &fieldExpr{f: fieldOrigin}, p.advance()
		case "rel", "relation":
			return &fieldExpr{f: fieldRel}, p.advance()
		case "op", "operation":
			return &fieldExpr{f: fieldOp}, p.advance()
		case "attr", "newattr":
			replace := lower(p.tok.text) == "newattr"
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect(tokLParen); err != nil {
				return nil, err
			}
			e := &attrExpr{replace: replace}
			switch p.tok.kind {
			case tokString:
				e.name, e.named = p.tok.text, true
			case tokNumber:
				i, err := strconv.Atoi(p.tok.text)
				if err != nil {
					return nil, p.errorf("attribute index must be an integer")
				}
				e.idx = i
			default:
				return nil, p.errorf("attr() takes an attribute name or index")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return e, nil
		default:
			return nil, p.errorf("unknown identifier %q", p.tok.text)
		}
	default:
		return nil, p.errorf("expected an operand, found %s", p.tok.kind)
	}
}

func (p *parser) parseLiteral() (val, error) {
	switch p.tok.kind {
	case tokString:
		v := strVal(p.tok.text)
		return v, p.advance()
	case tokNumber:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return val{}, p.errorf("bad number %q", p.tok.text)
		}
		return numVal(f), p.advance()
	case tokIdent:
		switch lower(p.tok.text) {
		case "true":
			return trueVal, p.advance()
		case "false":
			return falseVal, p.advance()
		case "null":
			return nullVal, p.advance()
		}
	}
	return val{}, p.errorf("expected a literal, found %s %q", p.tok.kind, p.tok.text)
}

// compile parses a complete predicate expression.
func compile(src string) (expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected trailing input %q", p.tok.text)
	}
	return e, nil
}
