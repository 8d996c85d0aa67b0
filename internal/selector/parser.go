package selector

import (
	"fmt"
	"strconv"
	"strings"
)

// Selector is a compiled subscription selector. It is immutable and safe
// for concurrent use by the broker's matching goroutines.
type Selector struct {
	match eval // nil for the match-everything selector
	src   string
}

// Parse compiles a selector expression. The empty string compiles to a
// selector that matches every event (no content filter), mirroring a
// SUBSCRIBE frame without a selector header. A selector of more than 256
// tokens is a SyntaxError at its 257th.
func Parse(input string) (*Selector, error) {
	if strings.Trim(input, space) == "" {
		return &Selector{}, nil
	}
	p := &parser{input: input}
	p.next()
	match := p.parse(levelOr)
	if p.tok.kind != tokEOF {
		p.failf("unexpected trailing input")
	}
	if p.err != nil {
		return nil, p.err
	}
	return &Selector{match: match, src: input}, nil
}

// MatchesAttrs reports whether the selector accepts an event with these
// attributes. Per SQL three-valued logic an event matches only when the
// expression is true; false and unknown both reject.
func (s *Selector) MatchesAttrs(attrs map[string]string) bool {
	if s == nil || s.match == nil {
		return true
	}
	return truth(s.match(attrs)).b
}

// Source returns the original selector text.
func (s *Selector) Source() string {
	if s == nil {
		return ""
	}
	return s.src
}

// parser compiles as it parses: each production returns the closure that
// evaluates it, so no syntax tree outlives Parse.
type parser struct {
	input  string
	pos    int   // offset of the next unscanned byte
	tok    token // current token
	tokens int   // tokens scanned so far
	err    error // first error; once set, tok stays at EOF
}

// Binding levels, loosest first. NOT, comparison and unary parse
// themselves; the other four are the left-associative binary levels.
const (
	levelOr = iota
	levelAnd
	levelNot
	levelComparison
	levelSum
	levelProduct
	levelUnary
)

// binaries are the left-associative binary operators by symbol.
var binaries = map[string]struct {
	level   int
	combine func(l, r eval) eval
}{
	"OR":  {levelOr, or},
	"AND": {levelAnd, and},
	"+":   {levelSum, arith(func(x, y float64) value { return numValue(x + y) })},
	"-":   {levelSum, arith(func(x, y float64) value { return numValue(x - y) })},
	"*":   {levelProduct, arith(func(x, y float64) value { return numValue(x * y) })},
	"/": {levelProduct, arith(func(x, y float64) value {
		if y == 0 {
			return value{} // division by zero is NULL
		}
		return numValue(x / y)
	})},
}

// comparisons are the comparison operators by symbol.
var comparisons = map[string]cmpOp{"=": eq, "<>": ne, "<": lt, "<=": le, ">": gt, ">=": ge}

// fail records err if it is the first and ends the token stream, so the
// productions still on the stack return without consuming more input.
func (p *parser) fail(err error) {
	if p.err == nil {
		p.err = err
	}
	p.tok = token{kind: tokEOF, pos: p.tok.pos}
}

// failf fails with a SyntaxError at the current token.
func (p *parser) failf(format string, args ...any) {
	p.fail(&SyntaxError{Input: p.input, Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...)})
}

// symbol returns the current token's text if it is a symbol, else "".
func (p *parser) symbol() string {
	if p.tok.kind != tokSymbol {
		return ""
	}
	return p.tok.text
}

// accept consumes the current token if it is the symbol sym.
func (p *parser) accept(sym string) bool {
	if p.symbol() != sym {
		return false
	}
	p.next()
	return true
}

// expect consumes the symbol sym or fails.
func (p *parser) expect(sym, what string) {
	if !p.accept(sym) {
		p.failf("expected %s", what)
	}
}

// parse compiles the expression binding at least as tightly as level.
func (p *parser) parse(level int) eval {
	switch level {
	case levelNot:
		if p.accept("NOT") {
			return not(p.parse(levelNot))
		}
		return p.parse(levelComparison)
	case levelComparison:
		return p.comparison()
	case levelUnary:
		return p.unary()
	}
	l := p.parse(level + 1)
	for {
		op, ok := binaries[p.symbol()]
		if !ok || op.level != level {
			return l
		}
		p.next()
		l = op.combine(l, p.parse(level+1))
	}
}

// comparison compiles a sum and the comparison, BETWEEN, IN, LIKE or
// IS NULL test that may follow it.
func (p *parser) comparison() eval {
	l := p.parse(levelSum)
	negated := p.accept("NOT")
	if sym := p.symbol(); negated && sym != "BETWEEN" && sym != "IN" && sym != "LIKE" {
		p.failf("expected BETWEEN, IN or LIKE after NOT")
	}
	if op, ok := comparisons[p.symbol()]; ok {
		p.next()
		return compared(op, l, p.parse(levelSum))
	}
	var e eval
	switch {
	case p.accept("BETWEEN"):
		lo := p.parse(levelSum)
		p.expect("AND", "AND in BETWEEN")
		e = between(l, lo, p.parse(levelSum))
	case p.accept("IN"):
		p.expect("(", "( after IN")
		var items []string
		for {
			if p.tok.kind != tokString {
				p.failf("expected string literal in IN list")
				break
			}
			items = append(items, p.tok.text)
			p.next()
			if !p.accept(",") {
				break
			}
		}
		p.expect(")", ") after IN list")
		e = inList(l, items)
	case p.accept("LIKE"):
		pattern, escape := p.tok.text, ""
		if p.tok.kind != tokString {
			p.failf("expected string pattern after LIKE")
		}
		if len(pattern) > maxLikePattern {
			p.failf("LIKE pattern longer than %d bytes", maxLikePattern)
			return l // compiling it is the cost the bound refuses
		}
		p.next()
		if p.accept("ESCAPE") {
			escape = p.tok.text
			if p.tok.kind != tokString {
				p.failf("expected string after ESCAPE")
			}
			p.next()
		}
		re, err := compileLike(pattern, escape)
		if err != nil {
			p.fail(err)
		}
		return like(l, re, negated)
	case p.accept("IS"):
		negated = p.accept("NOT")
		p.expect("NULL", "NULL after IS")
		e = func(attrs map[string]string) value { return boolValue(l(attrs).kind == kindNull) }
	default:
		return l
	}
	if negated {
		return not(e)
	}
	return e
}

// unary compiles a signed primary.
func (p *parser) unary() eval {
	switch {
	case p.accept("-"):
		e := p.unary()
		return func(attrs map[string]string) value {
			if f, ok := e(attrs).asNumber(); ok {
				return numValue(-f)
			}
			return value{}
		}
	case p.accept("+"):
		return p.unary()
	}
	return p.primary()
}

// primary compiles a parenthesised expression, a literal or an attribute.
func (p *parser) primary() eval {
	t := p.tok
	var v value
	switch {
	case p.accept("("):
		e := p.parse(levelOr)
		p.expect(")", "closing parenthesis")
		return e
	case t.kind == tokIdent:
		p.next()
		name := t.text
		return func(attrs map[string]string) value {
			if s, ok := attrs[name]; ok {
				return strValue(s)
			}
			return value{}
		}
	case t.kind == tokString:
		v = strValue(t.text)
	case t.kind == tokNumber:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			p.failf("malformed number %q", t.text)
		}
		v = numValue(f)
	case p.symbol() == "TRUE" || p.symbol() == "FALSE":
		v = boolValue(t.text == "TRUE")
	default:
		p.failf("expected expression")
	}
	p.next()
	return func(map[string]string) value { return v }
}
