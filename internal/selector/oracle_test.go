package selector

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// This file keeps the selector interpreter production code ran before
// Parse compiled straight to closures: a lexer, a parser building an AST
// of expression nodes, and a tree-walking evaluator in Kleene
// three-valued logic. It is the reference the differential test and
// FuzzSelectorOracle compare Parse and MatchesAttrs against. The code is
// unchanged except that its package-level names carry an o prefix
// (oracleParse and oracleSelector for Parse and Selector) so it can sit
// beside the package it checks, it shares SyntaxError with it, and
// MustParse, which nothing here calls, is left out.

// oracleSelector is a compiled subscription selector. It is immutable and safe
// for concurrent use by the broker's matching goroutines.
type oracleSelector struct {
	root oExpr
	src  string
}

// oracleParse compiles a selector expression. The empty string compiles to a
// selector that matches every event (no content filter), mirroring a
// SUBSCRIBE frame without a selector header.
func oracleParse(input string) (*oracleSelector, error) {
	if oIsBlank(input) {
		return &oracleSelector{src: ""}, nil
	}
	p := &oParser{lex: oLexer{input: input}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.cur.kind != oTokEOF {
		return nil, p.errorf("unexpected trailing input")
	}
	return &oracleSelector{root: root, src: input}, nil
}

func oIsBlank(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}

// Matches evaluates the selector against the environment. Per SQL
// three-valued logic an event matches only when the expression is true;
// false and unknown both reject.
func (s *oracleSelector) Matches(env oEnv) bool {
	if s == nil || s.root == nil {
		return true
	}
	return oValueToTri(s.root.eval(env)).isTrue()
}

// MatchesAttrs is a convenience wrapper over Matches for plain maps.
func (s *oracleSelector) MatchesAttrs(attrs map[string]string) bool {
	return s.Matches(oMapEnv(attrs))
}

// Source returns the original selector text.
func (s *oracleSelector) Source() string {
	if s == nil {
		return ""
	}
	return s.src
}

// String returns a normalised (fully parenthesised) rendering of the
// selector, or "" for the match-everything selector.
func (s *oracleSelector) String() string {
	if s == nil || s.root == nil {
		return ""
	}
	return s.root.String()
}

// oParser is a recursive-descent parser over the lexer's token stream.
type oParser struct {
	lex oLexer
	cur oToken
}

func (p *oParser) advance() error {
	tok, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = tok
	return nil
}

func (p *oParser) errorf(format string, args ...any) error {
	return p.lex.errorf(p.cur.pos, format, args...)
}

// expect consumes a token of the given kind or fails.
func (p *oParser) expect(kind oTokenKind, what string) error {
	if p.cur.kind != kind {
		return p.errorf("expected %s", what)
	}
	return p.advance()
}

// parseOr := and (OR and)*
func (p *oParser) parseOr() (oExpr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == oTokOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = oBinaryExpr{op: oOpOr, l: left, r: right}
	}
	return left, nil
}

// parseAnd := not (AND not)*
func (p *oParser) parseAnd() (oExpr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == oTokAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = oBinaryExpr{op: oOpAnd, l: left, r: right}
	}
	return left, nil
}

// parseNot := NOT parseNot | comparison
func (p *oParser) parseNot() (oExpr, error) {
	if p.cur.kind == oTokNot {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return oNotExpr{inner: inner}, nil
	}
	return p.parseComparison()
}

// parseComparison := additive ( (=|<>|<|<=|>|>=) additive
//
//	| [NOT] BETWEEN additive AND additive
//	| [NOT] IN ( strings )
//	| [NOT] LIKE string [ESCAPE string]
//	| IS [NOT] NULL )?
func (p *oParser) parseComparison() (oExpr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}

	negated := false
	if p.cur.kind == oTokNot {
		// Lookahead for NOT BETWEEN / NOT IN / NOT LIKE.
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch p.cur.kind {
		case oTokBetween, oTokIn, oTokLike:
			negated = true
		default:
			return nil, p.errorf("expected BETWEEN, IN or LIKE after NOT")
		}
	}

	switch p.cur.kind {
	case oTokEq, oTokNeq, oTokLt, oTokLe, oTokGt, oTokGe:
		op := map[oTokenKind]oBinaryOp{
			oTokEq: oOpEq, oTokNeq: oOpNeq, oTokLt: oOpLt,
			oTokLe: oOpLe, oTokGt: oOpGt, oTokGe: oOpGe,
		}[p.cur.kind]
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return oBinaryExpr{op: op, l: left, r: right}, nil

	case oTokBetween:
		if err := p.advance(); err != nil {
			return nil, err
		}
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expect(oTokAnd, "AND in BETWEEN"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return oBetweenExpr{subject: left, lo: lo, hi: hi, negated: negated}, nil

	case oTokIn:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(oTokLParen, "( after IN"); err != nil {
			return nil, err
		}
		var items []string
		for {
			if p.cur.kind != oTokString {
				return nil, p.errorf("expected string literal in IN list")
			}
			items = append(items, p.cur.text)
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.cur.kind == oTokComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expect(oTokRParen, ") after IN list"); err != nil {
			return nil, err
		}
		return oInExpr{subject: left, items: items, negated: negated}, nil

	case oTokLike:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.kind != oTokString {
			return nil, p.errorf("expected string pattern after LIKE")
		}
		pattern := p.cur.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		escape := ""
		if p.cur.kind == oTokEscape {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.cur.kind != oTokString {
				return nil, p.errorf("expected string after ESCAPE")
			}
			escape = p.cur.text
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		re, err := oCompileLike(pattern, escape)
		if err != nil {
			return nil, err
		}
		return oLikeExpr{subject: left, pattern: pattern, escape: escape, negated: negated, re: re}, nil

	case oTokIs:
		if err := p.advance(); err != nil {
			return nil, err
		}
		isNot := false
		if p.cur.kind == oTokNot {
			isNot = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expect(oTokNull, "NULL after IS"); err != nil {
			return nil, err
		}
		return oIsNullExpr{subject: left, negated: isNot}, nil
	}
	return left, nil
}

// parseAdditive := multiplicative ( (+|-) multiplicative )*
func (p *oParser) parseAdditive() (oExpr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == oTokPlus || p.cur.kind == oTokMinus {
		op := oOpAdd
		if p.cur.kind == oTokMinus {
			op = oOpSub
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = oBinaryExpr{op: op, l: left, r: right}
	}
	return left, nil
}

// parseMultiplicative := unary ( (*|/) unary )*
func (p *oParser) parseMultiplicative() (oExpr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == oTokStar || p.cur.kind == oTokSlash {
		op := oOpMul
		if p.cur.kind == oTokSlash {
			op = oOpDiv
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = oBinaryExpr{op: op, l: left, r: right}
	}
	return left, nil
}

// parseUnary := (+|-) unary | primary
func (p *oParser) parseUnary() (oExpr, error) {
	switch p.cur.kind {
	case oTokMinus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return oNegExpr{inner: inner}, nil
	case oTokPlus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseUnary()
	}
	return p.parsePrimary()
}

// parsePrimary := ( or ) | literal | identifier
func (p *oParser) parsePrimary() (oExpr, error) {
	switch p.cur.kind {
	case oTokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(oTokRParen, "closing parenthesis"); err != nil {
			return nil, err
		}
		return inner, nil
	case oTokString:
		lit := oStringLit{val: p.cur.text}
		return lit, p.advance()
	case oTokNumber:
		f, err := strconv.ParseFloat(p.cur.text, 64)
		if err != nil {
			return nil, p.errorf("malformed number %q", p.cur.text)
		}
		lit := oNumberLit{val: f, text: p.cur.text}
		return lit, p.advance()
	case oTokTrue:
		return oBoolLit{val: true}, p.advance()
	case oTokFalse:
		return oBoolLit{val: false}, p.advance()
	case oTokIdent:
		id := oIdentExpr{name: p.cur.text}
		return id, p.advance()
	default:
		return nil, p.errorf("expected expression")
	}
}

// oExpr is a parsed selector expression node. Nodes evaluate to a value
// under an attribute environment and can print themselves back to selector
// syntax (used by tests to verify parse/print round-trips and by the broker
// to normalise subscriptions).
type oExpr interface {
	eval(env oEnv) oValue
	String() string
}

// oEnv supplies attribute values during evaluation. Lookup returns the
// attribute value and whether the attribute exists; missing attributes are
// SQL NULL.
type oEnv interface {
	Lookup(name string) (string, bool)
}

// oMapEnv adapts a plain map to Env.
type oMapEnv map[string]string

// Lookup implements Env.
func (m oMapEnv) Lookup(name string) (string, bool) {
	v, ok := m[name]
	return v, ok
}

// ---- literals and identifiers ----

type oIdentExpr struct{ name string }

func (e oIdentExpr) String() string { return e.name }

type oStringLit struct{ val string }

func (e oStringLit) String() string {
	return "'" + strings.ReplaceAll(e.val, "'", "''") + "'"
}

type oNumberLit struct {
	val  float64
	text string // original spelling, preserved for printing
}

func (e oNumberLit) String() string { return e.text }

type oBoolLit struct{ val bool }

func (e oBoolLit) String() string {
	if e.val {
		return "TRUE"
	}
	return "FALSE"
}

// ---- compound expressions ----

// oBinaryOp enumerates binary operators.
type oBinaryOp int

const (
	oOpEq oBinaryOp = iota + 1
	oOpNeq
	oOpLt
	oOpLe
	oOpGt
	oOpGe
	oOpAnd
	oOpOr
	oOpAdd
	oOpSub
	oOpMul
	oOpDiv
)

func (op oBinaryOp) String() string {
	switch op {
	case oOpEq:
		return "="
	case oOpNeq:
		return "<>"
	case oOpLt:
		return "<"
	case oOpLe:
		return "<="
	case oOpGt:
		return ">"
	case oOpGe:
		return ">="
	case oOpAnd:
		return "AND"
	case oOpOr:
		return "OR"
	case oOpAdd:
		return "+"
	case oOpSub:
		return "-"
	case oOpMul:
		return "*"
	case oOpDiv:
		return "/"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

type oBinaryExpr struct {
	op   oBinaryOp
	l, r oExpr
}

func (e oBinaryExpr) String() string {
	return "(" + e.l.String() + " " + e.op.String() + " " + e.r.String() + ")"
}

type oNotExpr struct{ inner oExpr }

func (e oNotExpr) String() string { return "(NOT " + e.inner.String() + ")" }

type oNegExpr struct{ inner oExpr }

func (e oNegExpr) String() string { return "(-" + e.inner.String() + ")" }

type oBetweenExpr struct {
	subject oExpr
	lo, hi  oExpr
	negated bool
}

func (e oBetweenExpr) String() string {
	op := " BETWEEN "
	if e.negated {
		op = " NOT BETWEEN "
	}
	return "(" + e.subject.String() + op + e.lo.String() + " AND " + e.hi.String() + ")"
}

type oInExpr struct {
	subject oExpr
	items   []string
	negated bool
}

func (e oInExpr) String() string {
	var b strings.Builder
	b.WriteString("(" + e.subject.String())
	if e.negated {
		b.WriteString(" NOT")
	}
	b.WriteString(" IN (")
	for i, item := range e.items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(oStringLit{item}.String())
	}
	b.WriteString("))")
	return b.String()
}

type oLikeExpr struct {
	subject oExpr
	pattern string
	escape  string // "" when no ESCAPE clause
	negated bool
	re      *regexp.Regexp // compiled at parse time
}

func (e oLikeExpr) String() string {
	var b strings.Builder
	b.WriteString("(" + e.subject.String())
	if e.negated {
		b.WriteString(" NOT")
	}
	b.WriteString(" LIKE " + oStringLit{e.pattern}.String())
	if e.escape != "" {
		b.WriteString(" ESCAPE " + oStringLit{e.escape}.String())
	}
	b.WriteString(")")
	return b.String()
}

type oIsNullExpr struct {
	subject oExpr
	negated bool // IS NOT NULL
}

func (e oIsNullExpr) String() string {
	if e.negated {
		return "(" + e.subject.String() + " IS NOT NULL)"
	}
	return "(" + e.subject.String() + " IS NULL)"
}

// oCompileLike translates a SQL LIKE pattern ('%' any run, '_' any one
// character, with optional escape character) into an anchored regexp.
func oCompileLike(pattern, escape string) (*regexp.Regexp, error) {
	var esc byte
	hasEsc := false
	if escape != "" {
		if len(escape) != 1 {
			return nil, fmt.Errorf("selector: ESCAPE must be a single character, got %q", escape)
		}
		esc = escape[0]
		hasEsc = true
	}
	var b strings.Builder
	b.WriteString(`(?s)\A`)
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		if hasEsc && c == esc {
			i++
			if i >= len(pattern) {
				return nil, fmt.Errorf("selector: dangling escape in LIKE pattern %q", pattern)
			}
			b.WriteString(regexp.QuoteMeta(string(pattern[i])))
			continue
		}
		switch c {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(c)))
		}
	}
	b.WriteString(`\z`)
	return regexp.Compile(b.String())
}

// oTokenKind enumerates lexical token types.
type oTokenKind int

const (
	oTokEOF oTokenKind = iota + 1
	oTokIdent
	oTokString
	oTokNumber
	oTokEq     // =
	oTokNeq    // <>
	oTokLt     // <
	oTokLe     // <=
	oTokGt     // >
	oTokGe     // >=
	oTokPlus   // +
	oTokMinus  // -
	oTokStar   // *
	oTokSlash  // /
	oTokLParen // (
	oTokRParen // )
	oTokComma  // ,

	// Keywords (case-insensitive).
	oTokAnd
	oTokOr
	oTokNot
	oTokBetween
	oTokIn
	oTokLike
	oTokIs
	oTokNull
	oTokEscape
	oTokTrue
	oTokFalse
)

var oKeywords = map[string]oTokenKind{
	"AND":     oTokAnd,
	"OR":      oTokOr,
	"NOT":     oTokNot,
	"BETWEEN": oTokBetween,
	"IN":      oTokIn,
	"LIKE":    oTokLike,
	"IS":      oTokIs,
	"NULL":    oTokNull,
	"ESCAPE":  oTokEscape,
	"TRUE":    oTokTrue,
	"FALSE":   oTokFalse,
}

// oToken is a lexical token with its source position for error reporting.
type oToken struct {
	kind oTokenKind
	text string // literal text: identifier name, string contents, number
	pos  int
}

// oLexer scans a selector expression into tokens.
type oLexer struct {
	input string
	pos   int
}

func (l *oLexer) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Input: l.input, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func oIsDigit(c byte) bool { return c >= '0' && c <= '9' }

func oIsIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func oIsIdentPart(c byte) bool {
	return oIsIdentStart(c) || oIsDigit(c) || c == '.' || c == '-'
}

// next scans and returns the next token.
func (l *oLexer) next() (oToken, error) {
	for l.pos < len(l.input) && (l.input[l.pos] == ' ' || l.input[l.pos] == '\t' || l.input[l.pos] == '\n' || l.input[l.pos] == '\r') {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.input) {
		return oToken{kind: oTokEOF, pos: start}, nil
	}
	c := l.input[l.pos]
	switch {
	case c == '(':
		l.pos++
		return oToken{kind: oTokLParen, pos: start}, nil
	case c == ')':
		l.pos++
		return oToken{kind: oTokRParen, pos: start}, nil
	case c == ',':
		l.pos++
		return oToken{kind: oTokComma, pos: start}, nil
	case c == '+':
		l.pos++
		return oToken{kind: oTokPlus, pos: start}, nil
	case c == '-':
		l.pos++
		return oToken{kind: oTokMinus, pos: start}, nil
	case c == '*':
		l.pos++
		return oToken{kind: oTokStar, pos: start}, nil
	case c == '/':
		l.pos++
		return oToken{kind: oTokSlash, pos: start}, nil
	case c == '=':
		l.pos++
		return oToken{kind: oTokEq, pos: start}, nil
	case c == '<':
		l.pos++
		if l.pos < len(l.input) {
			switch l.input[l.pos] {
			case '>':
				l.pos++
				return oToken{kind: oTokNeq, pos: start}, nil
			case '=':
				l.pos++
				return oToken{kind: oTokLe, pos: start}, nil
			}
		}
		return oToken{kind: oTokLt, pos: start}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.input) && l.input[l.pos] == '=' {
			l.pos++
			return oToken{kind: oTokGe, pos: start}, nil
		}
		return oToken{kind: oTokGt, pos: start}, nil
	case c == '\'':
		return l.scanString()
	case oIsDigit(c):
		return l.scanNumber()
	case oIsIdentStart(c):
		return l.scanIdent()
	default:
		return oToken{}, l.errorf(start, "unexpected character %q", c)
	}
}

// scanString scans a single-quoted SQL string literal; ” is an escaped
// quote.
func (l *oLexer) scanString() (oToken, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.input) && l.input[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return oToken{kind: oTokString, text: b.String(), pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return oToken{}, l.errorf(start, "unterminated string literal")
}

// scanNumber scans an integer or decimal literal with optional exponent.
func (l *oLexer) scanNumber() (oToken, error) {
	start := l.pos
	for l.pos < len(l.input) && oIsDigit(l.input[l.pos]) {
		l.pos++
	}
	if l.pos < len(l.input) && l.input[l.pos] == '.' {
		l.pos++
		if l.pos >= len(l.input) || !oIsDigit(l.input[l.pos]) {
			return oToken{}, l.errorf(start, "malformed number")
		}
		for l.pos < len(l.input) && oIsDigit(l.input[l.pos]) {
			l.pos++
		}
	}
	if l.pos < len(l.input) && (l.input[l.pos] == 'e' || l.input[l.pos] == 'E') {
		save := l.pos
		l.pos++
		if l.pos < len(l.input) && (l.input[l.pos] == '+' || l.input[l.pos] == '-') {
			l.pos++
		}
		if l.pos >= len(l.input) || !oIsDigit(l.input[l.pos]) {
			// "12e" is the number 12 followed by identifier "e"; back off.
			l.pos = save
		} else {
			for l.pos < len(l.input) && oIsDigit(l.input[l.pos]) {
				l.pos++
			}
		}
	}
	return oToken{kind: oTokNumber, text: l.input[start:l.pos], pos: start}, nil
}

// scanIdent scans an identifier or keyword.
func (l *oLexer) scanIdent() (oToken, error) {
	start := l.pos
	for l.pos < len(l.input) && oIsIdentPart(l.input[l.pos]) {
		l.pos++
	}
	word := l.input[start:l.pos]
	if kind, ok := oKeywords[strings.ToUpper(word)]; ok {
		return oToken{kind: kind, text: word, pos: start}, nil
	}
	return oToken{kind: oTokIdent, text: word, pos: start}, nil
}

// oTri is SQL three-valued logic: true, false or unknown. Unknown arises
// from NULL (missing attributes) and propagates through comparisons and
// arithmetic; AND/OR/NOT follow the Kleene truth tables.
type oTri int

const (
	oTriFalse oTri = iota
	oTriTrue
	oTriUnknown
)

func (t oTri) isTrue() bool { return t == oTriTrue }

func oTriOf(b bool) oTri {
	if b {
		return oTriTrue
	}
	return oTriFalse
}

func (t oTri) not() oTri {
	switch t {
	case oTriTrue:
		return oTriFalse
	case oTriFalse:
		return oTriTrue
	default:
		return oTriUnknown
	}
}

func (t oTri) and(o oTri) oTri {
	if t == oTriFalse || o == oTriFalse {
		return oTriFalse
	}
	if t == oTriUnknown || o == oTriUnknown {
		return oTriUnknown
	}
	return oTriTrue
}

func (t oTri) or(o oTri) oTri {
	if t == oTriTrue || o == oTriTrue {
		return oTriTrue
	}
	if t == oTriUnknown || o == oTriUnknown {
		return oTriUnknown
	}
	return oTriFalse
}

// oValueKind enumerates runtime value types during evaluation.
type oValueKind int

const (
	oKindNull oValueKind = iota
	oKindString
	oKindNumber
	oKindBool
)

// oValue is a runtime value: NULL, string, number or boolean. Event
// attributes enter evaluation as strings and are coerced to numbers when
// the other comparison operand is numeric, matching the paper's untyped
// string attribute model.
type oValue struct {
	kind oValueKind
	s    string
	f    float64
	b    bool
}

var oNullValue = oValue{kind: oKindNull}

func oStrValue(s string) oValue  { return oValue{kind: oKindString, s: s} }
func oNumValue(f float64) oValue { return oValue{kind: oKindNumber, f: f} }
func oBoolValue(b bool) oValue   { return oValue{kind: oKindBool, b: b} }

// asNumber attempts numeric interpretation of the value.
func (v oValue) asNumber() (float64, bool) {
	switch v.kind {
	case oKindNumber:
		return v.f, true
	case oKindString:
		f, err := strconv.ParseFloat(v.s, 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// asBool attempts boolean interpretation.
func (v oValue) asBool() (bool, bool) {
	switch v.kind {
	case oKindBool:
		return v.b, true
	case oKindString:
		switch v.s {
		case "true", "TRUE", "True":
			return true, true
		case "false", "FALSE", "False":
			return false, true
		}
	}
	return false, false
}

// ---- node evaluation ----

func (e oIdentExpr) eval(env oEnv) oValue {
	s, ok := env.Lookup(e.name)
	if !ok {
		return oNullValue
	}
	return oStrValue(s)
}

func (e oStringLit) eval(oEnv) oValue { return oStrValue(e.val) }
func (e oNumberLit) eval(oEnv) oValue { return oNumValue(e.val) }
func (e oBoolLit) eval(oEnv) oValue   { return oBoolValue(e.val) }

func (e oNotExpr) eval(env oEnv) oValue {
	return oTriToValue(oValueToTri(e.inner.eval(env)).not())
}

func (e oNegExpr) eval(env oEnv) oValue {
	f, ok := e.inner.eval(env).asNumber()
	if !ok {
		return oNullValue
	}
	return oNumValue(-f)
}

func (e oBinaryExpr) eval(env oEnv) oValue {
	switch e.op {
	case oOpAnd:
		return oTriToValue(oValueToTri(e.l.eval(env)).and(oValueToTri(e.r.eval(env))))
	case oOpOr:
		return oTriToValue(oValueToTri(e.l.eval(env)).or(oValueToTri(e.r.eval(env))))
	}

	lv := e.l.eval(env)
	rv := e.r.eval(env)
	switch e.op {
	case oOpAdd, oOpSub, oOpMul, oOpDiv:
		lf, lok := lv.asNumber()
		rf, rok := rv.asNumber()
		if !lok || !rok {
			return oNullValue
		}
		switch e.op {
		case oOpAdd:
			return oNumValue(lf + rf)
		case oOpSub:
			return oNumValue(lf - rf)
		case oOpMul:
			return oNumValue(lf * rf)
		default:
			if rf == 0 {
				return oNullValue // SQL: division by zero yields NULL here
			}
			return oNumValue(lf / rf)
		}
	case oOpEq, oOpNeq, oOpLt, oOpLe, oOpGt, oOpGe:
		return oTriToValue(oCompare(e.op, lv, rv))
	}
	return oNullValue
}

// oCompare implements the comparison operators with NULL propagation and
// numeric coercion: if either operand is a number (or both coerce), compare
// numerically; booleans compare with = and <> only; otherwise compare as
// strings.
func oCompare(op oBinaryOp, l, r oValue) oTri {
	if l.kind == oKindNull || r.kind == oKindNull {
		return oTriUnknown
	}

	// Boolean comparison (= and <> only).
	if l.kind == oKindBool || r.kind == oKindBool {
		lb, lok := l.asBool()
		rb, rok := r.asBool()
		if !lok || !rok {
			return oTriFalse
		}
		switch op {
		case oOpEq:
			return oTriOf(lb == rb)
		case oOpNeq:
			return oTriOf(lb != rb)
		default:
			return oTriFalse
		}
	}

	// Numeric comparison when either side is a number literal and the
	// other coerces.
	if l.kind == oKindNumber || r.kind == oKindNumber {
		lf, lok := l.asNumber()
		rf, rok := r.asNumber()
		if lok && rok {
			switch op {
			case oOpEq:
				return oTriOf(lf == rf)
			case oOpNeq:
				return oTriOf(lf != rf)
			case oOpLt:
				return oTriOf(lf < rf)
			case oOpLe:
				return oTriOf(lf <= rf)
			case oOpGt:
				return oTriOf(lf > rf)
			case oOpGe:
				return oTriOf(lf >= rf)
			}
		}
		// A number compared against a non-numeric string: equal is
		// false, ordering is unknown.
		if op == oOpEq {
			return oTriFalse
		}
		if op == oOpNeq {
			return oTriTrue
		}
		return oTriUnknown
	}

	// String comparison.
	switch op {
	case oOpEq:
		return oTriOf(l.s == r.s)
	case oOpNeq:
		return oTriOf(l.s != r.s)
	case oOpLt:
		return oTriOf(l.s < r.s)
	case oOpLe:
		return oTriOf(l.s <= r.s)
	case oOpGt:
		return oTriOf(l.s > r.s)
	case oOpGe:
		return oTriOf(l.s >= r.s)
	}
	return oTriUnknown
}

func (e oBetweenExpr) eval(env oEnv) oValue {
	ge := oCompare(oOpGe, e.subject.eval(env), e.lo.eval(env))
	le := oCompare(oOpLe, e.subject.eval(env), e.hi.eval(env))
	result := ge.and(le)
	if e.negated {
		result = result.not()
	}
	return oTriToValue(result)
}

func (e oInExpr) eval(env oEnv) oValue {
	v := e.subject.eval(env)
	if v.kind == oKindNull {
		return oNullValue
	}
	found := false
	for _, item := range e.items {
		if oCompare(oOpEq, v, oStrValue(item)) == oTriTrue {
			found = true
			break
		}
	}
	if e.negated {
		found = !found
	}
	return oTriToValue(oTriOf(found))
}

func (e oLikeExpr) eval(env oEnv) oValue {
	v := e.subject.eval(env)
	if v.kind == oKindNull {
		return oNullValue
	}
	var subject string
	switch v.kind {
	case oKindString:
		subject = v.s
	case oKindNumber:
		subject = strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return oTriToValue(oTriFalse)
	}
	matched := e.re.MatchString(subject)
	if e.negated {
		matched = !matched
	}
	return oTriToValue(oTriOf(matched))
}

func (e oIsNullExpr) eval(env oEnv) oValue {
	isNull := e.subject.eval(env).kind == oKindNull
	if e.negated {
		isNull = !isNull
	}
	return oTriToValue(oTriOf(isNull))
}

// oValueToTri interprets an evaluation result as a condition.
func oValueToTri(v oValue) oTri {
	switch v.kind {
	case oKindNull:
		return oTriUnknown
	case oKindBool:
		return oTriOf(v.b)
	case oKindString:
		if b, ok := v.asBool(); ok {
			return oTriOf(b)
		}
		return oTriFalse
	default:
		return oTriFalse
	}
}

// oTriToValue reifies a condition back into a value for nested boolean
// expressions.
func oTriToValue(t oTri) oValue {
	switch t {
	case oTriUnknown:
		return oNullValue
	default:
		return oBoolValue(t == oTriTrue)
	}
}
