// Package selector implements the SQL-92 message selector language that
// SafeWeb's event broker uses for content-based subscriptions (paper §4.2):
// "An optional SQL-92 selector header specifies content-based
// subscriptions."
//
// The grammar is the JMS message-selector subset of SQL-92, loosest
// binding first:
//
//	selector   = or
//	or         = and { OR and }
//	and        = not { AND not }
//	not        = NOT not | comparison
//	comparison = sum [ ( "=" | "<>" | "<" | "<=" | ">" | ">=" ) sum
//	                 | [ NOT ] BETWEEN sum AND sum
//	                 | [ NOT ] IN "(" string { "," string } ")"
//	                 | [ NOT ] LIKE string [ ESCAPE string ]
//	                 | IS [ NOT ] NULL ]
//	sum        = product { ( "+" | "-" ) product }
//	product    = unary { ( "*" | "/" ) unary }
//	unary      = ( "+" | "-" ) unary | primary
//	primary    = "(" or ")" | string | number | TRUE | FALSE | identifier
//
// Keywords are case-insensitive. A string is single-quoted, a doubled
// quote standing for one; a number is digits with an optional fraction and
// exponent; an identifier names an event attribute and may contain
// letters, digits, '_', '$', '.' and '-'. LIKE's '%' matches any run of
// characters and '_' any one character, where a character is a Unicode
// code point, not a byte; ESCAPE names one character that quotes the
// next. A selector may hold at most 256 tokens, and matching evaluates
// each of its productions at most once: the broker evaluates every
// subscriber's selector on the publishing goroutine.
//
// Because SafeWeb event attributes are untyped strings (§4.1), an
// attribute compared against a number is read as a number. Evaluation
// follows SQL three-valued logic: a missing attribute is NULL, a
// comparison involving NULL is unknown, arithmetic on NULL or division
// by zero is NULL, and a selector accepts an event only if the whole
// expression is true.
package selector

import (
	"fmt"
	"strings"
)

// maxTokens bounds the tokens in one selector.
const maxTokens = 256

// maxLikePattern bounds a LIKE pattern's length in bytes. The regexp it
// compiles to matches in |pattern| × |subject| steps, on the publishing
// goroutine, and a string literal could otherwise be a whole 64 KiB
// header.
const maxLikePattern = 256

// space holds the bytes that separate tokens.
const space = " \t\n\r"

// tokenKind tells literals, identifiers and symbols apart.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokSymbol // an operator, punctuation or keyword, spelled in text
)

// keywords are reserved words; a symbol token spells one in upper case.
var keywords = map[string]bool{
	"AND": true, "OR": true, "NOT": true, "BETWEEN": true, "IN": true, "LIKE": true,
	"IS": true, "NULL": true, "ESCAPE": true, "TRUE": true, "FALSE": true,
}

// operators are the punctuation symbols, each two-character one ahead of
// its one-character prefix.
var operators = []string{"<>", "<=", ">=", "=", "<", ">", "+", "-", "*", "/", "(", ")", ","}

// token is a lexical token with its source offset for error reporting.
type token struct {
	kind tokenKind
	text string // identifier name, string contents, number or symbol
	pos  int
}

// SyntaxError reports a lexical or grammatical error in a selector
// expression.
type SyntaxError struct {
	// Input is the full selector text.
	Input string
	// Pos is the byte offset of the error.
	Pos int
	// Msg describes the problem.
	Msg string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("selector: %s at offset %d in %q", e.Msg, e.Pos, e.Input)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c) || c == '.' || c == '-'
}

// next scans the token after the current one into p.tok. After an error
// it leaves p.tok at EOF.
func (p *parser) next() {
	if p.err != nil {
		return
	}
	in := p.input
	for p.pos < len(in) && strings.IndexByte(space, in[p.pos]) >= 0 {
		p.pos++
	}
	start := p.pos
	p.tok = token{kind: tokEOF, pos: start}
	if start == len(in) {
		return
	}
	if p.tokens++; p.tokens > maxTokens {
		p.failf("more than %d tokens", maxTokens)
		return
	}
	switch c := in[start]; {
	case c == '\'':
		p.scanString()
	case isDigit(c):
		p.scanNumber()
	case isIdentStart(c):
		for p.pos < len(in) && isIdentPart(in[p.pos]) {
			p.pos++
		}
		word := in[start:p.pos]
		if upper := strings.ToUpper(word); keywords[upper] {
			p.tok = token{kind: tokSymbol, text: upper, pos: start}
		} else {
			p.tok = token{kind: tokIdent, text: word, pos: start}
		}
	default:
		for _, op := range operators {
			if strings.HasPrefix(in[start:], op) {
				p.pos += len(op)
				p.tok = token{kind: tokSymbol, text: op, pos: start}
				return
			}
		}
		p.failf("unexpected character %q", c)
	}
}

// scanString scans a single-quoted SQL string literal, in which a
// doubled quote stands for one.
func (p *parser) scanString() {
	start := p.pos
	for i := start + 1; i < len(p.input); i++ {
		if p.input[i] != '\'' {
			continue
		}
		if i+1 < len(p.input) && p.input[i+1] == '\'' {
			i++
			continue
		}
		p.pos = i + 1
		p.tok = token{kind: tokString, text: strings.ReplaceAll(p.input[start+1:i], "''", "'"), pos: start}
		return
	}
	p.failf("unterminated string literal")
}

// scanNumber scans an integer or decimal literal with optional exponent.
func (p *parser) scanNumber() {
	in, start := p.input, p.pos
	digits := func() {
		for p.pos < len(in) && isDigit(in[p.pos]) {
			p.pos++
		}
	}
	digits()
	if p.pos < len(in) && in[p.pos] == '.' {
		p.pos++
		if p.pos >= len(in) || !isDigit(in[p.pos]) {
			p.failf("malformed number")
			return
		}
		digits()
	}
	if p.pos < len(in) && (in[p.pos] == 'e' || in[p.pos] == 'E') {
		save := p.pos
		p.pos++
		if p.pos < len(in) && (in[p.pos] == '+' || in[p.pos] == '-') {
			p.pos++
		}
		if p.pos < len(in) && isDigit(in[p.pos]) {
			digits()
		} else {
			// "12e" is the number 12 followed by identifier "e"; back off.
			p.pos = save
		}
	}
	p.tok = token{kind: tokNumber, text: in[start:p.pos], pos: start}
}
