package selector

import (
	"cmp"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"unicode/utf8"
)

// eval computes a compiled production's value for an event's attributes.
type eval func(attrs map[string]string) value

// valueKind enumerates runtime value types during evaluation.
type valueKind uint8

const (
	kindNull valueKind = iota
	kindString
	kindNumber
	kindBool
)

// value is a runtime value: NULL, string, number or boolean. Event
// attributes enter evaluation as strings and are read as numbers when the
// other comparison operand is numeric, matching the paper's untyped
// string attribute model. A condition is a boolean, or NULL for unknown;
// the zero value is NULL.
type value struct {
	kind valueKind
	s    string
	f    float64
	b    bool
}

func strValue(s string) value  { return value{kind: kindString, s: s} }
func numValue(f float64) value { return value{kind: kindNumber, f: f} }
func boolValue(b bool) value   { return value{kind: kindBool, b: b} }

// asNumber attempts numeric interpretation of the value.
func (v value) asNumber() (float64, bool) {
	switch v.kind {
	case kindNumber:
		return v.f, true
	case kindString:
		f, err := strconv.ParseFloat(v.s, 64)
		return f, err == nil
	}
	return 0, false
}

// asBool attempts boolean interpretation.
func (v value) asBool() (bool, bool) {
	switch v.kind {
	case kindBool:
		return v.b, true
	case kindString:
		switch v.s {
		case "true", "TRUE", "True":
			return true, true
		case "false", "FALSE", "False":
			return false, true
		}
	}
	return false, false
}

// truth reads a value as a condition: NULL is unknown, a boolean or a
// string spelling one is itself, and anything else is false.
func truth(v value) value {
	if v.kind == kindNull || v.kind == kindBool {
		return v
	}
	b, _ := v.asBool()
	return boolValue(b)
}

func isFalse(v value) bool { return v.kind == kindBool && !v.b }

// not, and and or follow the Kleene truth tables. and and or skip their
// right operand when the left one decides the result; evaluation has no
// side effects, so only the cost differs.
func not(e eval) eval {
	return func(attrs map[string]string) value {
		v := truth(e(attrs))
		v.b = v.kind == kindBool && !v.b
		return v
	}
}

func and(l, r eval) eval {
	return func(attrs map[string]string) value {
		x := truth(l(attrs))
		if isFalse(x) {
			return x
		}
		return both(x, truth(r(attrs)))
	}
}

// both is the Kleene AND of two conditions.
func both(x, y value) value {
	if isFalse(x) || x.kind == kindNull && y.b {
		return x
	}
	return y
}

func or(l, r eval) eval {
	return func(attrs map[string]string) value {
		x := truth(l(attrs))
		if x.b {
			return x
		}
		y := truth(r(attrs))
		if x.kind == kindNull && isFalse(y) {
			return x // unknown OR false
		}
		return y
	}
}

// arith lifts a numeric operator to operands that coerce to numbers;
// anything else makes the result NULL.
func arith(op func(x, y float64) value) func(l, r eval) eval {
	return func(l, r eval) eval {
		return func(attrs map[string]string) value {
			x, xok := l(attrs).asNumber()
			y, yok := r(attrs).asNumber()
			if !xok || !yok {
				return value{}
			}
			return op(x, y)
		}
	}
}

// cmpOp is a comparison operator.
type cmpOp uint8

const (
	eq cmpOp = iota
	ne
	lt
	le
	gt
	ge
)

func compared(op cmpOp, l, r eval) eval {
	return func(attrs map[string]string) value { return compare(op, l(attrs), r(attrs)) }
}

// between is BETWEEN. It evaluates its subject once: nested as another
// BETWEEN's subject, a subject evaluated twice would double the cost
// with each level.
func between(e, lo, hi eval) eval {
	return func(attrs map[string]string) value {
		v := e(attrs)
		return both(compare(ge, v, lo(attrs)), compare(le, v, hi(attrs)))
	}
}

// compare implements the comparison operators with NULL propagation and
// numeric coercion: booleans compare with = and <> only; if either
// operand is a number, both compare as numbers; otherwise as strings.
func compare(op cmpOp, l, r value) value {
	switch {
	case l.kind == kindNull || r.kind == kindNull:
		return value{}
	case l.kind == kindBool || r.kind == kindBool:
		lb, lok := l.asBool()
		rb, rok := r.asBool()
		return boolValue(lok && rok && (op == eq && lb == rb || op == ne && lb != rb))
	case l.kind == kindNumber || r.kind == kindNumber:
		lf, lok := l.asNumber()
		rf, rok := r.asNumber()
		if lok && rok {
			return boolValue(order(op, lf, rf))
		}
		// A number against a non-numeric string: equal is false,
		// ordering is unknown.
		if op == eq || op == ne {
			return boolValue(op == ne)
		}
		return value{}
	}
	return boolValue(order(op, l.s, r.s))
}

// order applies op to two numbers or two strings.
func order[T cmp.Ordered](op cmpOp, a, b T) bool {
	switch op {
	case eq:
		return a == b
	case ne:
		return a != b
	case lt:
		return a < b
	case le:
		return a <= b
	case gt:
		return a > b
	}
	return a >= b
}

// inList is IN: NULL for a NULL subject, else whether it equals an item.
func inList(e eval, items []string) eval {
	return func(attrs map[string]string) value {
		v := e(attrs)
		if v.kind == kindNull {
			return v
		}
		for _, item := range items {
			if compare(eq, v, strValue(item)).b {
				return boolValue(true)
			}
		}
		return boolValue(false)
	}
}

// like is [NOT] LIKE: NULL for a NULL subject, false for a boolean one
// whether negated or not, else whether the subject's text matches re.
func like(e eval, re *regexp.Regexp, negated bool) eval {
	return func(attrs map[string]string) value {
		switch v := e(attrs); v.kind {
		case kindString:
			return boolValue(re.MatchString(v.s) != negated)
		case kindNumber:
			return boolValue(re.MatchString(strconv.FormatFloat(v.f, 'g', -1, 64)) != negated)
		case kindBool:
			return boolValue(false)
		default:
			return v
		}
	}
}

// compileLike translates a SQL LIKE pattern ('%' any run, '_' any one
// character, with optional escape character) into an anchored regexp.
// It walks the pattern by rune, so a character is a code point.
func compileLike(pattern, escape string) (*regexp.Regexp, error) {
	esc, n := utf8.DecodeRuneInString(escape)
	if n != len(escape) {
		return nil, fmt.Errorf("selector: ESCAPE must be a single character, got %q", escape)
	}
	var b strings.Builder
	b.WriteString(`(?s)\A`)
	quoted := false
	for _, c := range pattern {
		switch {
		case quoted:
			quoted = false
			b.WriteString(regexp.QuoteMeta(string(c)))
		case n > 0 && c == esc:
			quoted = true
		case c == '%':
			b.WriteString(".*")
		case c == '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(c)))
		}
	}
	if quoted {
		return nil, fmt.Errorf("selector: dangling escape in LIKE pattern %q", pattern)
	}
	b.WriteString(`\z`)
	return regexp.Compile(b.String())
}
