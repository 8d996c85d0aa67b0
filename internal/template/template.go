// Package template implements a small ERB-style template engine whose
// rendering propagates security labels: the rendered page is a
// taint.String carrying the labels of every value interpolated into it.
//
// The paper's MDT portal uses "ERB for embedding Ruby in web pages"
// (§5.1); with the Ruby taint-tracking library, labels flow through ERB
// because ERB builds its output by ordinary string concatenation. Our
// frontend gets the same effect by routing interpolation through
// taint.String composition.
//
// Syntax:
//
//	<%= expr %>    interpolate, HTML-escaped
//	<%== expr %>   interpolate raw (trusted markup only)
//	<% if expr %> ... <% else %> ... <% end %>
//	<% for x in expr %> ... <% end %>
//
// Expressions are dotted paths into the render context ("patient.name",
// "metrics.completeness"), loop variables, string literals in double
// quotes, or equality/inequality comparisons of two of those.
package template

import (
	"errors"
	"fmt"
	"html"
	"strings"

	"safeweb/internal/label"
	"safeweb/internal/taint"
)

// Template is a parsed template, safe for concurrent rendering.
type Template struct {
	name string
	root []node
}

// Context supplies values during rendering. Values may be taint.String,
// taint.Number, taint.Doc, []taint.Doc, []any, bool, plain strings and
// numbers, or nested map[string]any.
type Context map[string]any

// ParseError reports a template syntax error.
type ParseError struct {
	// Name is the template name.
	Name string
	// Msg describes the problem.
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("template %s: %s", e.Name, e.Msg)
}

// node is a parsed template element.
type node interface {
	render(out *builder, scope *scope) error
}

// builder accumulates output text and the union of the labels of
// everything interpolated. Literal template text is unlabelled; union (not
// Derive) keeps integrity labels that every interpolation shares out of
// scope: pages mix trusted markup with data, so the page itself makes no
// integrity claim.
type builder struct {
	text   strings.Builder
	labels label.Set
}

func (b *builder) writeRaw(s string) { b.text.WriteString(s) }

func (b *builder) writeValue(s taint.String, escape bool) {
	raw := s.Raw()
	if escape {
		raw = html.EscapeString(raw)
	}
	b.text.WriteString(raw)
	b.labels = b.labels.Union(s.Labels())
}

// scope is the variable environment during rendering: the base context
// plus one link per enclosing loop, innermost first.
type scope struct {
	ctx    Context
	parent *scope
	// name and value are the loop variable this link binds; the root link
	// binds none.
	name  string
	value any
}

func (s *scope) lookup(name string) (any, bool) {
	for sc := s; sc.parent != nil; sc = sc.parent {
		if sc.name == name {
			return sc.value, true
		}
	}
	v, ok := s.ctx[name]
	return v, ok
}

// textNode is literal template text.
type textNode struct{ text string }

func (n textNode) render(out *builder, _ *scope) error {
	out.writeRaw(n.text)
	return nil
}

// exprNode interpolates an expression.
type exprNode struct {
	expr   expr
	escape bool
}

func (n exprNode) render(out *builder, sc *scope) error {
	v, err := n.expr.eval(sc)
	if err != nil {
		return err
	}
	out.writeValue(toTaintString(v), n.escape)
	return nil
}

// ifNode renders one of two branches.
type ifNode struct {
	cond      expr
	then, alt []node
}

func (n ifNode) render(out *builder, sc *scope) error {
	v, err := n.cond.eval(sc)
	if err != nil {
		return err
	}
	branch := n.alt
	if truthy(v) {
		branch = n.then
	}
	for _, child := range branch {
		if err := child.render(out, sc); err != nil {
			return err
		}
	}
	return nil
}

// forNode iterates a list.
type forNode struct {
	varName string
	list    expr
	body    []node
}

func (n forNode) render(out *builder, sc *scope) error {
	v, err := n.list.eval(sc)
	if err != nil {
		return err
	}
	items, err := toList(v)
	if err != nil {
		return fmt.Errorf("template: for %s: %w", n.varName, err)
	}
	// One link serves every row: rows are rendered one after another and
	// nothing keeps a scope past its render call.
	row := &scope{ctx: sc.ctx, parent: sc, name: n.varName}
	for _, item := range items {
		row.value = item
		for _, child := range n.body {
			if err := child.render(out, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// Render evaluates the template against the context, producing a labelled
// string that carries the labels of everything interpolated.
func (t *Template) Render(ctx Context) (taint.String, error) {
	out := &builder{}
	sc := &scope{ctx: ctx}
	for _, n := range t.root {
		if err := n.render(out, sc); err != nil {
			return taint.String{}, err
		}
	}
	return taint.WrapString(out.text.String(), out.labels), nil
}

// Name returns the template's name.
func (t *Template) Name() string { return t.name }

// toTaintString renders a context value as a labelled string. It fails
// closed: whatever labels the value carries, at any depth, the rendering
// carries too, and a labelled value is never printed through its own
// fmt.Stringer (which hides the contents but spells out the label URIs).
func toTaintString(v any) taint.String {
	switch t := v.(type) {
	case taint.String:
		return t
	case taint.Number:
		return t.Format(-1)
	case taint.Value:
		inner := toTaintString(t.Any())
		return taint.WrapString(inner.Raw(), inner.Labels().Union(t.Labels()))
	case taint.Doc:
		s, err := t.ToJSON()
		if err != nil {
			return taint.NewString("{}")
		}
		return s
	case map[string]any:
		return toTaintString(taint.Doc(t))
	case Context:
		return toTaintString(taint.Doc(t))
	case string:
		return taint.NewString(t)
	case int:
		return taint.NewString(fmt.Sprint(t))
	case float64:
		return taint.NewString(strings.TrimSuffix(fmt.Sprintf("%v", t), ".0"))
	case bool:
		return taint.NewString(fmt.Sprint(t))
	case nil:
		return taint.String{}
	default:
		// Lists render their elements, comma-separated.
		if items, err := toList(v); err == nil {
			parts := make([]taint.String, len(items))
			for i, item := range items {
				parts[i] = toTaintString(item)
			}
			return taint.Join(parts, ", ")
		}
		return taint.NewString(fmt.Sprint(t))
	}
}

// truthy decides <% if %> conditions: non-empty strings and lists,
// non-zero numbers and true are truthy.
func truthy(v any) bool {
	switch t := v.(type) {
	case nil:
		return false
	case bool:
		return t
	case string:
		return t != ""
	case int:
		return t != 0
	case float64:
		return t != 0
	case taint.String:
		return !t.IsEmpty()
	case taint.Number:
		return t.Float() != 0
	case taint.Value:
		return truthy(t.Any())
	case []any:
		return len(t) > 0
	case []taint.Doc:
		return len(t) > 0
	case taint.Doc:
		return len(t) > 0
	default:
		return true
	}
}

// toList coerces a value into a slice for <% for %>.
func toList(v any) ([]any, error) {
	switch t := v.(type) {
	case []any:
		return t, nil
	case []taint.Doc:
		out := make([]any, len(t))
		for i, d := range t {
			out[i] = d
		}
		return out, nil
	case []taint.String:
		out := make([]any, len(t))
		for i, s := range t {
			out[i] = s
		}
		return out, nil
	case nil:
		return nil, nil
	default:
		return nil, fmt.Errorf("value of type %T is not iterable", v)
	}
}

// ---- expressions ----

// expr is a template expression.
type expr interface {
	eval(sc *scope) (any, error)
}

// pathExpr resolves a dotted path: the head in the scope, then fields
// through docs/maps.
type pathExpr struct{ parts []string }

func (e pathExpr) eval(sc *scope) (any, error) {
	v, ok := sc.lookup(e.parts[0])
	if !ok {
		return nil, fmt.Errorf("template: unknown variable %q", e.parts[0])
	}
	for _, part := range e.parts[1:] {
		switch t := v.(type) {
		case taint.Doc:
			v = t[part]
		case map[string]any:
			v = t[part]
		case Context:
			v = t[part]
		case nil:
			return nil, nil
		default:
			return nil, fmt.Errorf("template: cannot access %q of %T", part, v)
		}
	}
	return v, nil
}

// litExpr is a double-quoted string literal.
type litExpr struct{ s string }

func (e litExpr) eval(*scope) (any, error) { return e.s, nil }

// cmpExpr compares two operands for equality by rendered content.
type cmpExpr struct {
	l, r expr
	neq  bool
}

func (e cmpExpr) eval(sc *scope) (any, error) {
	lv, err := e.l.eval(sc)
	if err != nil {
		return nil, err
	}
	rv, err := e.r.eval(sc)
	if err != nil {
		return nil, err
	}
	eq := toTaintString(lv).Raw() == toTaintString(rv).Raw()
	if e.neq {
		eq = !eq
	}
	return eq, nil
}

// notExpr negates truthiness.
type notExpr struct{ inner expr }

func (e notExpr) eval(sc *scope) (any, error) {
	v, err := e.inner.eval(sc)
	if err != nil {
		return nil, err
	}
	return !truthy(v), nil
}

var errEmptyExpr = errors.New("empty expression")

// parseExpr parses "a.b", "\"lit\"", "not e", "e == e", "e != e".
func parseExpr(src string) (expr, error) {
	src = strings.TrimSpace(src)
	if src == "" {
		return nil, errEmptyExpr
	}
	if rest, ok := strings.CutPrefix(src, "not "); ok {
		inner, err := parseExpr(rest)
		if err != nil {
			return nil, err
		}
		return notExpr{inner: inner}, nil
	}
	for _, op := range []struct {
		tok string
		neq bool
	}{{"==", false}, {"!=", true}} {
		if l, r, ok := cutOutsideQuotes(src, op.tok); ok {
			le, err := parseExpr(l)
			if err != nil {
				return nil, err
			}
			re, err := parseExpr(r)
			if err != nil {
				return nil, err
			}
			return cmpExpr{l: le, r: re, neq: op.neq}, nil
		}
	}
	if strings.HasPrefix(src, `"`) {
		if !strings.HasSuffix(src, `"`) || len(src) < 2 {
			return nil, fmt.Errorf("unterminated string literal %s", src)
		}
		return litExpr{s: src[1 : len(src)-1]}, nil
	}
	parts := strings.Split(src, ".")
	for _, p := range parts {
		if p == "" || strings.ContainsAny(p, " \t\"=!<>") {
			return nil, fmt.Errorf("malformed path %q", src)
		}
	}
	return pathExpr{parts: parts}, nil
}

// cutOutsideQuotes splits src on the first occurrence of sep that is not
// inside a double-quoted literal.
func cutOutsideQuotes(src, sep string) (string, string, bool) {
	inQuote := false
	for i := 0; i+len(sep) <= len(src); i++ {
		if src[i] == '"' {
			inQuote = !inQuote
			continue
		}
		if !inQuote && src[i:i+len(sep)] == sep {
			return src[:i], src[i+len(sep):], true
		}
	}
	return "", "", false
}
