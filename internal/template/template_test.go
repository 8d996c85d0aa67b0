package template

import (
	"strings"
	"testing"

	"safeweb/internal/label"
	"safeweb/internal/taint"
)

var (
	mdt7 = label.Conf("ecric.org.uk/mdt/7")
	mdt8 = label.Conf("ecric.org.uk/mdt/8")
)

func render(t *testing.T, src string, ctx Context) taint.String {
	t.Helper()
	tmpl, err := Parse("test", src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	out, err := tmpl.Render(ctx)
	if err != nil {
		t.Fatalf("Render(%q): %v", src, err)
	}
	return out
}

func TestLiteralText(t *testing.T) {
	out := render(t, "<html>static</html>", nil)
	if out.Raw() != "<html>static</html>" {
		t.Errorf("Raw = %q", out.Raw())
	}
	if !out.Labels().IsEmpty() {
		t.Errorf("Labels = %v", out.Labels())
	}
}

func TestInterpolationCarriesLabels(t *testing.T) {
	ctx := Context{"name": taint.NewString("John Smith", mdt7)}
	out := render(t, "patient: <%= name %>", ctx)
	if out.Raw() != "patient: John Smith" {
		t.Errorf("Raw = %q", out.Raw())
	}
	if !out.Labels().Contains(mdt7) {
		t.Errorf("Labels = %v", out.Labels())
	}
}

func TestHTMLEscaping(t *testing.T) {
	ctx := Context{"evil": taint.NewString(`<script>alert("x")</script>`)}
	out := render(t, "<%= evil %>", ctx)
	if strings.Contains(out.Raw(), "<script>") {
		t.Errorf("unescaped script: %q", out.Raw())
	}
	raw := render(t, "<%== evil %>", ctx)
	if !strings.Contains(raw.Raw(), "<script>") {
		t.Errorf("raw interpolation escaped: %q", raw.Raw())
	}
}

func TestDottedPaths(t *testing.T) {
	ctx := Context{
		"patient": taint.Doc{
			"name":   taint.NewString("Smith", mdt7),
			"tumour": taint.Doc{"site": taint.NewString("C50.9", mdt8)},
		},
	}
	out := render(t, "<%= patient.name %> @ <%= patient.tumour.site %>", ctx)
	if out.Raw() != "Smith @ C50.9" {
		t.Errorf("Raw = %q", out.Raw())
	}
	if !out.Labels().Contains(mdt7) || !out.Labels().Contains(mdt8) {
		t.Errorf("Labels = %v", out.Labels())
	}
}

func TestNumbersRender(t *testing.T) {
	ctx := Context{
		"pct":   taint.NewNumber(87.5, mdt7),
		"count": 42,
		"ratio": 2.5,
	}
	out := render(t, "<%= pct %>% of <%= count %> (<%= ratio %>)", ctx)
	if out.Raw() != "87.5% of 42 (2.5)" {
		t.Errorf("Raw = %q", out.Raw())
	}
	if !out.Labels().Contains(mdt7) {
		t.Errorf("Labels = %v", out.Labels())
	}
}

func TestIfElse(t *testing.T) {
	src := `<% if admin %>ADMIN<% else %>USER<% end %>`
	if got := render(t, src, Context{"admin": true}); got.Raw() != "ADMIN" {
		t.Errorf("true branch = %q", got.Raw())
	}
	if got := render(t, src, Context{"admin": false}); got.Raw() != "USER" {
		t.Errorf("false branch = %q", got.Raw())
	}
}

func TestIfComparison(t *testing.T) {
	ctx := Context{"role": taint.NewString("coordinator")}
	src := `<% if role == "coordinator" %>YES<% end %>`
	if got := render(t, src, ctx); got.Raw() != "YES" {
		t.Errorf("eq = %q", got.Raw())
	}
	src = `<% if role != "doctor" %>NOT-DOC<% end %>`
	if got := render(t, src, ctx); got.Raw() != "NOT-DOC" {
		t.Errorf("neq = %q", got.Raw())
	}
	src = `<% if not missing %>EMPTY<% end %>`
	if got := render(t, src, Context{"missing": ""}); got.Raw() != "EMPTY" {
		t.Errorf("not = %q", got.Raw())
	}
}

func TestForLoop(t *testing.T) {
	ctx := Context{
		"records": []taint.Doc{
			{"id": taint.NewString("1", mdt7)},
			{"id": taint.NewString("2", mdt8)},
		},
	}
	out := render(t, "<% for r in records %>[<%= r.id %>]<% end %>", ctx)
	if out.Raw() != "[1][2]" {
		t.Errorf("Raw = %q", out.Raw())
	}
	if !out.Labels().Contains(mdt7) || !out.Labels().Contains(mdt8) {
		t.Errorf("Labels = %v", out.Labels())
	}
}

func TestForLoopEmptyAndNil(t *testing.T) {
	out := render(t, "<% for x in items %>X<% end %>", Context{"items": []any{}})
	if out.Raw() != "" {
		t.Errorf("empty list rendered %q", out.Raw())
	}
	out = render(t, "<% for x in items %>X<% end %>", Context{"items": nil})
	if out.Raw() != "" {
		t.Errorf("nil list rendered %q", out.Raw())
	}
}

func TestNestedStructures(t *testing.T) {
	ctx := Context{
		"mdts": []taint.Doc{
			{"name": taint.NewString("MDT-A"), "ok": taint.NewNumber(1)},
			{"name": taint.NewString("MDT-B"), "ok": taint.NewNumber(0)},
		},
	}
	src := `<% for m in mdts %><% if m.ok %><%= m.name %>;<% end %><% end %>`
	out := render(t, src, ctx)
	if out.Raw() != "MDT-A;" {
		t.Errorf("Raw = %q", out.Raw())
	}
}

func TestOnlyInterpolatedLabelsCount(t *testing.T) {
	// A labelled value tested in a condition but not interpolated does not
	// label the page (explicit-flow tracking, as in the paper's model).
	ctx := Context{
		"secret": taint.NewString("x", mdt7),
		"public": taint.NewString("hello"),
	}
	out := render(t, `<% if secret %><%= public %><% end %>`, ctx)
	if out.Raw() != "hello" {
		t.Errorf("Raw = %q", out.Raw())
	}
	if out.Labels().Contains(mdt7) {
		t.Errorf("implicit flow labelled the page: %v", out.Labels())
	}
}

func TestRenderErrors(t *testing.T) {
	tmpl := MustParse("t", "<%= missing %>")
	if _, err := tmpl.Render(Context{}); err == nil {
		t.Error("unknown variable rendered")
	}
	tmpl = MustParse("t", "<%= a.b %>")
	if _, err := tmpl.Render(Context{"a": 42}); err == nil {
		t.Error("field access on scalar rendered")
	}
	tmpl = MustParse("t", "<% for x in a %><% end %>")
	if _, err := tmpl.Render(Context{"a": 42}); err == nil {
		t.Error("iterating scalar rendered")
	}
	// Nil path element renders empty.
	tmpl = MustParse("t", "<%= a.b.c %>")
	out, err := tmpl.Render(Context{"a": taint.Doc{}})
	if err != nil || out.Raw() != "" {
		t.Errorf("nil path = %q, %v", out.Raw(), err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"<%= unterminated",
		"<% if x %>no end",
		"<% end %>",
		"<% else %>",
		"<% for x %>body<% end %>",
		"<% for x in %>body<% end %>",
		"<% bogus tag %>",
		"<%= %>",
		`<%= "unterminated %>`,
		"<% if a == %>x<% end %>",
		"<% for a.b in xs %>x<% end %>",
		"<% if x %>a<% else %>b<% else %>c<% end %>",
	}
	for _, src := range bad {
		if _, err := Parse("bad", src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
	// ParseError formatting.
	_, err := Parse("front_page", "<% end %>")
	if err == nil || !strings.Contains(err.Error(), "front_page") {
		t.Errorf("error = %v", err)
	}
}

func TestQuoteAwareComparison(t *testing.T) {
	ctx := Context{"s": taint.NewString("a == b")}
	out := render(t, `<% if s == "a == b" %>MATCH<% end %>`, ctx)
	if out.Raw() != "MATCH" {
		t.Errorf("Raw = %q", out.Raw())
	}
}

func TestMDTFrontPageShape(t *testing.T) {
	// A realistic front page: patient table plus metrics, as the MDT
	// portal's front page (used by the E2 benchmark).
	src := `<html><body>
<h1>MDT <%= mdt %></h1>
<table>
<% for p in patients %><tr><td><%= p.patient_id %></td><td><%= p.name %></td><td><%= p.site %></td></tr>
<% end %></table>
<p>Completeness: <%= metrics.completeness %>%</p>
</body></html>`
	ctx := Context{
		"mdt": taint.NewString("7"),
		"patients": []taint.Doc{
			{"patient_id": taint.NewString("1", mdt7), "name": taint.NewString("A", mdt7), "site": taint.NewString("C50", mdt7)},
			{"patient_id": taint.NewString("2", mdt7), "name": taint.NewString("B", mdt7), "site": taint.NewString("C18", mdt7)},
		},
		"metrics": taint.Doc{"completeness": taint.NewNumber(87.5, mdt7)},
	}
	out := render(t, src, ctx)
	for _, want := range []string{"MDT 7", "<td>1</td>", "<td>B</td>", "87.5%"} {
		if !strings.Contains(out.Raw(), want) {
			t.Errorf("page missing %q", want)
		}
	}
	if !out.Labels().Contains(mdt7) {
		t.Errorf("page labels = %v", out.Labels())
	}
}

// TestInterpolatedLabelledValues: interpolation fails closed. Every kind of
// labelled value a wrapped document can hold renders as its contents —
// never as Go debug text spelling out label URIs — and the page carries
// the value's labels, so the release check sees them.
func TestInterpolatedLabelledValues(t *testing.T) {
	mdt7set, mdt8set := label.NewSet(mdt7), label.NewSet(mdt8)
	wrapped, err := taint.WrapJSON([]byte(`{"consented":true,"sites":["C34.9","C34.1"],"stage":{"t":2,"n":"x"}}`), mdt7set)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, src string
		ctx       Context
		want      string
		labels    []label.Label
	}{
		{"labelled boolean of a wrapped document", `<%= r.consented %>`, Context{"r": wrapped}, "true", []label.Label{mdt7}},
		{"list of labelled strings", `<%= r.sites %>`, Context{"r": wrapped}, "C34.9, C34.1", []label.Label{mdt7}},
		{"nested document", `<%== r.stage %>`, Context{"r": wrapped}, `{"n":"x","t":2}`, []label.Label{mdt7}},
		{"labelled number in a Value", `<%= v %>`, Context{"v": taint.NewValue(2.5, mdt8set)}, "2.5", []label.Label{mdt8}},
		{"labelled value inside a Value", `<%= v %>`, Context{"v": taint.NewValue(taint.NewString("in", mdt7), mdt8set)}, "in", []label.Label{mdt7, mdt8}},
		{"plain map holding labelled values", `<%== m %>`,
			Context{"m": map[string]any{"a": taint.NewString("x", mdt7), "b": []any{taint.NewNumber(1, mdt8)}}},
			`{"a":"x","b":[1]}`, []label.Label{mdt7, mdt8}},
		{"list mixing labels", `<%= l %>`,
			Context{"l": []any{taint.NewString("a", mdt7), taint.NewValue(false, mdt8set), "plain", nil}},
			"a, false, plain, ", []label.Label{mdt7, mdt8}},
		{"list of documents", `<%== l %>`, Context{"l": []taint.Doc{{"k": taint.NewString("v", mdt7)}, {}}}, `{"k":"v"}, {}`, []label.Label{mdt7}},
		{"empty list", `[<%= l %>]`, Context{"l": []any{}}, "[]", nil},
	} {
		out := render(t, c.src, c.ctx)
		if out.Raw() != c.want {
			t.Errorf("%s: rendered %q, want %q", c.name, out.Raw(), c.want)
		}
		if strings.Contains(out.Raw(), "label:") || strings.Contains(out.Raw(), "taint.") {
			t.Errorf("%s: debug text reached the page: %q", c.name, out.Raw())
		}
		if !out.Labels().Equal(label.NewSet(c.labels...)) {
			t.Errorf("%s: page labels = %v, want %v", c.name, out.Labels(), c.labels)
		}
	}
}

// TestInterpolatedValueTruthiness: a labelled boolean or number decides a
// condition by its value, not by being present.
func TestInterpolatedValueTruthiness(t *testing.T) {
	set := label.NewSet(mdt7)
	src := `<% if v %>yes<% else %>no<% end %>`
	for _, c := range []struct {
		v    any
		want string
	}{
		{taint.NewValue(true, set), "yes"},
		{taint.NewValue(false, set), "no"},
		{taint.NewValue(0.0, set), "no"},
		{taint.NewValue(3.0, set), "yes"},
		{taint.NewValue(nil, set), "no"},
	} {
		if out := render(t, src, Context{"v": c.v}); out.Raw() != c.want {
			t.Errorf("if %v rendered %q, want %q", c.v, out.Raw(), c.want)
		}
	}
	// And compares by its value.
	out := render(t, `<% if v == "true" %>eq<% end %>`, Context{"v": taint.NewValue(true, set)})
	if out.Raw() != "eq" {
		t.Errorf("labelled true does not compare equal to \"true\": %q", out.Raw())
	}
}

// TestForLoopScopes: loop variables shadow and unwind across nested loops,
// including two loops that use one name, and a row cannot see the
// variable of a loop it is not inside.
func TestForLoopScopes(t *testing.T) {
	ctx := Context{
		"x":     "ctx",
		"outer": []any{"a", "b"},
		"inner": []any{"1", "2"},
	}
	out := render(t, `<%= x %>|<% for x in outer %><%= x %>(<% for x in inner %><%= x %><% end %>)<%= x %><% for y in inner %><%= x %><%= y %><% end %>;<% end %>|<%= x %>`, ctx)
	if want := "ctx|a(12)aa1a2;b(12)bb1b2;|ctx"; out.Raw() != want {
		t.Errorf("Raw = %q, want %q", out.Raw(), want)
	}
	tmpl := MustParse("t", `<% for y in inner %><% end %><%= y %>`)
	if _, err := tmpl.Render(ctx); err == nil {
		t.Error("a loop variable outlived its loop")
	}
}
