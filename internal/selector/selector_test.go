package selector

import (
	"strings"
	"testing"
)

// evalOn parses the selector and evaluates it against attrs, failing the
// test on parse errors.
func evalOn(t *testing.T, sel string, attrs map[string]string) bool {
	t.Helper()
	s, err := Parse(sel)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sel, err)
	}
	return s.MatchesAttrs(attrs)
}

func TestComparisons(t *testing.T) {
	attrs := map[string]string{
		"type":       "cancer",
		"patient_id": "33812769",
		"age":        "61",
		"score":      "3.5",
	}
	tests := []struct {
		sel  string
		want bool
	}{
		{"type = 'cancer'", true},
		{"type = 'benign'", false},
		{"type <> 'benign'", true},
		{"age = 61", true},
		{"age > 60", true},
		{"age >= 61", true},
		{"age < 61", false},
		{"age <= 60", false},
		{"score > 3", true},
		{"score < 3.6", true},
		{"age > 100", false},
		// String ordering when both sides are strings.
		{"type > 'a'", true},
		{"type < 'a'", false},
	}
	for _, tt := range tests {
		if got := evalOn(t, tt.sel, attrs); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.sel, got, tt.want)
		}
	}
}

func TestBooleanOperators(t *testing.T) {
	attrs := map[string]string{"a": "1", "b": "2", "flag": "true"}
	tests := []struct {
		sel  string
		want bool
	}{
		{"a = 1 AND b = 2", true},
		{"a = 1 AND b = 3", false},
		{"a = 2 OR b = 2", true},
		{"a = 2 OR b = 3", false},
		{"NOT a = 2", true},
		{"NOT (a = 1 AND b = 2)", false},
		{"a = 1 AND (b = 3 OR b = 2)", true},
		{"flag", true},
		{"flag = TRUE", true},
		{"flag <> FALSE", true},
		{"NOT flag", false},
		{"TRUE", true},
		{"FALSE", false},
	}
	for _, tt := range tests {
		if got := evalOn(t, tt.sel, attrs); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.sel, got, tt.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	attrs := map[string]string{"present": "x"}
	tests := []struct {
		sel  string
		want bool
	}{
		{"missing = 'x'", false},
		{"missing <> 'x'", false}, // unknown, not true
		{"NOT missing = 'x'", false},
		{"missing IS NULL", true},
		{"missing IS NOT NULL", false},
		{"present IS NULL", false},
		{"present IS NOT NULL", true},
		// Kleene logic: unknown OR true = true; unknown AND false = false.
		{"missing = 'x' OR present = 'x'", true},
		{"missing = 'x' AND present <> 'x'", false},
		{"missing IN ('a','b')", false},
		{"missing LIKE 'a%'", false},
		{"missing BETWEEN 1 AND 2", false},
	}
	for _, tt := range tests {
		if got := evalOn(t, tt.sel, attrs); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.sel, got, tt.want)
		}
	}
}

func TestBetweenInLike(t *testing.T) {
	attrs := map[string]string{
		"age":      "61",
		"hospital": "addenbrookes",
		"code":     "C50.9",
		"pct":      "95%",
	}
	tests := []struct {
		sel  string
		want bool
	}{
		{"age BETWEEN 60 AND 65", true},
		{"age BETWEEN 62 AND 65", false},
		{"age NOT BETWEEN 62 AND 65", true},
		{"hospital IN ('addenbrookes', 'papworth')", true},
		{"hospital IN ('papworth')", false},
		{"hospital NOT IN ('papworth')", true},
		{"hospital LIKE 'adden%'", true},
		{"hospital LIKE 'Adden%'", false}, // LIKE is case-sensitive
		{"hospital NOT LIKE 'pap%'", true},
		{"code LIKE 'C50._'", true},
		{"code LIKE 'C51._'", false},
		{"code LIKE 'C50.%'", true},
		// ESCAPE: match a literal percent sign.
		{"pct LIKE '95!%' ESCAPE '!'", true},
		{"pct LIKE '96!%' ESCAPE '!'", false},
		{"hospital LIKE '_ddenbrookes'", true},
	}
	for _, tt := range tests {
		if got := evalOn(t, tt.sel, attrs); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.sel, got, tt.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	attrs := map[string]string{"a": "10", "b": "3"}
	tests := []struct {
		sel  string
		want bool
	}{
		{"a + b = 13", true},
		{"a - b = 7", true},
		{"a * b = 30", true},
		{"a / 2 = 5", true},
		{"a + b * 2 = 16", true},   // precedence
		{"(a + b) * 2 = 26", true}, // parentheses
		{"-a = -10", true},
		{"+a = 10", true},
		{"a / 0 = 1", false}, // division by zero -> NULL -> not true
		{"a / 0 IS NULL", true},
		{"2 = 1 + 1", true},
		{"a + missing = 10", false}, // NULL propagates through arithmetic
	}
	for _, tt := range tests {
		if got := evalOn(t, tt.sel, attrs); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.sel, got, tt.want)
		}
	}
}

func TestEmptySelectorMatchesEverything(t *testing.T) {
	for _, src := range []string{"", "   ", "\t\n"} {
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if !s.MatchesAttrs(nil) || !s.MatchesAttrs(map[string]string{"a": "1"}) {
			t.Errorf("blank selector %q did not match", src)
		}
	}
	var nilSel *Selector
	if !nilSel.MatchesAttrs(nil) {
		t.Error("nil selector did not match")
	}
}

func TestStringLiteralEscapes(t *testing.T) {
	attrs := map[string]string{"name": "O'Brien"}
	if !evalOn(t, "name = 'O''Brien'", attrs) {
		t.Error("doubled-quote escape failed")
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	attrs := map[string]string{"a": "1"}
	if !evalOn(t, "a = 1 and not (a is null)", attrs) {
		t.Error("lower-case keywords rejected")
	}
	if !evalOn(t, "a Between 0 And 2", attrs) {
		t.Error("mixed-case keywords rejected")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"a =",
		"= 1",
		"a = 'unterminated",
		"a BETWEEN 1",
		"a BETWEEN 1 OR 2",
		"a IN ()",
		"a IN (1)", // IN list must contain strings
		"a LIKE 5",
		"a LIKE 'x' ESCAPE 'toolong'",
		"a IS",
		"a IS NOT",
		"(a = 1",
		"a = 1)",
		"a NOT = 1",
		"a @ 1",
		"1.e3",
		"a = 1 extra garbage",
		"a LIKE 'x!' ESCAPE '!'",
	}
	for _, sel := range bad {
		if _, err := Parse(sel); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sel)
		} else if _, ok := err.(*SyntaxError); !ok {
			// compileLike errors are fmt errors; that is acceptable for
			// pattern problems, but grammar problems must be SyntaxError.
			if !strings.Contains(sel, "ESCAPE") {
				t.Errorf("Parse(%q) error type %T, want *SyntaxError", sel, err)
			}
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("a = ")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Input != "a = " || se.Pos == 0 {
		t.Errorf("SyntaxError fields: %+v", se)
	}
	if !strings.Contains(se.Error(), "offset") {
		t.Errorf("Error() = %q", se.Error())
	}
}

func TestNumberLexing(t *testing.T) {
	attrs := map[string]string{"x": "1200"}
	tests := []struct {
		sel  string
		want bool
	}{
		{"x = 1.2e3", true},
		{"x = 1.2E+3", true},
		{"x = 12e2", true},
		{"x <> 1.2e2", true},
	}
	for _, tt := range tests {
		if got := evalOn(t, tt.sel, attrs); got != tt.want {
			t.Errorf("%q = %v, want %v", tt.sel, got, tt.want)
		}
	}
}

// TestSelectorSourceAndString: Source returns the text as given, and the
// oracle's printed form of it re-parses to a selector with the same verdict.
func TestSelectorSourceAndString(t *testing.T) {
	src := "type = 'cancer' AND age > 60"
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Source() != src {
		t.Errorf("Source = %q", s.Source())
	}
	o, err := oracleParse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := o.String()
	re, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", printed, err)
	}
	attrs := map[string]string{"type": "cancer", "age": "61"}
	if s.MatchesAttrs(attrs) != re.MatchesAttrs(attrs) {
		t.Error("printed selector evaluates differently")
	}
}

// The paper's example subscription: topic patient_report with content
// filter type=cancer (Listing 1, line 1).
func TestPaperListing1Selector(t *testing.T) {
	s, err := Parse("type = 'cancer'")
	if err != nil {
		t.Fatal(err)
	}
	if !s.MatchesAttrs(map[string]string{"type": "cancer", "patient_id": "1"}) {
		t.Error("listing 1 selector rejected matching event")
	}
	if s.MatchesAttrs(map[string]string{"type": "screening"}) {
		t.Error("listing 1 selector accepted non-matching event")
	}
}
