package selector

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

// genExprSrc builds the source text of a random selector of bounded
// depth over a small attribute universe. It exercises evaluator
// totality.
func genExprSrc(rnd *rand.Rand, depth int) string {
	idents := []string{"a", "b", "c", "type", "age"}
	strs := []string{"'x'", "'y'", "'cancer'", "''", "'O''Brien'"}
	nums := []string{"0", "1", "2", "3.5", "61", "100"}

	operand := func() string {
		switch rnd.Intn(3) {
		case 0:
			return idents[rnd.Intn(len(idents))]
		case 1:
			return strs[rnd.Intn(len(strs))]
		default:
			return nums[rnd.Intn(len(nums))]
		}
	}

	if depth <= 0 {
		// Leaf comparison.
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		switch rnd.Intn(5) {
		case 0:
			return operand() + " IS NULL"
		case 1:
			return operand() + " IS NOT NULL"
		case 2:
			return idents[rnd.Intn(len(idents))] + " BETWEEN " + nums[rnd.Intn(len(nums))] + " AND " + nums[rnd.Intn(len(nums))]
		case 3:
			return idents[rnd.Intn(len(idents))] + " IN (" + strs[rnd.Intn(len(strs))] + ", " + strs[rnd.Intn(len(strs))] + ")"
		default:
			return operand() + " " + ops[rnd.Intn(len(ops))] + " " + operand()
		}
	}
	switch rnd.Intn(4) {
	case 0:
		return "(" + genExprSrc(rnd, depth-1) + " AND " + genExprSrc(rnd, depth-1) + ")"
	case 1:
		return "(" + genExprSrc(rnd, depth-1) + " OR " + genExprSrc(rnd, depth-1) + ")"
	case 2:
		return "NOT (" + genExprSrc(rnd, depth-1) + ")"
	default:
		return genExprSrc(rnd, depth-1)
	}
}

func genAttrs(rnd *rand.Rand) map[string]string {
	universe := []string{"a", "b", "c", "type", "age"}
	values := []string{"x", "y", "cancer", "0", "1", "61", "3.5", ""}
	attrs := make(map[string]string)
	for _, k := range universe {
		if rnd.Intn(2) == 0 {
			attrs[k] = values[rnd.Intn(len(values))]
		}
	}
	return attrs
}

// TestQuickPrintParseAgree: parsing a random expression, printing it with
// the oracle's fully parenthesised printer and re-parsing the printed form
// must evaluate identically on random attribute environments.
func TestQuickPrintParseAgree(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		src := genExprSrc(rnd, 3)
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("generated expression failed to parse: %q: %v", src, err)
		}
		o, err := oracleParse(src)
		if err != nil {
			t.Fatalf("oracle failed to parse %q: %v", src, err)
		}
		printed := o.String()
		s2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form failed to parse: %q (from %q): %v", printed, src, err)
		}
		for j := 0; j < 10; j++ {
			attrs := genAttrs(rnd)
			if s.MatchesAttrs(attrs) != s2.MatchesAttrs(attrs) {
				t.Fatalf("eval mismatch for %q vs %q on %v", src, printed, attrs)
			}
		}
	}
}

// TestQuickEvaluatorTotal: the evaluator must never panic, whatever the
// attribute values.
func TestQuickEvaluatorTotal(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	for i := 0; i < 400; i++ {
		src := genExprSrc(rnd, 4)
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		for j := 0; j < 5; j++ {
			_ = s.MatchesAttrs(genAttrs(rnd))
		}
	}
}

// TestQuickNotInvolution: NOT (NOT e) evaluates the same as e whenever e is
// not unknown; when unknown both reject.
func TestQuickNotInvolution(t *testing.T) {
	rnd := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		src := genExprSrc(rnd, 2)
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		doubled, err := Parse("NOT (NOT (" + src + "))")
		if err != nil {
			t.Fatalf("Parse doubled: %v", err)
		}
		for j := 0; j < 10; j++ {
			attrs := genAttrs(rnd)
			if s.MatchesAttrs(attrs) != doubled.MatchesAttrs(attrs) {
				t.Fatalf("double negation changed result for %q on %v", src, attrs)
			}
		}
	}
}

// TestQuickNumericStringAgreement: for numeric attribute values, comparing
// via selector must agree with Go float comparison.
func TestQuickNumericStringAgreement(t *testing.T) {
	prop := func(x, y int16) bool {
		attrs := map[string]string{"v": strconv.Itoa(int(x))}
		gt, err := Parse("v > " + strconv.Itoa(int(y)))
		if err != nil {
			return false
		}
		return gt.MatchesAttrs(attrs) == (int(x) > int(y))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickLikePrefix: v LIKE 'p%' agrees with strings.HasPrefix for
// patterns without metacharacters.
func TestQuickLikePrefix(t *testing.T) {
	letters := []rune("abcxyz")
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		n := rnd.Intn(6)
		v := make([]rune, n)
		for j := range v {
			v[j] = letters[rnd.Intn(len(letters))]
		}
		p := make([]rune, rnd.Intn(4))
		for j := range p {
			p[j] = letters[rnd.Intn(len(letters))]
		}
		val, prefix := string(v), string(p)
		s, err := Parse("v LIKE '" + prefix + "%'")
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		want := len(val) >= len(prefix) && val[:len(prefix)] == prefix
		if got := s.MatchesAttrs(map[string]string{"v": val}); got != want {
			t.Fatalf("LIKE %q%% on %q = %v, want %v", prefix, val, got, want)
		}
	}
}
