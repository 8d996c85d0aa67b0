package selector

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// Parse and MatchesAttrs are checked against the interpreter they
// replaced (oracle_test.go). They differ from it in two intended ways,
// each pinned by its own test and left out of the comparison by input
// class: a selector of more than maxTokens tokens is rejected
// (TestSelectorTokenBound), and LIKE walks a non-ASCII pattern or escape
// by rune where the oracle walked it by byte (TestLikeMatchesByRune).

// diffAttrs and diffValues are the attribute universe the generated
// selectors and environments share. The values mix numbers, the spellings
// of booleans that a condition reads, IEEE specials, LIKE metacharacters
// and non-ASCII text.
var (
	diffAttrs  = []string{"a", "b", "c", "type", "age", "flag", "s"}
	diffValues = []string{
		"x", "y", "cancer", "", "0", "1", "-1", "2", "61", "3.5", "1e3", "1200", " 1", "0x1p4",
		"true", "TRUE", "True", "false", "FALSE", "False",
		"NaN", "Inf", "-Inf", "+Inf", "1e999",
		"O'Brien", "50%", "a_b", "C50.9", "x!y", "José", "café au lait",
	}
)

// checkAgainstOracle fails t unless Parse and the oracle both reject src
// with the same error, or both accept it and give the same Source and
// the same verdict on every environment. The rejections the oracle need
// not share are the bounds: a selector over maxTokens tokens, and a LIKE
// pattern over maxLikePattern bytes. It reports whether src parsed.
func checkAgainstOracle(t testing.TB, src string, envs []map[string]string) bool {
	t.Helper()
	got, err := Parse(src)
	want, wantErr := oracleParse(src)
	var se *SyntaxError
	if errors.As(err, &se) && strings.HasPrefix(se.Msg, "more than") {
		if n := oracleTokens(src); n <= maxTokens {
			t.Fatalf("Parse(%q) = %v, but it has %d tokens", src, err, n)
		}
		return false
	}
	if errors.As(err, &se) && strings.HasPrefix(se.Msg, "LIKE pattern longer") {
		if len(src) <= maxLikePattern {
			t.Fatalf("Parse(%q) = %v, but it is only %d bytes long", src, err, len(src))
		}
		return false
	}
	if errKind(err) != errKind(wantErr) {
		t.Fatalf("Parse(%q) error = %s, the oracle's = %s", src, errKind(err), errKind(wantErr))
	}
	if err != nil {
		return false
	}
	if got.Source() != want.Source() {
		t.Fatalf("Parse(%q).Source() = %q, the oracle's = %q", src, got.Source(), want.Source())
	}
	for _, env := range envs {
		if g, w := got.MatchesAttrs(env), want.MatchesAttrs(env); g != w {
			t.Fatalf("Parse(%q).MatchesAttrs(%q) = %v, the oracle's = %v", src, env, g, w)
		}
	}
	return true
}

// errKind renders an error's type and text, so two errors compare equal
// only when both kind and message (offset included) agree.
func errKind(err error) string {
	if err == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%T(%v)", err, err)
}

// oracleTokens counts the tokens the oracle's lexer reads from src up to
// its end or its first error, which counts as one more.
func oracleTokens(src string) int {
	l := oLexer{input: src}
	for n := 0; ; n++ {
		tok, err := l.next()
		if err != nil {
			return n + 1
		}
		if tok.kind == oTokEOF {
			return n
		}
	}
}

// diffEnvs draws n attribute environments; the first has no attributes,
// so every identifier is NULL in it.
func diffEnvs(rnd *rand.Rand, n int) []map[string]string {
	envs := []map[string]string{{}}
	for len(envs) < n {
		env := make(map[string]string)
		for _, k := range diffAttrs {
			if rnd.Intn(4) > 0 {
				env[k] = diffValues[rnd.Intn(len(diffValues))]
			}
		}
		envs = append(envs, env)
	}
	return envs
}

// selGen writes random selectors that reach every production of the
// grammar, in random keyword case and spacing.
type selGen struct{ rnd *rand.Rand }

func (g selGen) pick(xs ...string) string { return xs[g.rnd.Intn(len(xs))] }

func (g selGen) kw(k string) string {
	switch g.rnd.Intn(4) {
	case 0:
		return strings.ToLower(k)
	case 1:
		return k[:1] + strings.ToLower(k[1:])
	}
	return k
}

func (g selGen) sp() string { return g.pick(" ", " ", " ", "  ", "\t", "\r\n") }

// operand writes a sum: a literal, an identifier, a signed or
// parenthesised operand, arithmetic, or a parenthesised condition.
func (g selGen) operand(depth int) string {
	n := 5
	if depth > 0 {
		n = 10
	}
	switch g.rnd.Intn(n) {
	case 0, 1:
		return g.pick(diffAttrs...)
	case 2:
		return g.pick("'x'", "'cancer'", "''", "'O''Brien'", "'1'", "'61'", "'3.5'", "'true'", "'FALSE'", "'NaN'", "'50%'")
	case 3:
		return g.pick("0", "1", "2", "3.5", "61", "100", "1e3", "1.2E+3", "12e2", "0.5e-1", "007")
	case 4:
		return g.kw(g.pick("TRUE", "FALSE"))
	case 5:
		return g.pick("-", "+", "- ", "--") + g.operand(depth-1)
	case 6, 7:
		// Two to four terms, so precedence and associativity both show.
		sum := g.operand(depth - 1)
		for i := 1 + g.rnd.Intn(3); i > 0; i-- {
			sum += g.sp() + g.pick("+", "-", "*", "/") + g.sp() + g.pick("0", "1", "2", "3.5", "a", "b", "age")
		}
		return sum
	case 8:
		return "(" + g.operand(depth-1) + ")"
	}
	return "(" + g.cond(depth-1) + ")"
}

// cond writes a condition.
func (g selGen) cond(depth int) string {
	n := 6
	if depth > 0 {
		n = 12
	}
	not := func() string {
		if g.rnd.Intn(3) == 0 {
			return g.kw("NOT") + g.sp()
		}
		return ""
	}
	s := g.sp
	switch g.rnd.Intn(n) {
	case 0:
		return g.operand(depth) + s() + g.pick("=", "<>", "<", "<=", ">", ">=") + s() + g.operand(depth)
	case 1:
		return g.operand(depth) + s() + not() + g.kw("BETWEEN") + s() + g.operand(depth) + s() + g.kw("AND") + s() + g.operand(depth)
	case 2:
		items := g.pick("'x'", "'1'", "'cancer'", "''", "'true'", "'3.5'")
		for i := g.rnd.Intn(3); i > 0; i-- {
			items += "," + s() + g.pick("'y'", "'61'", "'O''Brien'", "'1.0'", "'NaN'")
		}
		return g.operand(depth) + s() + not() + g.kw("IN") + s() + "(" + items + ")"
	case 3:
		return g.operand(depth) + s() + not() + g.kw("LIKE") + s() + g.likePattern()
	case 4:
		return g.operand(depth) + s() + g.kw("IS") + s() + not() + g.kw("NULL")
	case 5:
		return g.operand(depth)
	case 6:
		return g.kw("NOT") + s() + g.cond(depth-1)
	case 7, 8:
		return g.cond(depth-1) + s() + g.kw("AND") + s() + g.cond(depth-1)
	case 9, 10:
		return g.cond(depth-1) + s() + g.kw("OR") + s() + g.cond(depth-1)
	}
	return "(" + g.cond(depth-1) + ")"
}

// likePattern writes a LIKE pattern and, half the time, an ESCAPE clause:
// none, the empty escape, a metacharacter, or one too long.
func (g selGen) likePattern() string {
	var p strings.Builder
	for i := g.rnd.Intn(6); i > 0; i-- {
		p.WriteString(g.pick("x", "y", "a", "b", "1", "5", "%", "%", "_", "_", "!", "\\", "''", ".", "*", "caf", "C50"))
	}
	pat := "'" + p.String() + "'"
	if g.rnd.Intn(2) == 0 {
		return pat
	}
	return pat + g.sp() + g.kw("ESCAPE") + g.sp() + g.pick("''", "'!'", "'!'", "'\\'", "'%'", "'_'", "'x'", "'!!'")
}

// mutate damages a selector a quarter of the time, so the syntax errors
// are compared too: a byte goes, a byte arrives, or the tail is cut.
func (g selGen) mutate(src string) string {
	if len(src) == 0 || g.rnd.Intn(4) > 0 {
		return src
	}
	i := g.rnd.Intn(len(src))
	switch g.rnd.Intn(3) {
	case 0:
		return src[:i] + src[i+1:]
	case 1:
		return src[:i] + g.pick("@", "'", "(", ")", ",", ".", "e", "0", "-", " ", "=", "<", ">", "!", "NOT ", "AND ", "IN ") + src[i:]
	}
	return src[:i]
}

// orChain writes n terms joined by OR: 4n-1 tokens, around the bound.
func orChain(n int) string {
	return strings.TrimSuffix(strings.Repeat("a = 1 OR ", n), " OR ")
}

// TestOracleDifferential generates selectors over every production — and
// mutations of them — and checks each against the oracle on eight
// attribute environments, until 100,000 selector × environment pairs
// have been compared. It also checks each accepted selector's fully
// parenthesised rendering by the oracle's printer, which pins precedence
// and associativity, and OR chains on both sides of the token bound.
func TestOracleDifferential(t *testing.T) {
	const wantPairs = 100_000
	rnd := rand.New(rand.NewSource(30))
	g := selGen{rnd}
	pairs, parsed, rejected := 0, 0, 0
	for pairs < wantPairs {
		envs := diffEnvs(rnd, 8)
		src := g.mutate(g.cond(rnd.Intn(5)))
		if !checkAgainstOracle(t, src, envs) {
			rejected++
			continue
		}
		parsed++
		pairs += len(envs)
		o, _ := oracleParse(src)
		checkAgainstOracle(t, o.String(), envs)
	}
	for n := 60; n <= 70; n++ {
		checkAgainstOracle(t, orChain(n), diffEnvs(rnd, 8))
	}
	t.Logf("%d selectors parsed, %d rejected, %d selector × environment pairs", parsed, rejected, pairs)
	if rejected == 0 || parsed < rejected {
		t.Errorf("generator mix: %d parsed, %d rejected", parsed, rejected)
	}
}

// likeUTF8 reports whether src may hold a LIKE pattern or escape with a
// non-ASCII character, where Parse and the oracle differ by design.
func likeUTF8(src string) bool {
	for i := 0; i < len(src); i++ {
		if src[i] >= utf8.RuneSelf {
			return strings.Contains(strings.ToUpper(src), "LIKE")
		}
	}
	return false
}

// oracleSeeds are FuzzSelectorOracle's seed inputs.
func oracleSeeds() []string {
	g := selGen{rand.New(rand.NewSource(1))}
	return []string{
		"type = 'cancer'",
		"type = 'cancer' AND stage >= 2",
		"a + b * 2 = 16 OR -a <> +b / 0",
		"age NOT BETWEEN 62 AND 65 AND hospital IN ('addenbrookes', 'papworth')",
		"pct LIKE '95!%' ESCAPE '!' OR code NOT LIKE 'C5_.%' ESCAPE ''",
		"missing IS NULL AND present IS NOT NULL",
		"NOT (flag = TRUE) OR flag <> FALSE",
		"x = 1.2E+3 OR x = 12e OR 1.e3",
		"a LIKE 'x!' ESCAPE '!'",
		"name = 'O''Brien",
		"a = 1 @",
		orChain(64),
		orChain(65),
		g.cond(3),
		g.cond(4),
	}
}

// FuzzSelectorOracle checks Parse and MatchesAttrs against the oracle on
// arbitrary selector text, over fixed environments and one in which every
// attribute holds the fuzzed value.
func FuzzSelectorOracle(f *testing.F) {
	for _, src := range oracleSeeds() {
		f.Add(src, "1")
	}
	envs := diffEnvs(rand.New(rand.NewSource(2)), 8)
	f.Fuzz(func(t *testing.T, src, val string) {
		if likeUTF8(src) {
			t.Skip("non-ASCII LIKE pattern: TestLikeMatchesByRune covers it")
		}
		if strings.Count(strings.ToUpper(src), "BETWEEN") > 16 {
			t.Skip("the oracle evaluates a BETWEEN subject twice, 2^k times for k nested")
		}
		all := make(map[string]string, len(diffAttrs))
		for _, k := range diffAttrs {
			all[k] = val
		}
		checkAgainstOracle(t, src, append(envs[:len(envs):len(envs)], all))
	})
}

// TestLikeMatchesByRune: LIKE reads its pattern and escape character by
// rune, so a non-ASCII literal matches itself and '_' stands for one
// character, not one byte. The oracle quoted each pattern byte on its
// own and matched none of these, which withheld deliveries silently.
func TestLikeMatchesByRune(t *testing.T) {
	tests := []struct {
		sel, val string
		want     bool
	}{
		{"a LIKE 'José'", "José", true},
		{"a LIKE '%é%'", "café au lait", true},
		{"a LIKE 'caf_'", "café", true},
		{"a LIKE 'caf__'", "café", false},
		{"a LIKE '%!é' ESCAPE '!'", "café", true},
		{"a LIKE '50é%' ESCAPE 'é'", "50%", true},
		{"a LIKE '50é%' ESCAPE 'é'", "500", false},
		{"a NOT LIKE '%ü%'", "Zürich", false},
	}
	for _, tt := range tests {
		if got := evalOn(t, tt.sel, map[string]string{"a": tt.val}); got != tt.want {
			t.Errorf("%s on %q = %v, want %v", tt.sel, tt.val, got, tt.want)
		}
	}
	if _, err := Parse("a LIKE 'x' ESCAPE 'éé'"); err == nil {
		t.Error("a two-character ESCAPE parsed")
	}
}

// TestLikePatternBound: Parse accepts a LIKE pattern of maxLikePattern
// bytes and refuses a longer one with a SyntaxError at the pattern, so a
// 16 KB pattern never becomes a regexp. No fuzz seed trips the bound, the
// pipeline workload's selector (the second seed) included.
func TestLikePatternBound(t *testing.T) {
	like := func(n int) string { return "a LIKE '" + strings.Repeat("%x", n/2) + "'" }
	if _, err := Parse(like(maxLikePattern)); err != nil {
		t.Fatalf("a %d-byte pattern: %v", maxLikePattern, err)
	}
	for _, n := range []int{maxLikePattern + 2, 16 << 10} {
		_, err := Parse(like(n))
		var se *SyntaxError
		if !errors.As(err, &se) || se.Pos != len("a LIKE ") {
			t.Errorf("a %d-byte pattern: err = %v, want a SyntaxError at offset %d", n, err, len("a LIKE "))
		}
	}
	for _, src := range oracleSeeds() {
		var se *SyntaxError
		if _, err := Parse(src); errors.As(err, &se) && strings.HasPrefix(se.Msg, "LIKE pattern longer") {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

// TestSelectorTokenBound: Parse accepts a selector of maxTokens tokens
// and rejects one more with a SyntaxError at the first token past the
// bound, whatever the shape — a NOT chain that would nest the evaluator
// deeply, or a disjunction as long as a SUBSCRIBE header allows.
func TestSelectorTokenBound(t *testing.T) {
	nots := func(n int) string { return strings.Repeat("NOT ", n-1) + "a" }
	if _, err := Parse(nots(maxTokens)); err != nil {
		t.Fatalf("a %d-token selector: %v", maxTokens, err)
	}
	for _, tt := range []struct {
		src string
		pos int
	}{
		{nots(maxTokens + 1), 4 * maxTokens},
		{nots(16000), 4 * maxTokens},
		{orChain(64) + " OR a", len(orChain(64)) + 4},
		{orChain(7001), len(orChain(64)) + 4},
	} {
		_, err := Parse(tt.src)
		var se *SyntaxError
		if !errors.As(err, &se) || se.Pos != tt.pos || se.Input != tt.src {
			t.Errorf("Parse(%.40q…) = %v, want a SyntaxError at offset %d", tt.src, err, tt.pos)
		}
	}
}

// TestBetweenCostLinear: BETWEEN evaluates its subject once, so the
// deepest nesting the token bound admits — each BETWEEN the next one's
// subject — matches at once. The oracle evaluates the subject twice per
// level: 2^42 evaluations here, which would stall the publisher.
func TestBetweenCostLinear(t *testing.T) {
	const depth = (maxTokens - 1) / 6
	src := strings.Repeat("(", depth) + "a" + strings.Repeat(" BETWEEN 0 AND 1)", depth)
	sel, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	go func() { done <- sel.MatchesAttrs(nil) }()
	select {
	case matched := <-done:
		if matched {
			t.Errorf("%d nested BETWEENs on a NULL subject matched", depth)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%d nested BETWEENs still evaluating after 10 s", depth)
	}
}

// TestMatchAllocs: matching the pipeline workload's selector allocates
// nothing, whether it accepts or rejects the event.
func TestMatchAllocs(t *testing.T) {
	sel, err := Parse("type = 'cancer' AND stage >= 2")
	if err != nil {
		t.Fatal(err)
	}
	pass := map[string]string{"type": "cancer", "stage": "3", "seq": "17", "mdt": "4"}
	screened := map[string]string{"type": "screening", "stage": "2", "seq": "18", "mdt": "5"}
	var n int
	if allocs := testing.AllocsPerRun(1000, func() {
		if sel.MatchesAttrs(pass) && !sel.MatchesAttrs(screened) {
			n++
		}
	}); allocs != 0 || n == 0 {
		t.Errorf("MatchesAttrs allocates %v times per pair (matched %d)", allocs, n)
	}
}
