package label

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// oracleSetString is Set.String as it was before the one-pass rendering:
// every label rendered to its URI, the URIs sorted as strings (a pair of
// concatenations per comparison) and joined. The model checks below hold
// the comparator-based rendering to it byte for byte.
func oracleSetString(s Set) string {
	out := make([]Label, 0, len(s))
	for l := range s {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	uris := make([]string, len(out))
	for i, l := range out {
		uris[i] = l.String()
	}
	return strings.Join(uris, ",")
}

// oracleParseSet is ParseSet as it was before the single-pass walk: split
// on commas, trim, skip empty elements.
func oracleParseSet(s string) (Set, error) {
	var out Set
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		l, err := Parse(part)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = make(Set)
		}
		out[l] = struct{}{}
	}
	return out, nil
}

// modelSet draws n distinct labels built to stress the ordering: both
// kinds mixed, names sharing long prefixes, the same name under both kinds
// (URIs that differ only in the kind segment), names that are prefixes of
// one another, bytes on either side of ':' and ',' in the ASCII order, and
// — sometimes — the zero label, which renders as "label:invalid:".
func modelSet(rnd *rand.Rand, n int) Set {
	const stem = "ecric.org.uk/a-long-shared-prefix/patient/"
	tails := []string{"", "0", "1", "10", "2", "a", "a/b", "a:b", "a b", "a-", "a.", "aa", "z", "é", "Z", "+", "~", "conf:x", "int:x"}
	s := make(Set, n)
	if n > 0 && rnd.Intn(4) == 0 {
		s[Label{}] = struct{}{}
	}
	for len(s) < n {
		name := tails[rnd.Intn(len(tails))]
		if rnd.Intn(3) > 0 {
			name = stem + name + fmt.Sprint(rnd.Intn(50))
		}
		if name == "" {
			name = "x"
		}
		l := Conf(name)
		if rnd.Intn(2) == 0 {
			l = Int(name)
		}
		s[l] = struct{}{}
		if rnd.Intn(3) == 0 && len(s) < n {
			s[New(3-l.Kind(), name)] = struct{}{} // the same name under the other kind
		}
	}
	return s
}

// TestCanonicalStringModel is the new ≡ old check for the rendering: over
// seeded random sets of every size class (empty, one, two, around the
// stack array's 16, far beyond it) Set.String equals the per-comparison-
// concatenation oracle, and Sorted and Strings give the same order.
func TestCanonicalStringModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		for _, n := range []int{0, 1, 2, 3, 6, 8, 9, 15, 16, 17, 40} {
			s := modelSet(rnd, n)
			want := oracleSetString(s)
			if got := s.String(); got != want {
				t.Fatalf("seed %d, %d labels: String differs from the oracle:\n got %q\nwant %q", seed, n, got, want)
			}
			if got := strings.Join(s.Strings(), ","); got != want {
				t.Fatalf("seed %d, %d labels: Strings differs from the oracle:\n got %q\nwant %q", seed, n, got, want)
			}
			sorted := s.Sorted()
			for i := range sorted {
				if i > 0 && sorted[i-1].String() >= sorted[i].String() {
					t.Fatalf("seed %d, %d labels: Sorted out of URI order at %d: %v", seed, n, i, sorted)
				}
			}
			if len(sorted) != len(s) {
				t.Fatalf("seed %d: Sorted has %d of %d labels", seed, len(sorted), len(s))
			}
		}
	}
}

// checkParseCanonical holds one input to the three properties of the
// parse: it yields the oracle's set or the oracle's error; an input
// reported canonical is exactly the rendering of the set it parsed to; and
// that rendering is itself always reported canonical and parses back to
// the same set.
func checkParseCanonical(t *testing.T, in string) {
	t.Helper()
	want, wantErr := oracleParseSet(in)
	got, canonical, err := ParseCanonical(in)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ParseCanonical(%q) error = %v, the oracle's = %v", in, err, wantErr)
	}
	if plain, perr := ParseSet(in); !plain.Equal(got) || (perr == nil) != (err == nil) {
		t.Fatalf("ParseSet(%q) = %v, %v; ParseCanonical = %v, %v", in, plain, perr, got, err)
	}
	if err != nil {
		if got != nil || canonical {
			t.Fatalf("ParseCanonical(%q) failed but returned %v, canonical=%v", in, got, canonical)
		}
		return
	}
	if !got.Equal(want) {
		t.Fatalf("ParseCanonical(%q) = %v, the oracle's = %v", in, got, want)
	}
	rendered := got.String()
	if canonical && rendered != in {
		t.Fatalf("%q reported canonical, but its set renders as %q", in, rendered)
	}
	if !canonical && rendered == in {
		t.Fatalf("%q is its set's rendering but was not reported canonical", in)
	}
	back, backCanonical, err := ParseCanonical(rendered)
	if err != nil || !backCanonical || !back.Equal(got) {
		t.Fatalf("rendering %q of ParseSet(%q) parses to %v, canonical=%v, err=%v", rendered, in, back, backCanonical, err)
	}
}

// canonicalCorpus is the header corpus shared with FuzzParseCanonical and
// (in spirit) package event's forwarding tests: the canonical rendering and
// every way a foreign client's header can denote the same set without
// being it, plus headers that must be refused.
var canonicalCorpus = []string{
	"",
	"label:conf:a",
	"label:conf:a,label:conf:b,label:int:a",
	"label:conf:ecric.org.uk/mdt/7,label:conf:ecric.org.uk/patient/12,label:int:ecric.org.uk/mdt",
	"label:conf:b,label:conf:a",     // unsorted
	"label:int:a,label:conf:a",      // kinds out of order
	"label:conf:a,label:conf:a",     // duplicated
	"label:conf:a, label:conf:b",    // padded
	" label:conf:a",                 // padded at the edge
	"label:conf:a\t",                // padded by a control character
	"label:conf:a,,label:conf:b",    // empty element
	"label:conf:a,",                 // trailing comma
	",",                             // nothing but separators
	" ",                             // nothing but padding
	"label:conf:a:b,label:conf:a;b", // ':' in a name; ';' sorts after ':'
	"label:conf:a b,label:conf:a,label:conf:a!",     // inner space sorts before '!'
	"label:conf:a,nonsense",                         // bad element
	"label:conf:",                                   // empty name
	"label:conf: a",                                 // name with leading space
	"label:secret:a",                                // unknown kind
	"label:conf:a\u00a0,label:conf:b",               // padded by a non-ASCII space
	"label:conf:café,label:conf:cafe\u0301",         // non-ASCII names
	"label:conf:a\x00b",                             // control character inside a name
	"label:invalid:",                                // the zero label's rendering is not a label
	"label:conf:x/1,label:conf:x/10,label:conf:x/2", // lexicographic, not numeric
}

// TestCanonicalParseModel runs the corpus, every rendering of the model
// sets, and seeded damage to those renderings (shuffled, duplicated,
// padded, emptied elements) through checkParseCanonical.
func TestCanonicalParseModel(t *testing.T) {
	for _, in := range canonicalCorpus {
		checkParseCanonical(t, in)
	}
	pads := []string{" ", "\t", "  ", "\u00a0", ""}
	for seed := int64(1); seed <= 40; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		for _, n := range []int{0, 1, 2, 3, 6, 9, 40} {
			s := modelSet(rnd, n)
			delete(s, Label{}) // the zero label renders but, rightly, does not parse
			in := s.String()
			checkParseCanonical(t, in)
			if _, canonical, err := ParseCanonical(in); err != nil || !canonical {
				t.Fatalf("seed %d: rendering %q: canonical=%v err=%v", seed, in, canonical, err)
			}
			parts := strings.Split(in, ",")
			rnd.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
			checkParseCanonical(t, strings.Join(parts, ","))
			if len(parts) > 0 {
				i := rnd.Intn(len(parts))
				checkParseCanonical(t, strings.Join(append(parts[:i:i], parts[i+1:]...), ",")) // one dropped
				dup := append(append([]string(nil), parts...), parts[i])
				checkParseCanonical(t, strings.Join(dup, ","))
				padded := append([]string(nil), parts...)
				padded[i] = pads[rnd.Intn(len(pads))] + padded[i] + pads[rnd.Intn(len(pads))]
				checkParseCanonical(t, strings.Join(padded, ","))
				padded[i] = ""
				checkParseCanonical(t, strings.Join(padded, ","))
			}
		}
	}
}

// FuzzParseCanonical feeds arbitrary strings through the same three
// properties.
func FuzzParseCanonical(f *testing.F) {
	for _, in := range canonicalCorpus {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) { checkParseCanonical(t, in) })
}

// TestCanonicalRoundTripProperty: for every set of valid labels — names
// drawn from an alphabet full of the bytes that matter to the header
// syntax, anything ValidName accepts — ParseSet(s.String()) equals s, and
// the rendering is reported canonical.
func TestCanonicalRoundTripProperty(t *testing.T) {
	alphabet := []rune("ab/:;. -_é\u00a0\u3000!~\\\"'=")
	rnd := rand.New(rand.NewSource(7))
	sets, labels := 0, 0
	for sets < 2000 {
		s := make(Set)
		for n := rnd.Intn(7); len(s) < n; {
			name := make([]rune, 1+rnd.Intn(6))
			for i := range name {
				name[i] = alphabet[rnd.Intn(len(alphabet))]
			}
			if !ValidName(string(name)) {
				continue // outer white space: not a name
			}
			s[New(Kind(1+rnd.Intn(2)), string(name))] = struct{}{}
		}
		back, canonical, err := ParseCanonical(s.String())
		if err != nil || !canonical || !back.Equal(s) {
			t.Fatalf("set %v renders as %q, which parses to %v (canonical=%v, err=%v)", s.Strings(), s.String(), back, canonical, err)
		}
		sets++
		labels += len(s)
	}
	if labels < 3*sets/2 {
		t.Errorf("only %d labels over %d sets: the generator is starved", labels, sets)
	}
}

// TestCanonicalNamesThatCannotRoundTrip pins the bijection's other half: a
// name that would come back from one wire hop as a different label — or,
// with a comma, as two, one of them an integrity label nobody endorsed —
// is not a name. Parse refuses it with ErrInvalidLabel and New panics, as
// it always has for the empty name.
func TestCanonicalNamesThatCannotRoundTrip(t *testing.T) {
	bad := []string{
		"",
		"x/patient/1,label:int:x/app", // would parse back as two labels
		"a,b",
		",",
		" x", "x ", "\tx", "x\n", "x\r", // outer white space
		"\u00a0x", "x\u3000", "x\u0085", // ... non-ASCII white space too
		"a\x00b", "a\nb", "a\x7fb", "a\u0085b", // control characters anywhere
	}
	for _, name := range bad {
		if ValidName(name) {
			t.Errorf("ValidName(%q) = true", name)
		}
		for _, kind := range []string{"conf", "int"} {
			if l, err := Parse("label:" + kind + ":" + name); !errors.Is(err, ErrInvalidLabel) {
				t.Errorf("Parse of %s label named %q = %v, %v; want ErrInvalidLabel", kind, name, l, err)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(Confidentiality, %q) did not panic", name)
				}
			}()
			New(Confidentiality, name)
		}()
	}
	for _, name := range []string{"x", "a b", "a:b", "ecric.org.uk/patient/1", "é", "a\u00a0b", "a;b=c"} {
		if !ValidName(name) {
			t.Errorf("ValidName(%q) = false", name)
		}
		if l, err := Parse("label:int:" + name); err != nil || l != Int(name) {
			t.Errorf("Parse of label named %q = %v, %v", name, l, err)
		}
	}
	// JSON policy files and document metadata go through the same gate.
	var l Label
	if err := l.UnmarshalText([]byte("label:conf:a,label:int:b")); !errors.Is(err, ErrInvalidLabel) {
		t.Errorf("UnmarshalText of a comma-carrying URI = %v, want ErrInvalidLabel", err)
	}
}

// TestCanonicalCosts holds the rendering and the parse to their counts:
// one allocation to render a set of any size an event carries (the
// per-comparison oracle took 13 at 3 labels, about 31 at 6 and 93 at 12),
// two — the map — to parse one.
func TestCanonicalCosts(t *testing.T) {
	for _, n := range []int{1, 3, 6, 12} {
		labels := make([]Label, n)
		for i := range labels {
			labels[i] = New(Kind(1+i%2), fmt.Sprintf("ecric.org.uk/patient/%d", 1000-i))
		}
		s := NewSet(labels...)
		if got := testing.AllocsPerRun(200, func() { _ = s.String() }); got > 1 {
			t.Errorf("Set.String of %d labels: %v allocs/op, want <= 1", n, got)
		}
		if n != 3 && n != 6 {
			continue
		}
		hdr := s.String()
		if got := testing.AllocsPerRun(200, func() { _, _, _ = ParseCanonical(hdr) }); got > 2 {
			t.Errorf("ParseCanonical of %d labels: %v allocs/op, want <= 2", n, got)
		}
		if got := testing.AllocsPerRun(200, func() { _, _ = ParseSet(hdr) }); got > 2 {
			t.Errorf("ParseSet of %d labels: %v allocs/op, want <= 2", n, got)
		}
	}
}

// TestCanonicalSetIdentity: Is tells one set value from an equal one, at
// no cost; it is what binds a rendering to the set it was rendered from.
func TestCanonicalSetIdentity(t *testing.T) {
	a, b := NewSet(Conf("a"), Int("i")), NewSet(Conf("a"), Int("i"))
	var none Set
	for _, c := range []struct {
		name string
		x, y Set
		want bool
	}{
		{"a set and itself", a, a, true},
		{"equal sets", a, b, false},
		{"nil and nil", none, nil, true},
		{"nil and an empty set", none, Set{}, false},
		{"a set and what With() returns for nothing", a, a.With(), true},
		{"a set and its superset", a, a.With(Conf("b")), false},
	} {
		if got := c.x.Is(c.y); got != c.want {
			t.Errorf("%s: Is = %v, want %v", c.name, got, c.want)
		}
	}
	if got := testing.AllocsPerRun(200, func() { _ = a.Is(b) }); got != 0 {
		t.Errorf("Is allocs/op = %v, want 0", got)
	}
}
