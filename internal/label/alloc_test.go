package label

import (
	"reflect"
	"testing"
)

// TestSetStringAllocs pins the wire-rendering cost of label sets. The
// single-label case — by far the most common on events — must render with
// just the one URI concatenation, skipping the sort/slice machinery.
func TestSetStringAllocs(t *testing.T) {
	single := NewSet(Conf("ecric.org.uk/mdt/7"))
	if got := testing.AllocsPerRun(1000, func() { _ = single.String() }); got > 1 {
		t.Errorf("single-label Set.String allocs/op = %v, want <= 1", got)
	}
	if single.String() != "label:conf:ecric.org.uk/mdt/7" {
		t.Errorf("single-label String = %q", single.String())
	}
	if got := NewSet().String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
}

// TestOfKindSharesHomogeneousSets pins the allocation-free partition fast
// path used by the broker: a set whose labels are all one kind is returned
// as-is, and a kind with no members returns nil.
func TestOfKindSharesHomogeneousSets(t *testing.T) {
	conf := NewSet(Conf("a"), Conf("b"))
	if got := testing.AllocsPerRun(1000, func() { _ = conf.Confidentiality() }); got != 0 {
		t.Errorf("homogeneous Confidentiality allocs/op = %v, want 0", got)
	}
	if c := conf.Confidentiality(); c.Len() != 2 {
		t.Errorf("Confidentiality lost labels: %v", c)
	}
	if i := conf.Integrity(); i != nil {
		t.Errorf("Integrity of conf-only set = %v, want nil", i)
	}
	mixed := NewSet(Conf("a"), Int("i"))
	if c := mixed.Confidentiality(); c.Len() != 1 || !c.Contains(Conf("a")) {
		t.Errorf("mixed Confidentiality = %v", c)
	}
	if i := mixed.Integrity(); i.Len() != 1 || !i.Contains(Int("i")) {
		t.Errorf("mixed Integrity = %v", i)
	}
}

// TestWithoutFastPaths pins Without's allocation behaviour: removing
// nothing shares the receiver, and the one-label removal skips the
// intermediate drop set.
func TestWithoutFastPaths(t *testing.T) {
	s := NewSet(Conf("a"), Conf("b"))
	if got := s.Without(Conf("missing")); got.Len() != 2 {
		t.Errorf("Without(missing) = %v", got)
	}
	if got := testing.AllocsPerRun(1000, func() { _ = s.Without(Conf("missing")) }); got != 0 {
		t.Errorf("no-op Without allocs/op = %v, want 0", got)
	}
	if got := s.Without(Conf("a")); got.Len() != 1 || got.Contains(Conf("a")) {
		t.Errorf("Without(a) = %v", got)
	}
	one := NewSet(Conf("a"))
	if got := one.Without(Conf("a")); got != nil {
		t.Errorf("Without removing last label = %v, want nil", got)
	}
	// Duplicated removal labels must still drop the label exactly once.
	if got := s.Without(Conf("a"), Conf("a")); got.Len() != 1 {
		t.Errorf("Without(a, a) = %v", got)
	}
}

// sameSet reports whether two sets are one map, not merely equal ones.
func sameSet(a, b Set) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }

// TestUnionIntersectShareContainedOperand pins the composition fast path
// the web tier's pages live on: when one operand already is the result,
// Union and Intersect return that operand and allocate nothing, whichever
// side it is on. A page whose every value carries one label set composes
// its labels for free.
func TestUnionIntersectShareContainedOperand(t *testing.T) {
	big := NewSet(Conf("a"), Conf("b"), Int("i"))
	small := NewSet(Conf("a"), Int("i"))
	same := NewSet(Conf("a"), Conf("b"), Int("i"))
	for _, c := range []struct {
		name       string
		x, y, want Set
		op         func(x, y Set) Set
	}{
		{"big ∪ small", big, small, big, Set.Union},
		{"small ∪ big", small, big, big, Set.Union},
		{"big ∪ equal", big, same, big, Set.Union},
		{"big ∪ itself", big, big, big, Set.Union},
		{"big ∩ small", big, small, small, Set.Intersect},
		{"small ∩ big", small, big, small, Set.Intersect},
		{"big ∩ equal", big, same, big, Set.Intersect},
		{"big ∩ itself", big, big, big, Set.Intersect},
	} {
		if got := c.op(c.x, c.y); !sameSet(got, c.want) {
			t.Errorf("%s = %v, which is not the operand %v itself", c.name, got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = c.op(c.x, c.y) }); n != 0 {
			t.Errorf("%s allocs/op = %v, want 0", c.name, n)
		}
	}
	// Derive over sources that carry one confidentiality label set — the
	// leaves of a stored document — is the same fast path per source.
	conf, confToo := NewSet(Conf("a"), Conf("b")), NewSet(Conf("a"), Conf("b"))
	if got := Derive(conf, confToo, conf); !sameSet(got, conf) {
		t.Errorf("Derive over equal sets = %v, which is not the first source itself", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = Derive(conf, confToo, conf) }); n != 0 {
		t.Errorf("Derive over equal sets allocs/op = %v, want 0", n)
	}

	// Operands that only overlap still produce a fresh, correct set and
	// are left as they were.
	x, y := NewSet(Conf("a"), Conf("b")), NewSet(Conf("b"), Conf("c"))
	if u := x.Union(y); !u.Equal(NewSet(Conf("a"), Conf("b"), Conf("c"))) || sameSet(u, x) || sameSet(u, y) {
		t.Errorf("overlapping union = %v", u)
	}
	if i := x.Intersect(y); !i.Equal(NewSet(Conf("b"))) || sameSet(i, x) || sameSet(i, y) {
		t.Errorf("overlapping intersection = %v", i)
	}
	if x.Len() != 2 || y.Len() != 2 {
		t.Errorf("operands changed: %v %v", x, y)
	}
	if i := x.Intersect(NewSet(Conf("z"))); i != nil {
		t.Errorf("disjoint intersection = %v, want nil", i)
	}
}
