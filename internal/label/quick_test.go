package label

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genSet produces a random small label set drawn from a bounded universe so
// that set operations exercise overlaps.
func genSet(rnd *rand.Rand) Set {
	names := []string{"a", "b", "c", "d", "e", "f"}
	s := make(Set)
	n := rnd.Intn(5)
	for i := 0; i < n; i++ {
		name := names[rnd.Intn(len(names))]
		if rnd.Intn(2) == 0 {
			s[Conf(name)] = struct{}{}
		} else {
			s[Int(name)] = struct{}{}
		}
	}
	return s
}

// quickSet adapts genSet to testing/quick's Generator protocol.
type quickSet struct{ Set }

// Generate implements quick.Generator.
func (quickSet) Generate(rnd *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickSet{genSet(rnd)})
}

var _quickCfg = &quick.Config{MaxCount: 500}

func TestQuickUnionLaws(t *testing.T) {
	commutative := func(a, b quickSet) bool {
		return a.Union(b.Set).Equal(b.Union(a.Set))
	}
	if err := quick.Check(commutative, _quickCfg); err != nil {
		t.Errorf("union not commutative: %v", err)
	}
	associative := func(a, b, c quickSet) bool {
		return a.Union(b.Set).Union(c.Set).Equal(a.Union(b.Union(c.Set)))
	}
	if err := quick.Check(associative, _quickCfg); err != nil {
		t.Errorf("union not associative: %v", err)
	}
	idempotent := func(a quickSet) bool {
		return a.Union(a.Set).Equal(a.Set)
	}
	if err := quick.Check(idempotent, _quickCfg); err != nil {
		t.Errorf("union not idempotent: %v", err)
	}
}

// TestQuickUnionIntersectModel: whichever operand Union and Intersect
// return or build, the result holds exactly the labels the element-wise
// definition gives.
func TestQuickUnionIntersectModel(t *testing.T) {
	model := func(a, b quickSet) bool {
		union, inter := make(Set), make(Set)
		for l := range a.Set {
			union[l] = struct{}{}
			if b.Contains(l) {
				inter[l] = struct{}{}
			}
		}
		for l := range b.Set {
			union[l] = struct{}{}
		}
		return a.Union(b.Set).Equal(union) && a.Intersect(b.Set).Equal(inter)
	}
	if err := quick.Check(model, _quickCfg); err != nil {
		t.Errorf("union/intersect disagree with the element-wise model: %v", err)
	}
}

func TestQuickIntersectLaws(t *testing.T) {
	commutative := func(a, b quickSet) bool {
		return a.Intersect(b.Set).Equal(b.Intersect(a.Set))
	}
	if err := quick.Check(commutative, _quickCfg); err != nil {
		t.Errorf("intersect not commutative: %v", err)
	}
	absorbed := func(a, b quickSet) bool {
		return a.Intersect(b.Set).SubsetOf(a.Set) && a.Intersect(b.Set).SubsetOf(b.Set)
	}
	if err := quick.Check(absorbed, _quickCfg); err != nil {
		t.Errorf("intersect not subset of operands: %v", err)
	}
}

func TestQuickSubsetPartialOrder(t *testing.T) {
	reflexive := func(a quickSet) bool { return a.SubsetOf(a.Set) }
	if err := quick.Check(reflexive, _quickCfg); err != nil {
		t.Errorf("subset not reflexive: %v", err)
	}
	transitive := func(a, b, c quickSet) bool {
		if a.SubsetOf(b.Set) && b.SubsetOf(c.Set) {
			return a.SubsetOf(c.Set)
		}
		return true
	}
	if err := quick.Check(transitive, _quickCfg); err != nil {
		t.Errorf("subset not transitive: %v", err)
	}
	antisymmetric := func(a, b quickSet) bool {
		if a.SubsetOf(b.Set) && b.SubsetOf(a.Set) {
			return a.Equal(b.Set)
		}
		return true
	}
	if err := quick.Check(antisymmetric, _quickCfg); err != nil {
		t.Errorf("subset not antisymmetric: %v", err)
	}
}

// TestQuickDeriveMonotonic checks the core IFC safety property of
// derivation: confidentiality never shrinks (sticky) and integrity never
// grows (fragile) relative to each source.
func TestQuickDeriveMonotonic(t *testing.T) {
	prop := func(a, b quickSet) bool {
		d := Derive(a.Set, b.Set)
		if !a.Confidentiality().SubsetOf(d) || !b.Confidentiality().SubsetOf(d) {
			return false
		}
		if !d.Integrity().SubsetOf(a.Integrity()) || !d.Integrity().SubsetOf(b.Integrity()) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, _quickCfg); err != nil {
		t.Errorf("derive violates sticky/fragile laws: %v", err)
	}
}

// TestQuickDeriveAssociative checks that folding Derive pairwise equals
// deriving from all sources at once, so multi-input units may combine
// events in any order.
func TestQuickDeriveAssociative(t *testing.T) {
	prop := func(a, b, c quickSet) bool {
		allAtOnce := Derive(a.Set, b.Set, c.Set)
		folded := Derive(Derive(a.Set, b.Set), c.Set)
		return allAtOnce.Equal(folded)
	}
	if err := quick.Check(prop, _quickCfg); err != nil {
		t.Errorf("derive not associative: %v", err)
	}
}

// TestQuickSetStringRoundTrip checks the wire representation parses back to
// an equal set.
func TestQuickSetStringRoundTrip(t *testing.T) {
	prop := func(a quickSet) bool {
		back, err := ParseSet(a.String())
		return err == nil && back.Equal(a.Set)
	}
	if err := quick.Check(prop, _quickCfg); err != nil {
		t.Errorf("set string round trip failed: %v", err)
	}
}
