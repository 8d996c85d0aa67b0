package label

import (
	"reflect"
	"slices"
	"strings"
)

// Set is an immutable-by-convention set of labels. The zero value (nil) is
// an empty, usable set. Methods never mutate their receiver; operations that
// "change" a set return a new one, so sets can be shared freely between
// events, store entries and callback contexts without defensive copying at
// every boundary — and so anything computed from a set (its header
// rendering, say) stays true for as long as one holds that same set value
// (Is).
//
// String and ParseSet are inverses: every label name is a ValidName, so
// ParseSet(s.String()) equals s, and String is the one canonical rendering
// — sorted, duplicate-free, unpadded — that ParseCanonical recognises.
type Set map[Label]struct{}

// NewSet builds a set from the given labels.
func NewSet(labels ...Label) Set {
	if len(labels) == 0 {
		return nil
	}
	s := make(Set, len(labels))
	for _, l := range labels {
		s[l] = struct{}{}
	}
	return s
}

// ParseSet parses a comma-separated list of label URIs, as used in STOMP
// headers and policy files. Elements are trimmed of white space and empty
// elements are ignored, so both "" and "a,,b" are accepted.
func ParseSet(s string) (Set, error) {
	set, _, err := ParseCanonical(s)
	return set, err
}

// ParseCanonical is ParseSet in the same single pass, additionally
// reporting whether s is the canonical rendering of the set it denotes:
// every element a label URI with nothing to trim, in strictly ascending
// order — so set.String() == s by construction, and a holder of s need not
// render the set again. Anything else (unsorted, duplicated, padded, empty
// elements) parses as ParseSet always has and reports false.
func ParseCanonical(s string) (Set, bool, error) {
	if s == "" {
		return nil, true, nil
	}
	var set Set
	var prev Label
	canonical := true
	for rest, more := s, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		elem := strings.TrimSpace(part)
		canonical = canonical && elem != "" && len(elem) == len(part)
		if elem == "" {
			continue
		}
		l, err := Parse(elem)
		if err != nil {
			return nil, false, err
		}
		if set == nil {
			set = make(Set, 1+strings.Count(rest, ","))
		} else if canonical && compare(prev, l) >= 0 {
			canonical = false
		}
		prev = l
		set[l] = struct{}{}
	}
	return set, canonical, nil
}

// Is reports whether s and other are the same set value — one map, not
// merely equal ones. Sets are immutable, so for as long as a holder keeps
// the set it computed something from, Is against it says whether that
// result still stands; it costs no walk and no allocation.
func (s Set) Is(other Set) bool {
	return reflect.ValueOf(s).UnsafePointer() == reflect.ValueOf(other).UnsafePointer()
}

// Len returns the number of labels in the set.
func (s Set) Len() int { return len(s) }

// IsEmpty reports whether the set has no labels.
func (s Set) IsEmpty() bool { return len(s) == 0 }

// Contains reports whether l is in the set.
func (s Set) Contains(l Label) bool {
	_, ok := s[l]
	return ok
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	out := make(Set, len(s))
	for l := range s {
		out[l] = struct{}{}
	}
	return out
}

// With returns a new set containing all labels of s plus the given labels.
func (s Set) With(labels ...Label) Set {
	if len(labels) == 0 {
		return s
	}
	out := make(Set, len(s)+len(labels))
	for l := range s {
		out[l] = struct{}{}
	}
	for _, l := range labels {
		out[l] = struct{}{}
	}
	return out
}

// Without returns a new set containing all labels of s except the given
// labels. It performs no privilege checking; callers enforce declassification
// before using it. When nothing would be removed, s is returned unchanged
// (sets are immutable by convention, so sharing is safe), and the common
// one-label removal avoids building an intermediate drop set.
func (s Set) Without(labels ...Label) Set {
	if len(s) == 0 {
		return nil
	}
	any := false
	for _, l := range labels {
		if s.Contains(l) {
			any = true
			break
		}
	}
	if !any {
		return s
	}
	if len(labels) == 1 {
		if len(s) == 1 {
			return nil
		}
		out := make(Set, len(s)-1)
		for l := range s {
			if l != labels[0] {
				out[l] = struct{}{}
			}
		}
		return out
	}
	drop := NewSet(labels...)
	var out Set
	for l := range s {
		if drop.Contains(l) {
			continue
		}
		if out == nil {
			out = make(Set, len(s))
		}
		out[l] = struct{}{}
	}
	return out
}

// Union returns the union of s and other. When one operand already
// contains the other, that operand itself is returned (sets are immutable
// by convention), so composing the labels of values that share one label
// set — every leaf of a wrapped document, every interpolation of a page —
// allocates nothing.
func (s Set) Union(other Set) Set {
	if len(other) == 0 {
		return s
	}
	if len(s) == 0 {
		return other
	}
	// Only the larger operand can contain the other; at equal sizes either
	// both do or neither does.
	small, large := other, s
	if len(large) < len(small) {
		small, large = large, small
	}
	// One walk over the smaller operand both looks for a label the larger
	// lacks and, from the first one found, builds the union: the labels
	// walked before it are in the larger operand, so already copied.
	var out Set
	for l := range small {
		if out == nil {
			if large.Contains(l) {
				continue
			}
			out = make(Set, len(s)+len(other))
			for have := range large {
				out[have] = struct{}{}
			}
		}
		out[l] = struct{}{}
	}
	if out == nil {
		return large
	}
	return out
}

// Intersect returns the intersection of s and other. When the smaller
// operand lies wholly inside the larger, the smaller operand itself is
// returned rather than a copy of it.
func (s Set) Intersect(other Set) Set {
	if len(s) == 0 || len(other) == 0 {
		return nil
	}
	small, large := s, other
	if len(large) < len(small) {
		small, large = large, small
	}
	matched := 0
	for l := range small {
		if large.Contains(l) {
			matched++
		}
	}
	switch matched {
	case 0:
		return nil
	case len(small):
		return small
	}
	out := make(Set, matched)
	for l := range small {
		if large.Contains(l) {
			out[l] = struct{}{}
		}
	}
	return out
}

// SubsetOf reports whether every label in s is also in other.
func (s Set) SubsetOf(other Set) bool {
	if len(s) > len(other) {
		return false
	}
	for l := range s {
		if !other.Contains(l) {
			return false
		}
	}
	return true
}

// Equal reports whether s and other contain exactly the same labels.
func (s Set) Equal(other Set) bool {
	return len(s) == len(other) && s.SubsetOf(other)
}

// OfKind returns the subset of labels with the given kind. When every
// label already has the kind, s itself is returned (sets are immutable by
// convention), so homogeneous sets — the common case on the broker's
// delivery path — cost no allocation.
func (s Set) OfKind(kind Kind) Set {
	matched := 0
	for l := range s {
		if l.kind == kind {
			matched++
		}
	}
	switch matched {
	case 0:
		return nil
	case len(s):
		return s
	}
	out := make(Set, matched)
	for l := range s {
		if l.kind == kind {
			out[l] = struct{}{}
		}
	}
	return out
}

// Confidentiality returns the confidentiality labels in the set.
func (s Set) Confidentiality() Set { return s.OfKind(Confidentiality) }

// Integrity returns the integrity labels in the set.
func (s Set) Integrity() Set { return s.OfKind(Integrity) }

// Sorted returns the labels in deterministic (lexicographic URI) order.
func (s Set) Sorted() []Label {
	return s.appendSorted(make([]Label, 0, len(s)))
}

// appendSorted appends the labels to dst in URI order, comparing kinds and
// names rather than rendering a URI per comparison.
func (s Set) appendSorted(dst []Label) []Label {
	for l := range s {
		dst = append(dst, l)
	}
	slices.SortFunc(dst, compare)
	return dst
}

// Strings returns the sorted label URIs.
func (s Set) Strings() []string {
	labels := s.Sorted()
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = l.String()
	}
	return out
}

// String renders the set as a comma-separated list of sorted label URIs,
// the representation used in STOMP headers and document metadata. The
// labels are ordered in a stack array (heap above 16) and written into one
// exactly-sized buffer: one allocation for any set an event carries.
func (s Set) String() string {
	if len(s) == 0 {
		return ""
	}
	var arr [16]Label
	labels := arr[:0]
	if len(s) > len(arr) {
		labels = make([]Label, 0, len(s))
	}
	labels = s.appendSorted(labels)
	n := len(labels) - 1 // the commas
	for _, l := range labels {
		n += len(l.uriPrefix()) + len(l.name)
	}
	var b strings.Builder
	b.Grow(n)
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.uriPrefix())
		b.WriteString(l.name)
	}
	return b.String()
}

// MarshalText implements encoding.TextMarshaler using the comma-separated
// representation.
func (s Set) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *Set) UnmarshalText(text []byte) error {
	parsed, err := ParseSet(string(text))
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// Derive computes the label set of data derived from the given sources,
// following the paper's composition rules (§4.1): confidentiality labels are
// sticky (union across sources) and integrity labels are fragile
// (intersection across sources). Deriving from zero sources yields the
// empty set.
func Derive(sources ...Set) Set {
	if len(sources) == 0 {
		return nil
	}
	conf := sources[0].Confidentiality()
	integ := sources[0].Integrity()
	for _, src := range sources[1:] {
		conf = conf.Union(src.Confidentiality())
		integ = integ.Intersect(src.Integrity())
	}
	return conf.Union(integ)
}
