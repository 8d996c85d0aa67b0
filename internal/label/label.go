// Package label implements SafeWeb's security labels and privileges.
//
// Labels are URIs of the form
//
//	label:conf:ecric.org.uk/patient/33812769
//	label:int:ecric.org.uk/mdt
//
// and come in two kinds: confidentiality labels, which prevent sensitive
// data from escaping a system boundary, and integrity labels, which prevent
// low-integrity data from entering parts of an application (paper §4.1).
//
// Confidentiality labels are "sticky": every event derived from a labelled
// event carries the union of the sources' confidentiality labels. Integrity
// labels are "fragile": a derived event carries an integrity label only if
// every source carried it (intersection).
//
// Privileges govern what principals may do with labelled data: clearance to
// receive it, declassification to remove a confidentiality label,
// endorsement to add an integrity label, and clearance-to-low-integrity to
// accept data missing an integrity label.
package label

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind distinguishes confidentiality labels from integrity labels.
type Kind int

// Label kinds. Confidentiality labels restrict where data may flow to;
// integrity labels restrict where data may have come from.
const (
	Confidentiality Kind = iota + 1
	Integrity
)

// String returns the URI segment used for the kind ("conf" or "int").
func (k Kind) String() string {
	switch k {
	case Confidentiality:
		return "conf"
	case Integrity:
		return "int"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k is a known label kind.
func (k Kind) Valid() bool {
	return k == Confidentiality || k == Integrity
}

const _scheme = "label:"

// ErrInvalidLabel is returned by Parse for strings that are not well-formed
// label URIs.
var ErrInvalidLabel = errors.New("label: invalid label URI")

// Label is a single security label. The zero value is not a valid label;
// construct labels with New or Parse.
//
// Labels are values and are comparable; they can be used as map keys.
type Label struct {
	kind Kind
	// name is the authority/path part of the URI, e.g.
	// "ecric.org.uk/patient/33812769".
	name string
}

// New creates a label of the given kind and name. The name is the
// authority/path portion of the label URI, e.g. "ecric.org.uk/mdt/7".
// It panics if kind is invalid or name is not a ValidName: labels are
// almost always constructed from trusted constants or validated input, and
// a label that cannot be named on the wire is a programming error, not a
// runtime condition. Code that builds names from data checks ValidName
// first.
func New(kind Kind, name string) Label {
	if !kind.Valid() {
		panic(fmt.Sprintf("label: invalid kind %d", int(kind)))
	}
	if !ValidName(name) {
		panic(fmt.Sprintf("label: invalid label name %q", name))
	}
	return Label{kind: kind, name: name}
}

// ValidName reports whether name can be a label's name: non-empty, free of
// ',' and control characters, and with no leading or trailing white space.
// A set travels as a comma-separated header whose elements are trimmed, so
// any other name would come back from one wire hop as a different label —
// or, with a comma, as several, one of them possibly an integrity label
// nobody endorsed. Refusing them makes Set.String and ParseSet inverses.
func ValidName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == ',' || c-' ' >= 0x7f-' ' { // a comma, an ASCII control character, or not ASCII
			return c >= utf8.RuneSelf && validUnicodeName(name)
		}
	}
	return name != "" && name[0] != ' ' && name[len(name)-1] != ' '
}

// validUnicodeName is ValidName for names that are not all ASCII.
func validUnicodeName(name string) bool {
	for _, r := range name {
		if r == ',' || unicode.IsControl(r) {
			return false
		}
	}
	return strings.TrimSpace(name) == name
}

// Conf is shorthand for New(Confidentiality, name).
func Conf(name string) Label { return New(Confidentiality, name) }

// Int is shorthand for New(Integrity, name).
func Int(name string) Label { return New(Integrity, name) }

// Parse parses a label URI such as "label:conf:ecric.org.uk/patient/1".
func Parse(s string) (Label, error) {
	rest, ok := strings.CutPrefix(s, _scheme)
	if !ok {
		return Label{}, fmt.Errorf("%w: %q does not start with %q", ErrInvalidLabel, s, _scheme)
	}
	kindStr, name, ok := strings.Cut(rest, ":")
	if !ok {
		return Label{}, fmt.Errorf("%w: %q has no kind separator", ErrInvalidLabel, s)
	}
	var kind Kind
	switch kindStr {
	case "conf":
		kind = Confidentiality
	case "int":
		kind = Integrity
	default:
		return Label{}, fmt.Errorf("%w: unknown kind %q in %q", ErrInvalidLabel, kindStr, s)
	}
	if !ValidName(name) {
		return Label{}, fmt.Errorf("%w: empty or unrepresentable name in %q", ErrInvalidLabel, s)
	}
	return Label{kind: kind, name: name}, nil
}

// MustParse is like Parse but panics on error. Use it for constant labels in
// policies and tests.
func MustParse(s string) Label {
	l, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return l
}

// Kind returns the label's kind.
func (l Label) Kind() Kind { return l.kind }

// Name returns the authority/path part of the label URI.
func (l Label) Name() string { return l.name }

// IsZero reports whether l is the zero (invalid) label.
func (l Label) IsZero() bool { return l == Label{} }

// String returns the label URI, e.g. "label:conf:ecric.org.uk/mdt".
func (l Label) String() string {
	return l.uriPrefix() + l.name
}

// uriPrefix returns everything of the URI ahead of the name. The zero
// label renders as "label:invalid:".
func (l Label) uriPrefix() string {
	switch l.kind {
	case Confidentiality:
		return _scheme + "conf:"
	case Integrity:
		return _scheme + "int:"
	}
	return _scheme + "invalid:"
}

// compare orders labels as their URIs order byte for byte, without
// building them: by kind segment ("conf" < "int" < the zero label's
// "invalid"), then by name.
func compare(a, b Label) int {
	if a.kind != b.kind {
		return strings.Compare(a.uriPrefix(), b.uriPrefix())
	}
	return strings.Compare(a.name, b.name)
}

// MarshalText implements encoding.TextMarshaler so labels can appear in
// JSON policy files and document metadata.
func (l Label) MarshalText() ([]byte, error) {
	if l.IsZero() {
		return nil, fmt.Errorf("%w: cannot marshal zero label", ErrInvalidLabel)
	}
	return []byte(l.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (l *Label) UnmarshalText(text []byte) error {
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*l = parsed
	return nil
}
