package label

import (
	"fmt"
	"strings"
)

// Privilege identifies an operation a principal may perform on labelled
// data (paper §4.1). Clearance and Declassify apply to confidentiality
// labels; Endorse and ClearLow apply to integrity labels.
type Privilege int

// The four privilege kinds of the SafeWeb label model.
const (
	// Clearance permits receiving data protected by a confidentiality
	// label.
	Clearance Privilege = iota + 1
	// Declassify permits removing a confidentiality label, making the
	// data public with respect to that label.
	Declassify
	// Endorse permits adding an integrity label to data, vouching for it.
	Endorse
	// ClearLow (clearance to low integrity) permits accepting data that
	// lacks an integrity label a component would otherwise require.
	ClearLow
)

// String returns the policy-file spelling of the privilege.
func (p Privilege) String() string {
	switch p {
	case Clearance:
		return "clearance"
	case Declassify:
		return "declassify"
	case Endorse:
		return "endorse"
	case ClearLow:
		return "clearlow"
	default:
		return fmt.Sprintf("Privilege(%d)", int(p))
	}
}

// ParsePrivilege parses a policy-file privilege name.
func ParsePrivilege(s string) (Privilege, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "clearance":
		return Clearance, nil
	case "declassify", "declassification":
		return Declassify, nil
	case "endorse", "endorsement":
		return Endorse, nil
	case "clearlow", "clearance-low", "clearance_to_low_integrity":
		return ClearLow, nil
	default:
		return 0, fmt.Errorf("label: unknown privilege %q", s)
	}
}

// Pattern matches labels. Policies grant privileges over either an exact
// label URI or a prefix pattern ending in "*", e.g.
// "label:conf:ecric.org.uk/patient/*" grants over every per-patient label.
type Pattern struct {
	kind   Kind
	prefix string // name prefix when wildcard, full name otherwise
	glob   bool
}

// ParsePattern parses a label URI or a label URI prefix ending in "*".
func ParsePattern(s string) (Pattern, error) {
	if name, ok := strings.CutSuffix(s, "*"); ok {
		// Validate by parsing with a placeholder suffix so "label:conf:x/*"
		// and the bare-authority "label:conf:*" both work.
		probe, err := Parse(name + "wildcard-probe")
		if err != nil {
			return Pattern{}, err
		}
		return Pattern{kind: probe.Kind(), prefix: strings.TrimSuffix(probe.Name(), "wildcard-probe"), glob: true}, nil
	}
	l, err := Parse(s)
	if err != nil {
		return Pattern{}, err
	}
	return Pattern{kind: l.Kind(), prefix: l.Name()}, nil
}

// MustParsePattern is like ParsePattern but panics on error.
func MustParsePattern(s string) Pattern {
	p, err := ParsePattern(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Exact returns a pattern matching exactly l.
func Exact(l Label) Pattern {
	return Pattern{kind: l.Kind(), prefix: l.Name()}
}

// Matches reports whether the pattern matches the label.
func (p Pattern) Matches(l Label) bool {
	if p.kind != l.Kind() {
		return false
	}
	if p.glob {
		return strings.HasPrefix(l.Name(), p.prefix)
	}
	return l.Name() == p.prefix
}

// String returns the policy-file spelling of the pattern.
func (p Pattern) String() string {
	s := _scheme + p.kind.String() + ":" + p.prefix
	if p.glob {
		s += "*"
	}
	return s
}

// MarshalText implements encoding.TextMarshaler.
func (p Pattern) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *Pattern) UnmarshalText(text []byte) error {
	parsed, err := ParsePattern(string(text))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// Privileges is the set of privileges held by one principal (a processing
// unit in the backend or an authenticated user in the frontend). The zero
// value holds no privileges.
type Privileges struct {
	grants map[Privilege][]Pattern
}

// NewPrivileges returns an empty privilege set.
func NewPrivileges() *Privileges {
	return &Privileges{grants: make(map[Privilege][]Pattern)}
}

// Grant adds a privilege over every label matching the pattern. It returns
// the receiver to allow chained grants in policy construction.
func (pv *Privileges) Grant(p Privilege, pat Pattern) *Privileges {
	if pv.grants == nil {
		pv.grants = make(map[Privilege][]Pattern)
	}
	pv.grants[p] = append(pv.grants[p], pat)
	return pv
}

// GrantLabel adds a privilege over exactly the given label.
func (pv *Privileges) GrantLabel(p Privilege, l Label) *Privileges {
	return pv.Grant(p, Exact(l))
}

// Has reports whether the principal holds privilege p over label l.
func (pv *Privileges) Has(p Privilege, l Label) bool {
	if pv == nil {
		return false
	}
	for _, pat := range pv.grants[p] {
		if pat.Matches(l) {
			return true
		}
	}
	return false
}

// HasAll reports whether the principal holds privilege p over every label
// in the set.
func (pv *Privileges) HasAll(p Privilege, labels Set) bool {
	for l := range labels {
		if !pv.Has(p, l) {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the privilege set.
func (pv *Privileges) Clone() *Privileges {
	out := NewPrivileges()
	if pv == nil {
		return out
	}
	for p, pats := range pv.grants {
		out.grants[p] = append([]Pattern(nil), pats...)
	}
	return out
}

// Merge adds every grant of other into pv.
func (pv *Privileges) Merge(other *Privileges) {
	if other == nil {
		return
	}
	for p, pats := range other.grants {
		for _, pat := range pats {
			pv.Grant(p, pat)
		}
	}
}

// Patterns returns the patterns granted for privilege p, in grant order.
// The returned slice must not be modified.
func (pv *Privileges) Patterns(p Privilege) []Pattern {
	if pv == nil {
		return nil
	}
	return pv.grants[p]
}

// revoke removes every grant equal to the pattern; it reports whether any
// grant was removed.
func (pv *Privileges) revoke(p Privilege, pat Pattern) bool {
	if pv == nil || pv.grants == nil {
		return false
	}
	old := pv.grants[p]
	kept := old[:0]
	removed := false
	for _, existing := range old {
		if existing == pat {
			removed = true
			continue
		}
		kept = append(kept, existing)
	}
	if removed {
		pv.grants[p] = kept
	}
	return removed
}

// CheckFlow verifies the fundamental IFC receive rule: every
// confidentiality label on the data must be covered by the principal's
// clearance, and (when requireIntegrity is non-empty) the data must carry
// every required integrity label unless the principal holds ClearLow for
// the missing one. It returns a *FlowError describing the first violation,
// or nil if the flow is permitted.
func (pv *Privileges) CheckFlow(data Set, requireIntegrity Set) error {
	for l := range data.Confidentiality() {
		if !pv.Has(Clearance, l) {
			return &FlowError{Op: "receive", Label: l, Reason: "no clearance privilege"}
		}
	}
	for l := range requireIntegrity {
		if data.Contains(l) {
			continue
		}
		if !pv.Has(ClearLow, l) {
			return &FlowError{Op: "receive", Label: l, Reason: "required integrity label missing"}
		}
	}
	return nil
}

// FlowError reports a violation of the data-flow policy: an attempt to move
// labelled data across a boundary without the necessary privilege.
type FlowError struct {
	// Op is the operation that was attempted: "receive", "declassify",
	// "endorse" or "release".
	Op string
	// Label is the label whose protection would have been violated.
	Label Label
	// Principal optionally names the principal that attempted the flow.
	Principal string
	// Reason is a human-readable explanation.
	Reason string
}

// Error implements the error interface.
func (e *FlowError) Error() string {
	var b strings.Builder
	b.WriteString("label: flow violation")
	if e.Principal != "" {
		b.WriteString(" by ")
		b.WriteString(e.Principal)
	}
	fmt.Fprintf(&b, ": %s %s: %s", e.Op, e.Label, e.Reason)
	return b.String()
}
