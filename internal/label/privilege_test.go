package label

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestParsePattern(t *testing.T) {
	tests := []struct {
		pattern string
		match   []string
		noMatch []string
	}{
		{
			pattern: "label:conf:ecric.org.uk/patient/*",
			match:   []string{"label:conf:ecric.org.uk/patient/1", "label:conf:ecric.org.uk/patient/33812769"},
			noMatch: []string{"label:conf:ecric.org.uk/mdt/1", "label:int:ecric.org.uk/patient/1"},
		},
		{
			pattern: "label:conf:ecric.org.uk/mdt/7",
			match:   []string{"label:conf:ecric.org.uk/mdt/7"},
			noMatch: []string{"label:conf:ecric.org.uk/mdt/70", "label:conf:ecric.org.uk/mdt"},
		},
		{
			pattern: "label:int:*",
			match:   []string{"label:int:anything/at/all"},
			noMatch: []string{"label:conf:anything/at/all"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.pattern, func(t *testing.T) {
			pat, err := ParsePattern(tt.pattern)
			if err != nil {
				t.Fatalf("ParsePattern(%q): %v", tt.pattern, err)
			}
			if pat.String() != tt.pattern {
				t.Errorf("String = %q, want %q", pat.String(), tt.pattern)
			}
			for _, uri := range tt.match {
				if !pat.Matches(MustParse(uri)) {
					t.Errorf("pattern %q should match %q", tt.pattern, uri)
				}
			}
			for _, uri := range tt.noMatch {
				if pat.Matches(MustParse(uri)) {
					t.Errorf("pattern %q should not match %q", tt.pattern, uri)
				}
			}
		})
	}

	if _, err := ParsePattern("garbage*"); err == nil {
		t.Error("ParsePattern(garbage) succeeded")
	}
}

func TestPrivilegesGrantAndCheck(t *testing.T) {
	mdt7 := Conf("ecric.org.uk/mdt/7")
	mdt8 := Conf("ecric.org.uk/mdt/8")

	pv := NewPrivileges().
		GrantLabel(Clearance, mdt7).
		GrantLabel(Declassify, mdt7)

	if !pv.Has(Clearance, mdt7) || !pv.Has(Declassify, mdt7) {
		t.Error("granted privileges not held")
	}
	if pv.Has(Clearance, mdt8) || pv.Has(Endorse, mdt7) {
		t.Error("ungranted privileges held")
	}
	if !pv.HasAll(Clearance, NewSet(mdt7)) {
		t.Error("HasAll over granted set failed")
	}
	if pv.HasAll(Clearance, NewSet(mdt7, mdt8)) {
		t.Error("HasAll over partially granted set passed")
	}
}

func TestPrivilegesNilSafe(t *testing.T) {
	var pv *Privileges
	if pv.Has(Clearance, Conf("x")) {
		t.Error("nil privileges granted something")
	}
	if pv.HasAll(Clearance, NewSet(Conf("x"))) {
		t.Error("nil privileges cleared something")
	}
	clone := pv.Clone()
	if clone == nil || clone.Has(Clearance, Conf("x")) {
		t.Error("nil clone wrong")
	}
}

func TestCheckFlow(t *testing.T) {
	patient := Conf("patient/1")
	mdtInt := Int("mdt")

	pv := NewPrivileges().GrantLabel(Clearance, patient)

	if err := pv.CheckFlow(NewSet(patient), nil); err != nil {
		t.Errorf("cleared flow rejected: %v", err)
	}
	err := pv.CheckFlow(NewSet(patient, Conf("patient/2")), nil)
	if err == nil {
		t.Fatal("uncleared flow accepted")
	}
	var fe *FlowError
	if !errors.As(err, &fe) {
		t.Fatalf("error type = %T, want *FlowError", err)
	}
	if fe.Op != "receive" {
		t.Errorf("FlowError.Op = %q", fe.Op)
	}
	if !strings.Contains(fe.Error(), "patient/2") {
		t.Errorf("FlowError message missing label: %q", fe.Error())
	}

	// Integrity requirement: data lacks the label and principal lacks
	// ClearLow.
	if err := pv.CheckFlow(NewSet(patient), NewSet(mdtInt)); err == nil {
		t.Error("missing integrity label accepted without clearlow")
	}
	// Data carries the required label: fine.
	if err := pv.CheckFlow(NewSet(patient, mdtInt), NewSet(mdtInt)); err != nil {
		t.Errorf("carried integrity label rejected: %v", err)
	}
	// Principal holds ClearLow: fine.
	pv.GrantLabel(ClearLow, mdtInt)
	if err := pv.CheckFlow(NewSet(patient), NewSet(mdtInt)); err != nil {
		t.Errorf("clearlow flow rejected: %v", err)
	}
}

func TestPrivilegesMergeAndClone(t *testing.T) {
	a := NewPrivileges().GrantLabel(Clearance, Conf("x"))
	b := NewPrivileges().GrantLabel(Declassify, Conf("y"))
	a.Merge(b)
	if !a.Has(Clearance, Conf("x")) || !a.Has(Declassify, Conf("y")) {
		t.Error("merge lost grants")
	}

	c := a.Clone()
	c.GrantLabel(Endorse, Int("z"))
	if a.Has(Endorse, Int("z")) {
		t.Error("clone shares state with original")
	}
	a.Merge(nil) // must not panic
}

func TestParsePrivilege(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want Privilege
	}{
		{"clearance", Clearance},
		{"Declassify", Declassify},
		{"declassification", Declassify},
		{"endorse", Endorse},
		{"endorsement", Endorse},
		{"clearlow", ClearLow},
	} {
		got, err := ParsePrivilege(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParsePrivilege(%q) = %v, %v; want %v", tt.in, got, err, tt.want)
		}
	}
	if _, err := ParsePrivilege("root"); err == nil {
		t.Error("ParsePrivilege(root) succeeded")
	}
}

func TestPolicyLoadAndQuery(t *testing.T) {
	const doc = `{
	  "principals": {
	    "data-producer": {
	      "privileged": true,
	      "clearance": ["label:conf:ecric.org.uk/*"],
	      "declassify": ["label:conf:ecric.org.uk/*"],
	      "endorse": ["label:int:ecric.org.uk/mdt"]
	    },
	    "aggregator": {
	      "clearance": ["label:conf:ecric.org.uk/mdt/*"]
	    }
	  }
	}`
	p, err := ReadPolicy(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("ReadPolicy: %v", err)
	}
	if !p.IsPrivileged("data-producer") {
		t.Error("data-producer not privileged")
	}
	if p.IsPrivileged("aggregator") || p.IsPrivileged("unknown") {
		t.Error("unexpected privileged principals")
	}
	agg := p.PrivilegesOf("aggregator")
	if !agg.Has(Clearance, Conf("ecric.org.uk/mdt/7")) {
		t.Error("aggregator missing clearance")
	}
	if agg.Has(Declassify, Conf("ecric.org.uk/mdt/7")) {
		t.Error("aggregator has declassify it was never granted")
	}
	if got := p.Principals(); len(got) != 2 || got[0] != "aggregator" {
		t.Errorf("Principals = %v", got)
	}
	// Unknown principals yield empty (non-nil) privileges.
	if p.PrivilegesOf("nobody") == nil {
		t.Error("PrivilegesOf(unknown) returned nil")
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	p := NewPolicy()
	privs := NewPrivileges().
		Grant(Clearance, MustParsePattern("label:conf:ecric.org.uk/mdt/*")).
		GrantLabel(Declassify, Conf("ecric.org.uk/mdt/7"))
	p.SetPrincipal("unit-a", privs, true)
	p.Grant("unit-b", Endorse, MustParsePattern("label:int:ecric.org.uk/*"))

	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	back, err := ReadPolicy(&buf)
	if err != nil {
		t.Fatalf("ReadPolicy(round trip): %v", err)
	}
	if !back.IsPrivileged("unit-a") {
		t.Error("privileged flag lost")
	}
	if !back.PrivilegesOf("unit-a").Has(Clearance, Conf("ecric.org.uk/mdt/9")) {
		t.Error("wildcard clearance lost")
	}
	if !back.PrivilegesOf("unit-b").Has(Endorse, Int("ecric.org.uk/mdt")) {
		t.Error("endorse grant lost")
	}
}

func TestPolicyBadInput(t *testing.T) {
	bad := []string{
		`{"principals": {"u": {"clearance": ["nonsense"]}}}`,
		`{"unknown_field": 1}`,
		`not json`,
	}
	for _, doc := range bad {
		if _, err := ReadPolicy(strings.NewReader(doc)); err == nil {
			t.Errorf("ReadPolicy(%q) succeeded", doc)
		}
	}
}

func TestPolicyRemovePrincipal(t *testing.T) {
	p := NewPolicy()
	p.Grant("u", Clearance, MustParsePattern("label:conf:*"))
	p.RemovePrincipal("u")
	if p.PrivilegesOf("u").Has(Clearance, Conf("x")) {
		t.Error("removed principal retains privileges")
	}
}
