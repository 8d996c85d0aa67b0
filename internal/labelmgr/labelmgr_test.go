package labelmgr

import (
	"strconv"
	"strings"
	"testing"

	"safeweb/internal/broker"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/jail"
	"safeweb/internal/label"
)

var (
	mdtInt  = label.Int("ecric.org.uk/mdt")
	patient = label.Conf("ecric.org.uk/patient/1")
)

// rig wires a broker + engine with the manager and returns both plus the
// policy.
func rig(t *testing.T, m *Manager) (*broker.Broker, *engine.Engine, *label.Policy) {
	t.Helper()
	policy := m.Policy
	// The admin principal can endorse the manager's integrity label; a
	// rogue principal cannot.
	policy.SetPrincipal("admin", label.NewPrivileges().
		Grant(label.Endorse, label.MustParsePattern("label:int:ecric.org.uk/*")), true)

	b := broker.New(policy)
	e, err := engine.New(engine.Config{
		Policy: policy,
		Bus: func(principal string) (broker.Bus, error) {
			return b.Endpoint(principal), nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		e.Stop()
		b.Close()
	})
	if err := e.AddUnit(m); err != nil {
		t.Fatalf("AddUnit: %v", err)
	}
	return b, e, policy
}

func newManager() *Manager {
	return &Manager{
		Policy:    label.NewPolicy(),
		Require:   mdtInt,
		Protected: []string{"mdt-data-storage"},
	}
}

func TestGrantAppliedAtRuntime(t *testing.T) {
	m := newManager()
	b, e, policy := rig(t, m)

	if policy.PrivilegesOf("new-unit").Has(label.Clearance, patient) {
		t.Fatal("precondition: new-unit already cleared")
	}
	req := NewRequest("", "new-unit", label.Clearance,
		label.MustParsePattern("label:conf:ecric.org.uk/patient/*"), false)
	req.Labels = label.NewSet(mdtInt)
	if err := b.Publish("admin", req); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	e.Drain()

	if !policy.PrivilegesOf("new-unit").Has(label.Clearance, patient) {
		t.Fatal("delegated clearance not applied")
	}
	log := m.Log()
	if len(log) != 1 || !log[0].Applied || log[0].Principal != "new-unit" {
		t.Errorf("log = %+v", log)
	}
}

func TestDelegationChangesDeliveryLive(t *testing.T) {
	m := newManager()
	b, e, _ := rig(t, m)

	got := make(chan *event.Event, 4)
	err := e.AddUnit(&engine.FuncUnit{UnitName: "listener", InitFunc: func(ctx *engine.InitContext) error {
		return ctx.Subscribe("/data", "", func(_ *engine.Context, ev *event.Event) error {
			got <- ev.Clone() // events are pooled once the callback returns
			return nil
		})
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Before delegation: the labelled event is filtered.
	if err := b.Publish("admin", event.New("/data", nil, patient)); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if len(got) != 0 {
		t.Fatal("uncleared listener received labelled event")
	}

	// Delegate clearance, then republish.
	req := NewRequest("", "listener", label.Clearance, label.Exact(patient), false)
	req.Labels = label.NewSet(mdtInt)
	if err := b.Publish("admin", req); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if err := b.Publish("admin", event.New("/data", nil, patient)); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if len(got) != 1 {
		t.Fatalf("after delegation: %d events, want 1", len(got))
	}

	// Revoke, publish again: filtered once more.
	req = NewRequest("", "listener", label.Clearance, label.Exact(patient), true)
	req.Labels = label.NewSet(mdtInt)
	if err := b.Publish("admin", req); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if err := b.Publish("admin", event.New("/data", nil, patient)); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if len(got) != 1 {
		t.Fatalf("after revocation: %d events, want 1", len(got))
	}
}

func TestUnauthorisedRequestRejected(t *testing.T) {
	m := newManager()
	b, e, policy := rig(t, m)
	// A request without the integrity label (published by a principal
	// that cannot endorse it) is rejected.
	req := NewRequest("", "new-unit", label.Clearance, label.Exact(patient), false)
	if err := b.Publish("rogue", req); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	e.Drain()

	if policy.PrivilegesOf("new-unit").Has(label.Clearance, patient) {
		t.Fatal("unauthorised delegation applied")
	}
	log := m.Log()
	if len(log) != 1 || log[0].Applied {
		t.Fatalf("log = %+v", log)
	}
	if !strings.Contains(log[0].Reason, "integrity label") {
		t.Errorf("reason = %q", log[0].Reason)
	}
}

func TestProtectedPrincipal(t *testing.T) {
	m := newManager()
	b, e, policy := rig(t, m)
	req := NewRequest("", "mdt-data-storage", label.Declassify,
		label.MustParsePattern("label:conf:*"), false)
	req.Labels = label.NewSet(mdtInt)
	if err := b.Publish("admin", req); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if policy.PrivilegesOf("mdt-data-storage").Has(label.Declassify, patient) {
		t.Fatal("protected principal modified")
	}
	if log := m.Log(); len(log) != 1 || log[0].Applied || log[0].Reason != "principal is protected" {
		t.Errorf("log = %+v", log)
	}
}

func TestMalformedRequests(t *testing.T) {
	m := newManager()
	b, e, _ := rig(t, m)

	publish := func(attrs map[string]string) {
		t.Helper()
		ev := event.New(DefaultTopic, attrs)
		ev.Labels = label.NewSet(mdtInt)
		if err := b.Publish("admin", ev); err != nil {
			t.Fatal(err)
		}
	}
	publish(map[string]string{AttrPrivilege: "clearance", AttrPattern: "label:conf:x"})                // no principal
	publish(map[string]string{AttrPrincipal: "u", AttrPrivilege: "root", AttrPattern: "label:conf:x"}) // bad privilege
	publish(map[string]string{AttrPrincipal: "u", AttrPrivilege: "clearance", AttrPattern: "junk"})    // bad pattern
	publish(map[string]string{AttrPrincipal: "u", AttrPrivilege: "clearance", AttrPattern: "label:conf:x", AttrAction: "explode"})
	e.Drain()

	log := m.Log()
	if len(log) != 4 {
		t.Fatalf("log entries = %d", len(log))
	}
	for i, entry := range log {
		if entry.Applied {
			t.Errorf("malformed request %d applied: %+v", i, entry)
		}
	}
}

func TestRevokeNoMatch(t *testing.T) {
	m := newManager()
	b, e, _ := rig(t, m)
	req := NewRequest("", "u", label.Clearance, label.Exact(patient), true)
	req.Labels = label.NewSet(mdtInt)
	if err := b.Publish("admin", req); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if log := m.Log(); len(log) != 1 || log[0].Applied || log[0].Reason != "no matching grant" {
		t.Errorf("log = %+v", log)
	}
}

func TestInitRequiresPolicy(t *testing.T) {
	e, err := engine.New(engine.Config{
		Policy: label.NewPolicy(),
		Bus: func(string) (broker.Bus, error) {
			return broker.New(label.NewPolicy()).Endpoint("x"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if err := e.AddUnit(&Manager{}); err == nil {
		t.Error("manager without policy accepted")
	}
}

// TestLogBounded: the delegation log keeps the newest jail.RingCap
// requests, oldest first, and counts the rest.
func TestLogBounded(t *testing.T) {
	const extra = 5
	m := newManager()
	for i := 0; i < jail.RingCap+extra; i++ {
		// No integrity label: each request is rejected and logged.
		m.handle(NewRequest("", "p"+strconv.Itoa(i), label.Clearance, label.Exact(patient), false))
	}
	log := m.Log()
	if len(log) != jail.RingCap || m.Dropped() != extra {
		t.Fatalf("kept %d requests, dropped %d; want %d and %d", len(log), m.Dropped(), jail.RingCap, extra)
	}
	if first, last := log[0].Principal, log[len(log)-1].Principal; first != "p5" || last != "p"+strconv.Itoa(jail.RingCap+extra-1) {
		t.Errorf("kept %s..%s, want the newest requests oldest first", first, last)
	}
}
