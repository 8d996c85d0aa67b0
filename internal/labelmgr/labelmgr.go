// Package labelmgr implements the dynamic label manager the paper
// sketches in §4.1: "for more complex policies with dynamic privileges, a
// label manager could delegate privileges to units at runtime."
//
// The manager is itself an event processing unit: it subscribes to a
// control topic and applies delegation requests to the live policy.
// Authorisation is IFC-native — a request is honoured only if it carries
// a configured *integrity* label, which only principals holding the
// corresponding endorsement privilege can attach. The delegation channel
// therefore needs no separate authentication machinery: the label model
// already proves who may speak on it.
//
// Every applied and every rejected request is recorded in an audit log,
// extending the auditability story of §5.2 (the policy "and the scripts
// that edit it must be audited"; the manager is that script, made
// inspectable).
package labelmgr

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/jail"
	"safeweb/internal/label"
)

// DefaultTopic is the control topic delegation requests arrive on.
const DefaultTopic = "/control/delegate"

// DefaultName is the manager's unit principal name.
const DefaultName = "label-manager"

// Request attribute names.
const (
	// AttrPrincipal names the principal receiving (or losing) the grant.
	AttrPrincipal = "principal"
	// AttrPrivilege is the privilege name ("clearance", "declassify",
	// "endorse", "clearlow").
	AttrPrivilege = "privilege"
	// AttrPattern is the label pattern the privilege covers.
	AttrPattern = "pattern"
	// AttrAction is "grant" (default) or "revoke".
	AttrAction = "action"
)

// Delegation is one audit-log entry.
type Delegation struct {
	// Time is when the request was processed.
	Time time.Time
	// Principal, Privilege, Pattern and Action echo the request.
	Principal string
	Privilege label.Privilege
	Pattern   label.Pattern
	Action    string
	// Applied reports whether the request took effect.
	Applied bool
	// Reason explains rejections.
	Reason string
}

// Manager is the label-manager unit.
type Manager struct {
	// Policy is the live policy delegations apply to. Required.
	Policy *label.Policy
	// Require is the integrity label a request must carry to be
	// honoured. The zero label disables the check (for closed
	// deployments whose broker policy already restricts the topic).
	Require label.Label
	// Topic overrides DefaultTopic when non-empty.
	Topic string
	// UnitName overrides DefaultName when non-empty.
	UnitName string
	// Protected lists principals whose privileges the manager refuses to
	// change — the trusted units of the deployment, so a compromised
	// delegation channel cannot mint privileged units.
	Protected []string

	log jail.Ring[Delegation]
}

var _ engine.Unit = (*Manager)(nil)

// Name implements engine.Unit.
func (m *Manager) Name() string {
	if m.UnitName != "" {
		return m.UnitName
	}
	return DefaultName
}

// Init implements engine.Unit.
func (m *Manager) Init(ctx *engine.InitContext) error {
	if m.Policy == nil {
		return errors.New("labelmgr: Policy is required")
	}
	topic := m.Topic
	if topic == "" {
		topic = DefaultTopic
	}
	return ctx.Subscribe(topic, "", func(_ *engine.Context, ev *event.Event) error {
		m.handle(ev)
		return nil
	})
}

// handle applies one delegation request.
func (m *Manager) handle(ev *event.Event) {
	entry := Delegation{
		Time:      time.Now(),
		Principal: ev.Attr(AttrPrincipal),
		Action:    strings.ToLower(ev.Attr(AttrAction)),
	}
	if entry.Action == "" {
		entry.Action = "grant"
	}

	reject := func(reason string) {
		entry.Reason = reason
		m.log.Add(entry)
	}

	if !m.Require.IsZero() && !ev.Labels.Contains(m.Require) {
		reject(fmt.Sprintf("request lacks required integrity label %s", m.Require))
		return
	}
	if entry.Principal == "" {
		reject("missing principal")
		return
	}
	for _, protected := range m.Protected {
		if entry.Principal == protected {
			reject("principal is protected")
			return
		}
	}
	priv, err := label.ParsePrivilege(ev.Attr(AttrPrivilege))
	if err != nil {
		reject(err.Error())
		return
	}
	entry.Privilege = priv
	pat, err := label.ParsePattern(ev.Attr(AttrPattern))
	if err != nil {
		reject(err.Error())
		return
	}
	entry.Pattern = pat

	switch entry.Action {
	case "grant":
		m.Policy.Grant(entry.Principal, priv, pat)
		entry.Applied = true
	case "revoke":
		entry.Applied = m.Policy.Revoke(entry.Principal, priv, pat)
		if !entry.Applied {
			entry.Reason = "no matching grant"
		}
	default:
		entry.Reason = fmt.Sprintf("unknown action %q", entry.Action)
	}
	m.log.Add(entry)
}

// Log returns a copy of the audit log: the newest jail.RingCap requests,
// oldest first.
func (m *Manager) Log() []Delegation { return m.log.Entries() }

// Dropped returns the number of requests dropped from the audit log.
func (m *Manager) Dropped() uint64 { return m.log.Dropped() }

// NewRequest builds a delegation request event for publishers. The caller
// publishes it through a context or bus holding the endorsement privilege
// for the manager's required integrity label.
func NewRequest(topic string, principal string, priv label.Privilege, pat label.Pattern, revoke bool) *event.Event {
	if topic == "" {
		topic = DefaultTopic
	}
	action := "grant"
	if revoke {
		action = "revoke"
	}
	return event.New(topic, map[string]string{
		AttrPrincipal: principal,
		AttrPrivilege: priv.String(),
		AttrPattern:   pat.String(),
		AttrAction:    action,
	})
}
