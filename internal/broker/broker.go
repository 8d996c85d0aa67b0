// Package broker implements SafeWeb's IFC-aware event broker (paper §4.2).
//
// Units communicate by publishing events and subscribing to topics with
// optional SQL-92 content selectors. The broker matches subscriptions
// against published events and additionally filters by security label:
// "for an event to be delivered to a subscriber, the set of its
// confidentiality labels must be a subset of those labels for which the
// subscriber possesses clearance privileges."
//
// # Performance architecture
//
// The publish→deliver path is built so that label enforcement costs close
// to nothing in the common case:
//
//   - Indexed routing. Subscriptions are compiled once at Subscribe time
//     into a route table — an exact-topic map, a list of "/*" prefix
//     routes, and the "*" catch-all list. The table is immutable and
//     swapped atomically on subscription churn (copy-on-write), so Publish
//     routes with a single atomic load and no lock, touching only the
//     subscriptions that can match instead of scanning all of them.
//
//   - Cached clearance. Each subscription caches its principal's
//     privileges, invalidated by the policy's generation counter. The
//     per-delivery policy lock + privilege clone of the naive design
//     happens only after a policy change; steady-state delivery checks
//     clearance against the cached snapshot. Unlabelled events skip the
//     privilege machinery entirely, and the event's confidentiality
//     partition is computed once per publish, not per subscriber.
//
//   - Zero-copy delivery. Published events are frozen by convention, so
//     delivery shares everything immutable — topic, body, label set and
//     the precomputed label wire header — between the publisher and all
//     subscribers. Only the attribute map is copied per subscriber (a
//     buggy unit mutating its input must not affect its peers);
//     attribute-free events are delivered with no copy at all.
//
// The core Broker is transport-independent; package-level Server and
// Client types expose it over the STOMP wire protocol with the paper's
// label-header extensions. A Client is one STOMP connection, as a unit's
// is in the paper (§4.2), plus a dedicated publish connection when its
// publishes are windowed or a live subscription is credited. The networked wire path is map-free in both
// directions: deliveries share one preencoded MESSAGE image per published
// event, and Client.Publish sends a frozen event's memoised SEND image
// with no intermediate header map, either fire-and-forget or pipelined
// through a receipt-confirmed publish window (ClientConfig.PublishWindow).
//
// # Credit-based flow control
//
// Consumers can bound how far the broker may run ahead of them. With
// ClientConfig.SubscribeCredit = n the client's SUBSCRIBE advertises a
// delivery window of n messages (the credit header); the Server tracks
// granted-versus-sent per wire subscription with atomic counters and
// parks matched deliveries in a bounded per-subscription pending ring
// (32 deep) once the window is exhausted, falling
// back to the session's overflow policy only if the ring also fills.
// Under OverflowBlock a publish then waits for ring space, and every such
// wait ends: at a grant, at the subscription's or the server's teardown,
// or at ServerConfig.WriteTimeout, which evicts the consumer that stopped
// granting. A live credited Client publishes on its own publish
// connection, so no publish waits on the read loop its grants arrive on.
// The client replenishes by sending ACK frames carrying cumulative
// credit grants — one per connection write batch (stomp.AckSlot) and
// driven by the delivery events' Release lifecycle, so credit reflects
// callbacks the consumer engine actually completed, not frames it
// merely received. Grants are idempotent (applied max-wins), stalls are
// counted (ServerStats.CreditStalls and SessionStats.CreditStalls, with
// the live depth in SessionStats.CreditParked), and subscriptions without
// the header keep the exact uncredited wire behaviour. Unknown or
// malformed client frames — ACKs without a usable grant, transactions —
// are answered with an ERROR naming the command and counted in
// ServerStats.UnhandledFrames.
//
// # When a revoke bites
//
// A delivery is decided when it enters a session writer's queue; in
// process, when the broker calls its handler (an engine's per-subscription
// queues lie after that point and are not re-checked). A policy mutation
// stops every delivery not yet decided. Fan-out checks clearance at the
// publish's policy generation; a credited subscription's parked
// deliveries pass the same gate again when they leave the pending ring;
// and a replay feed that waited for its window (credit, or unacked
// deliveries) re-checks its record when the generation moved during the
// wait. Each late refusal counts in
// ServerStats.RevokedDeliveries. What a revoke cannot reach is what was
// already decided: frames in a writer queue and in kernel buffers, which
// ServerConfig.WriteTimeout, when set, bounds in time.
//
// # What the broker's own headers tell a consumer
//
// A MESSAGE carries the event's headers plus two the broker adds:
// subscription, the consumer's own id, and message-id, numbered by the
// session's counter. A durable consumer's ACK carries a count of its own
// deliveries. All three number only frames sent to that consumer, so
// events it may not see leave no trace in them: a replayed MESSAGE is
// routed exactly as a live one, no journal offset goes on the wire, and a
// durable start is "earliest", "next" or the group's mark, never a
// position a consumer could probe. TestDurableNoninterference holds every
// frame a consumer receives byte-identical across histories that differ
// only in events outside its clearance.
package broker

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/selector"
)

// Handler consumes events delivered to a subscription. Delivered events
// share their body and label set with the publisher; handlers may mutate
// the attribute map of events that carry attributes, but must treat the
// body as read-only.
type Handler func(ev *event.Event)

// ErrClosed is returned by operations on a closed broker.
var ErrClosed = errors.New("broker: closed")

// Stats counts broker activity; useful for tests, monitoring and the
// evaluation harness.
type Stats struct {
	// Published counts accepted publishes.
	Published uint64
	// Delivered counts events handed to subscription handlers.
	Delivered uint64
	// FilteredByLabel counts deliveries suppressed because the event's
	// confidentiality labels were not covered by subscriber clearance.
	FilteredByLabel uint64
	// FilteredBySelector counts deliveries suppressed by content
	// selectors.
	FilteredBySelector uint64
	// RejectedPublish counts publishes rejected by validation or
	// integrity-endorsement checks.
	RejectedPublish uint64
}

// clearanceSnapshot is a principal's privileges, tagged with the policy
// generation they were read at.
type clearanceSnapshot struct {
	gen   uint64
	privs *label.Privileges
}

// clearance is the one clearance gate: it caches a principal's privileges
// and re-reads them only when the policy generation moves. Live fan-out
// (through Subscription), the credit drain and durable replay all decide
// through it. Concurrent refreshes are benign (both compute the same
// snapshot).
type clearance struct {
	principal string
	snap      atomic.Pointer[clearanceSnapshot]
}

// clears reports whether the principal's privileges at policy generation
// gen cover the confidentiality labels conf.
func (c *clearance) clears(policy *label.Policy, gen uint64, conf label.Set) bool {
	cs := c.snap.Load()
	if cs == nil || cs.gen != gen {
		cs = &clearanceSnapshot{gen: gen, privs: policy.PrivilegesOf(c.principal)}
		c.snap.Store(cs)
	}
	return cs.privs.HasAll(label.Clearance, conf)
}

// Subscription is a registered subscription. The route table files it
// under its topic pattern's route class (exact topic, "/*" prefix, "*"
// catch-all). The embedded clearance gate holds the principal.
type Subscription struct {
	clearance
	id      uint64
	idStr   string
	topic   string
	sel     *selector.Selector
	hasSel  bool
	handler Handler
	// wire marks a wire subscription (SubscribeWire): the handler gets
	// the frozen published event itself instead of a per-subscriber
	// Delivery copy.
	wire bool
}

// ID returns the broker-unique subscription identifier.
func (s *Subscription) ID() string { return s.idStr }

// Topic returns the subscribed topic pattern.
func (s *Subscription) Topic() string { return s.topic }

// routeTable is the immutable routing index consulted by Publish. A new
// table is built under the broker lock on every subscription change and
// installed with an atomic store, so the publish path never locks.
type routeTable struct {
	closed bool
	exact  map[string][]*Subscription
	prefix []prefixRoute
	global []*Subscription
}

// prefixRoute groups the subscriptions of one "/*" pattern prefix.
type prefixRoute struct {
	prefix string
	subs   []*Subscription
}

var closedTable = &routeTable{closed: true}

// Broker is the in-process IFC-aware event broker. It is safe for
// concurrent use. Delivery is synchronous with respect to Publish: the
// engine layers its own per-callback goroutines on top, mirroring the
// paper's architecture where the STOMP client spawns a thread per
// callback.
type Broker struct {
	policy *label.Policy

	mu     sync.RWMutex // guards subs, nextID, closed and route rebuilds
	subs   map[uint64]*Subscription
	nextID uint64
	closed bool

	routes atomic.Pointer[routeTable]
	taps   atomic.Pointer[[]*tap]

	published          atomic.Uint64
	delivered          atomic.Uint64
	filteredByLabel    atomic.Uint64
	filteredBySelector atomic.Uint64
	rejectedPublish    atomic.Uint64
}

// New creates a broker enforcing the given policy. A nil policy denies all
// privileged operations but still routes unlabelled events.
func New(policy *label.Policy) *Broker {
	if policy == nil {
		policy = label.NewPolicy()
	}
	b := &Broker{
		policy: policy,
		subs:   make(map[uint64]*Subscription),
	}
	b.routes.Store(&routeTable{})
	b.taps.Store(&[]*tap{})
	return b
}

// Policy returns the broker's policy, e.g. for dynamic delegation.
func (b *Broker) Policy() *label.Policy { return b.policy }

// classifyTopic compiles a topic pattern into its route class: the "*"
// catch-all, a trailing-"/*" prefix (returned including the slash), or an
// exact topic. It is the single source of pattern semantics, shared by
// the route table's rebuild and TopicMatches, which publish taps use.
func classifyTopic(pattern string) (matchAll bool, prefix string) {
	switch {
	case pattern == "*":
		return true, ""
	case strings.HasSuffix(pattern, "/*"):
		return false, strings.TrimSuffix(pattern, "*")
	default:
		return false, ""
	}
}

// TopicMatches reports whether a subscription topic pattern covers a
// published topic. Patterns are exact topics, a trailing "/*" wildcard
// covering any deeper path, or "*" covering everything.
func TopicMatches(pattern, topic string) bool {
	matchAll, prefix := classifyTopic(pattern)
	switch {
	case matchAll:
		return true
	case prefix != "":
		return strings.HasPrefix(topic, prefix)
	default:
		return pattern == topic
	}
}

// Subscribe registers a subscription for the named principal. The
// principal's clearance is read from the broker policy and cached per
// subscription; policy updates bump the policy generation and so apply to
// existing subscriptions on their next delivery. The selector source may
// be empty for no content filtering.
func (b *Broker) Subscribe(principal, topic, sel string, handler Handler) (*Subscription, error) {
	return b.subscribe(principal, topic, sel, handler, false)
}

// SubscribeWire registers a wire subscription: the handler receives the
// frozen published event itself, with no per-subscriber attribute copy.
// It exists for transports that only serialise the event — the STOMP
// network front delivers through it, so every session sees the
// same event pointer and the event's wire image (Event.WireImage) is
// encoded once per publish rather than once per session. Wire handlers
// must never mutate the event or hand it to code that might.
func (b *Broker) SubscribeWire(principal, topic, sel string, handler Handler) (*Subscription, error) {
	return b.subscribe(principal, topic, sel, handler, true)
}

func (b *Broker) subscribe(principal, topic, sel string, handler Handler, wire bool) (*Subscription, error) {
	if handler == nil {
		return nil, errors.New("broker: nil handler")
	}
	if topic == "" {
		return nil, errors.New("broker: empty topic")
	}
	compiled, err := selector.Parse(sel)
	if err != nil {
		return nil, fmt.Errorf("broker: bad selector: %w", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	b.nextID++
	sub := &Subscription{
		clearance: clearance{principal: principal},
		id:        b.nextID,
		idStr:     "sub-" + strconv.FormatUint(b.nextID, 10),
		topic:     topic,
		sel:       compiled,
		hasSel:    compiled.Source() != "",
		handler:   handler,
		wire:      wire,
	}
	b.subs[sub.id] = sub
	b.rebuildRoutesLocked()
	return sub, nil
}

// tap is a publish observer registered with SubscribeTap: a topic
// pattern and a handler invoked for every accepted publish the
// pattern covers, before any subscriber delivery and with no clearance or
// selector filtering.
type tap struct {
	pattern string
	fn      Handler
}

// SubscribeTap registers a publish tap: fn observes every accepted
// publish whose topic the pattern covers (same pattern grammar as
// Subscribe), bypassing both clearance and selectors. It exists for the
// durable journal, which must record every event on a durable topic —
// clearance is re-checked at replay time against the then-current policy,
// so filtering at write time would silently erase history a later grant
// should be able to read. Taps receive the frozen published event and, like
// wire handlers, must never mutate it. The returned function removes the
// tap; removing twice is a no-op.
func (b *Broker) SubscribeTap(pattern string, fn Handler) (remove func(), err error) {
	if fn == nil {
		return nil, errors.New("broker: nil tap handler")
	}
	if pattern == "" {
		return nil, errors.New("broker: empty tap pattern")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	t := &tap{pattern: pattern, fn: fn}
	taps := append(slices.Clone(*b.taps.Load()), t)
	b.taps.Store(&taps)
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		taps := slices.DeleteFunc(slices.Clone(*b.taps.Load()), func(x *tap) bool { return x == t })
		b.taps.Store(&taps)
	}, nil
}

// runTaps invokes every tap matching the published topic. Called on the
// publishing goroutine after Freeze, before subscriber delivery, so a
// durable append is sequenced ahead of the fan-out that announces it.
func (b *Broker) runTaps(ev *event.Event) {
	for _, t := range *b.taps.Load() {
		if TopicMatches(t.pattern, ev.Topic) {
			t.fn(ev)
		}
	}
}

// Unsubscribe removes a subscription. Removing an already-removed
// subscription is a no-op.
func (b *Broker) Unsubscribe(sub *Subscription) {
	if sub == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[sub.id]; !ok {
		return
	}
	delete(b.subs, sub.id)
	if !b.closed {
		b.rebuildRoutesLocked()
	}
}

// rebuildRoutesLocked compiles the current subscription set into a fresh
// immutable route table and installs it. Callers hold b.mu.
func (b *Broker) rebuildRoutesLocked() {
	rt := &routeTable{exact: make(map[string][]*Subscription)}
	prefixes := make(map[string][]*Subscription)
	for _, sub := range b.subs {
		switch matchAll, prefix := classifyTopic(sub.topic); {
		case matchAll:
			rt.global = append(rt.global, sub)
		case prefix != "":
			prefixes[prefix] = append(prefixes[prefix], sub)
		default:
			rt.exact[sub.topic] = append(rt.exact[sub.topic], sub)
		}
	}
	for p, subs := range prefixes {
		sortSubs(subs)
		rt.prefix = append(rt.prefix, prefixRoute{prefix: p, subs: subs})
	}
	sort.Slice(rt.prefix, func(i, j int) bool { return rt.prefix[i].prefix < rt.prefix[j].prefix })
	for _, subs := range rt.exact {
		sortSubs(subs)
	}
	sortSubs(rt.global)
	b.routes.Store(rt)
}

// sortSubs orders subscriptions by registration so delivery order within a
// route class is deterministic.
func sortSubs(subs []*Subscription) {
	sort.Slice(subs, func(i, j int) bool { return subs[i].id < subs[j].id })
}

// deliveryCounters accumulates per-publish statistics so the hot loop
// performs one atomic update per counter per publish instead of one per
// subscriber.
type deliveryCounters struct {
	delivered          uint64
	filteredByLabel    uint64
	filteredBySelector uint64
}

// Publish validates and dispatches an event published by the named
// principal. Confidentiality labels may be attached freely ("it is always
// possible to add extra confidentiality labels to events", §4.1), but
// attaching an integrity label requires the endorsement privilege.
//
// The published event is frozen by this call: the publisher must not
// mutate it afterwards. Subscribers share the event's immutable parts;
// only the attribute map is copied per subscriber so that a buggy unit
// mutating its input cannot affect its peers.
//
//safeweb:hotpath
func (b *Broker) Publish(principal string, ev *event.Event) error {
	if err := ev.Validate(); err != nil {
		b.rejectedPublish.Add(1)
		return err
	}
	if integ := ev.Labels.Integrity(); !integ.IsEmpty() {
		privs := b.policy.PrivilegesOf(principal)
		for l := range integ {
			if !privs.Has(label.Endorse, l) {
				b.rejectedPublish.Add(1)
				return &label.FlowError{
					Op: "endorse", Label: l, Principal: principal,
					Reason: "publishing an integrity label requires the endorsement privilege",
				}
			}
		}
	}

	rt := b.routes.Load()
	if rt.closed {
		return ErrClosed
	}

	b.published.Add(1)
	ev.Freeze()
	b.runTaps(ev)
	conf := ev.Labels.Confidentiality()
	var gen uint64
	if !conf.IsEmpty() {
		gen = b.policy.Generation()
	}

	var ctr deliveryCounters
	b.deliverAll(rt.exact[ev.Topic], ev, conf, gen, &ctr)
	for i := range rt.prefix {
		if strings.HasPrefix(ev.Topic, rt.prefix[i].prefix) {
			b.deliverAll(rt.prefix[i].subs, ev, conf, gen, &ctr)
		}
	}
	b.deliverAll(rt.global, ev, conf, gen, &ctr)

	if ctr.delivered > 0 {
		b.delivered.Add(ctr.delivered)
	}
	if ctr.filteredByLabel > 0 {
		b.filteredByLabel.Add(ctr.filteredByLabel)
	}
	if ctr.filteredBySelector > 0 {
		b.filteredBySelector.Add(ctr.filteredBySelector)
	}
	return nil
}

// deliverAll runs the label and selector checks for one route-class slice
// and invokes matching handlers.
func (b *Broker) deliverAll(subs []*Subscription, ev *event.Event, conf label.Set, gen uint64, ctr *deliveryCounters) {
	for _, sub := range subs {
		if !conf.IsEmpty() && !sub.clears(b.policy, gen, conf) {
			ctr.filteredByLabel++
			continue
		}
		if sub.hasSel && !sub.sel.MatchesAttrs(ev.Attrs) {
			ctr.filteredBySelector++
			continue
		}
		ctr.delivered++
		if sub.wire {
			sub.handler(ev) // frozen original; the transport only serialises it
		} else {
			sub.handler(ev.Delivery())
		}
	}
}

// Stats returns a snapshot of broker counters.
func (b *Broker) Stats() Stats {
	return Stats{
		Published:          b.published.Load(),
		Delivered:          b.delivered.Load(),
		FilteredByLabel:    b.filteredByLabel.Load(),
		FilteredBySelector: b.filteredBySelector.Load(),
		RejectedPublish:    b.rejectedPublish.Load(),
	}
}

// Close marks the broker closed and removes all subscriptions.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.subs = make(map[uint64]*Subscription)
	b.routes.Store(closedTable)
}

// Endpoint returns a Bus view of the broker bound to one principal. The
// engine hands each unit an endpoint for its own principal so that units
// cannot spoof each other's identity.
func (b *Broker) Endpoint(principal string) *Endpoint {
	return &Endpoint{broker: b, principal: principal}
}

// Bus is the event communication interface units see: publish and
// subscribe bound to a fixed principal. Both the in-process Endpoint and
// the networked Client implement it, so an engine can run against either a
// local or a remote broker.
type Bus interface {
	// Publish sends an event.
	Publish(ev *event.Event) error
	// Subscribe registers a handler; it returns an opaque subscription id.
	Subscribe(topic, sel string, handler Handler) (string, error)
	// Unsubscribe cancels a subscription by id.
	Unsubscribe(id string) error
	// Flush returns once the broker has handled every event published on
	// the bus and every delivery the broker queued for the bus before the
	// call has reached its handler. It must not be called from a delivery
	// handler, and a durable (journal-tail) subscription's feed is outside
	// it.
	Flush() error
	// Close releases the bus.
	Close() error
}

// Endpoint adapts a Broker to the Bus interface for one principal.
type Endpoint struct {
	broker    *Broker
	principal string

	mu   sync.Mutex
	subs map[string]*Subscription
}

var _ Bus = (*Endpoint)(nil)

// Principal returns the principal this endpoint acts as.
func (e *Endpoint) Principal() string { return e.principal }

// Publish implements Bus.
func (e *Endpoint) Publish(ev *event.Event) error {
	return e.broker.Publish(e.principal, ev)
}

// Subscribe implements Bus.
func (e *Endpoint) Subscribe(topic, sel string, handler Handler) (string, error) {
	sub, err := e.broker.Subscribe(e.principal, topic, sel, handler)
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	if e.subs == nil {
		e.subs = make(map[string]*Subscription)
	}
	e.subs[sub.ID()] = sub
	e.mu.Unlock()
	return sub.ID(), nil
}

// Unsubscribe implements Bus.
func (e *Endpoint) Unsubscribe(id string) error {
	e.mu.Lock()
	sub := e.subs[id]
	delete(e.subs, id)
	e.mu.Unlock()
	if sub == nil {
		return fmt.Errorf("broker: unknown subscription %q", id)
	}
	e.broker.Unsubscribe(sub)
	return nil
}

// Flush implements Bus. In process, publish and delivery are synchronous,
// so there is nothing to settle.
func (e *Endpoint) Flush() error { return nil }

// Close implements Bus: it cancels this endpoint's subscriptions but
// leaves the broker running.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	subs := e.subs
	e.subs = nil
	e.mu.Unlock()
	for _, sub := range subs {
		e.broker.Unsubscribe(sub)
	}
	return nil
}
