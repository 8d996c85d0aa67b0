// Package engine implements SafeWeb's event processing engine (paper
// §4.3): the runtime environment that hosts application units, tracks
// security labels across their callbacks, mediates their communication
// through the event broker, and isolates them from the environment.
//
// Its key functions, as in the paper, are (1) control of unit execution by
// checking and tracking security labels, (2) assignment of privileges to
// units from the policy, and (3) restriction of access to the environment
// via the IFC jail.
//
// Label tracking follows §4.3 exactly: the engine associates a label set
// (the paper's __LABELS__, here Context.Labels) with each callback
// execution, initialised to the labels of the event being processed. When
// the callback publishes, all tracked labels are attached; the callback may
// add labels freely and remove labels only with the declassification
// privilege. The per-unit key-value store labels values per key: reads
// merge the key's labels into the tracked set, writes save the tracked set
// as the key's labels.
package engine

import (
	"errors"
	"fmt"
	"log"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"safeweb/internal/broker"
	"safeweb/internal/event"
	"safeweb/internal/jail"
	"safeweb/internal/label"
	"safeweb/internal/park"
)

// Unit is an event processing unit: one application component realised "as
// one or more classes that implement the business logic" (§4.3). Init is
// called once when the unit is added to the engine; it registers
// subscriptions and may initialise unit state. Unit implementations must
// not retain the InitContext after Init returns.
type Unit interface {
	// Name returns the unit's principal name for policy lookups.
	Name() string
	// Init registers the unit's subscriptions.
	Init(ctx *InitContext) error
}

// Callback processes one delivered event within a label-tracking context.
// Returning an error records a callback failure; the engine keeps running
// (the error is the application's bug, and SafeWeb's guarantees do not
// depend on application correctness).
//
// The delivered event follows the same lifecycle as the pooled Context:
// it is valid for the duration of the callback and released back to the
// delivery pool when the callback returns, so callbacks must not retain
// ev (or its attribute map) past their own return — Clone what must
// outlive the callback. Label sets and the body are shared immutable data
// and may be kept.
type Callback func(ctx *Context, ev *event.Event) error

// BusFactory creates the Bus for a unit principal. The in-process broker's
// Endpoint method and a dialer for the networked broker both satisfy it.
type BusFactory func(principal string) (broker.Bus, error)

// queueSize is the per-subscription event queue length. Queues decouple
// broker delivery from callback execution (the paper's STOMP client runs
// callbacks on fresh threads); a bounded queue gives back-pressure instead
// of unbounded memory growth.
const queueSize = 256

// pushSite is where a delivery parks on a full subscription queue.
var pushSite = park.NewSite("engine.push")

// Config configures an Engine.
type Config struct {
	// Policy supplies unit privileges and the privileged-unit flags.
	// Required.
	Policy *label.Policy
	// Bus creates each unit's broker connection. Required.
	Bus BusFactory
	// OnCallbackError observes callback failures and panics; nil logs.
	OnCallbackError func(unit string, ev *event.Event, err error)
	// Logf logs engine events; nil uses log.Printf.
	Logf func(format string, args ...any)
}

// Stats counts engine activity.
type Stats struct {
	// EventsProcessed counts callback invocations completed.
	EventsProcessed uint64
	// CallbackErrors counts callbacks that returned an error or panicked.
	CallbackErrors uint64
	// FlowViolations counts denied label operations (declassify/endorse
	// without privilege).
	FlowViolations uint64
}

// Engine hosts units. Create with New, add units with AddUnit, then Stop
// to tear down.
type Engine struct {
	cfg   Config
	audit *jail.Audit

	mu     sync.Mutex
	units  map[string]*unitRuntime
	closed bool

	processed      atomic.Uint64
	callbackErrors atomic.Uint64
	flowViolations atomic.Uint64
}

// unitRuntime is the engine's per-unit state.
type unitRuntime struct {
	name       string
	privileged bool
	privs      *label.Privileges
	jail       *jail.Jail
	bus        broker.Bus
	store      *kvStore

	// queues holds the per-subscription event queues. It is appended to
	// (InitContext.Subscribe) and snapshotted (Stop, AddUnit cleanup)
	// under the engine lock, so a subscription racing Stop can never
	// leave a worker goroutine with an unclosed queue.
	queues []*subQueue
	wg     sync.WaitGroup
}

// subQueue wraps a subscription's event channel with a closed flag so a
// delivery racing queue teardown — a publisher that routed through a
// pre-unsubscribe snapshot of the broker's lock-free route table — is
// dropped instead of panicking on a closed channel.
type subQueue struct {
	mu     sync.RWMutex
	closed bool
	ch     chan queuedEvent
	stop   chan struct{} // closed by close before it takes mu
}

// push enqueues qe unless the queue is closed, reporting whether it was
// accepted. While the queue is full it parks, until the worker makes room
// or close refuses it.
func (q *subQueue) push(qe queuedEvent) bool {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return !q.closed && park.Send(q.ch, qe, q.stop, pushSite) == nil
}

// close refuses every parked push, marks the queue closed and closes the
// channel, ending its worker once the backlog is drained.
func (q *subQueue) close() {
	close(q.stop)
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	close(q.ch)
}

// queuedEvent is one delivery handed from a bus read goroutine to a
// subscription worker. It travels by value through the queue channel, so
// the per-event heap allocation of a pointer-typed queue is gone. A nil ev
// is a Drain marker: the worker calls cb with nil arguments and runs no
// callback.
type queuedEvent struct {
	ev *event.Event
	cb Callback
}

// shutdown closes the queues of units, then waits for their workers,
// which exit once they have run the backlog. Every queue is closed before
// any worker is waited for: a worker parked pushing to another unit's full
// queue is released by that queue's close. Callers must have closed the
// units' buses first (no further deliveries) and hold a queues snapshot
// taken under the engine lock, or own the runtime exclusively (AddUnit
// before registration).
func shutdown(units ...*unitRuntime) {
	for _, rt := range units {
		for _, q := range rt.queues {
			q.close()
		}
	}
	for _, rt := range units {
		rt.wg.Wait()
	}
}

// New creates an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Policy == nil {
		return nil, errors.New("engine: Config.Policy is required")
	}
	if cfg.Bus == nil {
		return nil, errors.New("engine: Config.Bus is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return &Engine{
		cfg:   cfg,
		audit: &jail.Audit{},
		units: make(map[string]*unitRuntime),
	}, nil
}

// Audit returns the engine's jail audit log.
func (e *Engine) Audit() *jail.Audit { return e.audit }

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		EventsProcessed: e.processed.Load(),
		CallbackErrors:  e.callbackErrors.Load(),
		FlowViolations:  e.flowViolations.Load(),
	}
}

// AddUnit configures, instantiates and runs a unit (paper: "The engine
// configures, instantiates and runs units"). The unit's privileges and
// privileged flag come from the policy under the unit's name.
func (e *Engine) AddUnit(u Unit) error {
	name := u.Name()
	if name == "" {
		return errors.New("engine: unit with empty name")
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return errors.New("engine: closed")
	}
	if _, dup := e.units[name]; dup {
		e.mu.Unlock()
		return fmt.Errorf("engine: duplicate unit %q", name)
	}
	e.mu.Unlock()

	bus, err := e.cfg.Bus(name)
	if err != nil {
		return fmt.Errorf("engine: bus for unit %q: %w", name, err)
	}
	privileged := e.cfg.Policy.IsPrivileged(name)
	rt := &unitRuntime{
		name:       name,
		privileged: privileged,
		privs:      e.cfg.Policy.PrivilegesOf(name),
		jail:       jail.New(name, privileged, e.audit),
		bus:        bus,
		store:      newKVStore(),
	}

	// The unit's initialisation runs inside the jail too (paper Fig. 2,
	// step 1: $SAFE=4 prevents the unit's initialisation code from
	// performing I/O). Capability mediation covers that here: Init only
	// receives the restricted InitContext.
	ictx := &InitContext{engine: e, rt: rt}
	if err := u.Init(ictx); err != nil {
		ictx.engine = nil // invalidate retained contexts
		_ = bus.Close()
		shutdown(rt)
		return fmt.Errorf("engine: init unit %q: %w", name, err)
	}
	ictx.engine = nil // invalidate retained contexts

	e.mu.Lock()
	if e.closed {
		// Stop ran while Init was registering subscriptions; it never saw
		// this unit, so its queues and workers are torn down here instead
		// of leaking.
		e.mu.Unlock()
		_ = bus.Close()
		shutdown(rt)
		return errors.New("engine: closed")
	}
	e.units[name] = rt
	e.mu.Unlock()
	return nil
}

// Drain blocks until the engine is quiescent: until a round passes in
// which no callback ran. A round flushes every unit's bus twice — the
// first pass settles what each bus published, the second what the broker
// queued for each bus as a result (see broker.Bus.Flush) — then sends a
// marker through every subscription queue and waits until every worker
// has reached its marker. If no callback completed during the round,
// nothing was left to propagate and Drain returns; otherwise it runs
// another round. In process a round costs a pass over the queues; over
// the networked broker each flush takes a receipt on the unit's
// connection, so a delivery still on the wire is waited for, not guessed
// at.
//
// Drain is intended for tests, benchmarks and imports that publish a
// batch and then assert on results. External publishers must be
// quiescent while draining. A durable (journal-tail) subscription is fed
// by the broker's replay goroutine and is outside the barrier: Drain does
// not wait for records the journal has yet to replay. A flush error (a
// dead or closed bus) is logged and the round goes on; a dead bus
// delivers nothing more.
func (e *Engine) Drain() {
	for {
		before := e.processed.Load()
		e.mu.Lock()
		units := slices.Collect(maps.Values(e.units))
		e.mu.Unlock()
		for range 2 {
			for _, rt := range units {
				if err := rt.bus.Flush(); err != nil {
					e.cfg.Logf("engine: drain: flush unit %q: %v", rt.name, err)
				}
			}
		}
		// A registered unit's queues are frozen: Subscribe works only
		// during Init, before the unit enters e.units.
		var reached sync.WaitGroup
		marker := queuedEvent{cb: func(*Context, *event.Event) error { reached.Done(); return nil }}
		for _, rt := range units {
			for _, q := range rt.queues {
				reached.Add(1)
				if !q.push(marker) {
					reached.Done() // a closed queue counts as reached
				}
			}
		}
		reached.Wait()
		if e.processed.Load() == before {
			return
		}
	}
}

// Stop closes unit buses, then every unit's queues, and waits for the
// queue workers to run what was queued. A delivery parked on a full queue
// is refused, logged through Logf and released, never waited for. So
// whatever the peers do, Stop returns within the buses' close drains (the
// stomp writer's closeFlushTimeout, 2 s, for each networked bus whose
// broker stopped reading; nothing in process) plus the callbacks already
// queued, whose publishes fail fast on a closed bus or are dropped at a
// closed queue. A callback that never returns is outside the bound.
func (e *Engine) Stop() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	units := slices.Collect(maps.Values(e.units))
	e.mu.Unlock()

	// Stop inflow first, then drain. rt.queues is frozen once e.closed is
	// set (Subscribe rejects under the engine lock), so the snapshot read
	// in shutdown is race-free.
	for _, rt := range units {
		_ = rt.bus.Close()
	}
	shutdown(units...)
}

// runCallback executes one callback invocation with label tracking and
// panic containment. ctx is the worker's pooled Context: it is reset for
// this event and invalidated again before the function returns, so a
// callback that leaks its Context cannot act through it later (the same
// rule InitContext enforces after Init). The delivered event rides the
// same lifecycle: once the callback (and the error hook, which sees the
// event last) completes, the event is released back to the delivery pool,
// so the consumer steady state allocates no Event per callback. Both
// non-retention rules are hard contracts, not guidelines.
func (e *Engine) runCallback(ctx *Context, rt *unitRuntime, cb Callback, ev *event.Event) {
	ctx.engine = e
	ctx.rt = rt
	ctx.labels = ev.Labels // __LABELS__ initialised to the event's labels (§4.3)
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("engine: callback panic in unit %q: %v", rt.name, r)
			}
		}()
		return cb(ctx, ev)
	}()
	ctx.engine = nil // invalidate retained contexts
	ctx.rt = nil
	ctx.labels = nil
	if err != nil {
		e.callbackErrors.Add(1)
		if e.cfg.OnCallbackError != nil {
			e.cfg.OnCallbackError(rt.name, ev, err)
		} else {
			e.cfg.Logf("engine: unit %q callback error: %v", rt.name, err)
		}
	}
	// Recycle pooled delivery events; no-op on shared ones. This is the
	// delivery-consumed point: a networked bus's credit replenishment
	// (broker.ClientConfig.SubscribeCredit) rides it via NotifyRelease.
	ev.Release()
	// Counted last, so a credit grant the release sends is on its
	// connection before the count moves: a Drain round that sees no
	// movement flushes behind every grant, and the delivery a grant
	// releases from the broker's pending ring cannot slip past it.
	e.processed.Add(1)
}

// InitContext is the restricted capability surface available to a unit
// during Init.
type InitContext struct {
	engine *Engine
	rt     *unitRuntime
}

// Name returns the unit's name.
func (c *InitContext) Name() string { return c.rt.name }

// Jail returns the unit's jail, through which privileged units obtain I/O
// capabilities.
func (c *InitContext) Jail() *jail.Jail { return c.rt.jail }

// Subscribe registers a callback for events on the topic matching the
// optional SQL-92 selector. The engine narrows delivery to the unit's
// clearance at the broker ("the engine reads the set of labels from the
// unit's policy file for which the unit has clearance privileges... this
// set is used to check that a matching event can be processed", §4.3).
//
// Each subscription processes its events sequentially on a dedicated
// worker, so a unit's per-subscription state sees events in order;
// different subscriptions of the same unit run concurrently and must share
// state only through the labelled store.
func (c *InitContext) Subscribe(topic, sel string, cb Callback) error {
	if c.engine == nil {
		return errors.New("engine: InitContext used after Init returned")
	}
	if cb == nil {
		return errors.New("engine: nil callback")
	}
	e, rt := c.engine, c.rt

	queue := &subQueue{ch: make(chan queuedEvent, queueSize), stop: make(chan struct{})}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return errors.New("engine: closed")
	}
	rt.queues = append(rt.queues, queue)
	e.mu.Unlock()
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		// The worker owns one Context for its lifetime; runCallback
		// resets it per event and invalidates it between events, so the
		// per-callback Context allocation is gone from the dispatch path.
		var ctx Context
		for qe := range queue.ch {
			if qe.ev == nil {
				qe.cb(nil, nil) // a Drain marker
				continue
			}
			e.runCallback(&ctx, rt, qe.cb, qe.ev)
		}
	}()

	_, err := rt.bus.Subscribe(topic, sel, func(ev *event.Event) {
		if !queue.push(queuedEvent{ev: ev, cb: cb}) {
			e.cfg.Logf("engine: unit %q stopped: delivery on %q dropped", rt.name, ev.Topic)
			ev.Release()
		}
	})
	if err != nil {
		return fmt.Errorf("engine: subscribe unit %q to %q: %w", rt.name, topic, err)
	}
	return nil
}

// Publish publishes an event from initialisation code with the given
// labels; it is primarily used by import units that seed topics at
// startup. Label rules are identical to Context.Publish with an empty
// tracked set.
func (c *InitContext) Publish(topic string, attrs map[string]string, body []byte, opts ...PublishOption) error {
	if c.engine == nil {
		return errors.New("engine: InitContext used after Init returned")
	}
	ctx := &Context{engine: c.engine, rt: c.rt}
	return ctx.Publish(topic, attrs, body, opts...)
}
