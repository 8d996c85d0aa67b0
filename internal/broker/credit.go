package broker

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"safeweb/internal/event"
)

// Credit-based flow control: the proactive half of slow-consumer
// protection. A SUBSCRIBE frame may advertise a delivery window in a
// credit header; the server then puts at most that many MESSAGE frames on
// the wire for the subscription before further matched deliveries park in
// a bounded per-subscription pending ring, and the consumer replenishes
// the window with ACK frames carrying a cumulative grant. The reactive
// overflow machinery (OverflowPolicy on the session write queue) stays in
// place underneath as the safety net: it only acts once the pending ring
// itself overflows, or for subscriptions that advertised no window.
//
// creditState serves live subscriptions only. A durable subscription's
// replay feed is its own delivery source, so it parks nothing: it keeps
// its window in replayFeed and waits there (durable.go).
//
// Accounting is two monotonic counters per wire subscription — granted
// (the consumer's cumulative allowance) and sent (deliveries claimed
// against it) — so remaining credit is granted-sent and a grant is
// naturally idempotent: applying it is a CAS-max, and a duplicate or
// reordered grant can only be a no-op. The fan-out fast path takes no
// lock: a delivery claims credit with a load (is anything parked?) and a
// CAS on sent. The per-subscription mutex guards only the slow path — the
// pending ring a delivery parks in once credit is exhausted.

// creditPending is the per-subscription pending ring capacity: how many
// matched deliveries may park broker-side once a credit window is
// exhausted before the overflow policy takes over.
const creditPending = 32

// wireSub is one wire subscription: a live one's broker registration and
// optional credit window (credit is nil for a subscription that advertised
// no window — infinite credit, the pre-credit wire behaviour), or a
// durable one's replay feed, which has no broker registration and no
// creditState: its deliveries come from the journal tail, paced by the
// window the feed keeps itself.
type wireSub struct {
	sub    *Subscription
	credit *creditState
	replay *replayFeed
}

// creditState is one wire subscription's flow-control window.
//
// The atomics are the fast path: tryClaim runs on the publishing goroutine
// for every matched delivery and takes no lock. mu guards the pending
// ring, its wake channel and the stall/closed flags; lock order is
// creditState.mu before Server.mu (drain paths call into delivery
// accounting, which may take the server lock) — never acquire
// creditState.mu while holding Server.mu.
type creditState struct {
	// granted is the consumer's cumulative delivery allowance; sent counts
	// deliveries claimed against it. Remaining credit is granted-sent.
	granted atomic.Int64
	sent    atomic.Int64
	// parked mirrors the ring occupancy for the lock-free fast path: any
	// nonzero value forces new deliveries to park behind the ring so
	// per-publisher order survives a stall.
	parked atomic.Int32

	mu sync.Mutex
	// wake, when set, is what publishers blocked on a full ring under
	// OverflowBlock wait on; wakeLocked closes and clears it once a grant
	// frees a slot or the subscription closes.
	wake chan struct{}
	// ring is the bounded pending buffer, a circular queue of n events
	// starting at head.
	ring    []*event.Event
	head, n int
	// stalled marks an in-progress stall run (set on the first park,
	// cleared when a grant drains the ring empty); closed marks
	// subscription teardown — parked and incoming deliveries are dropped
	// as to a closed session.
	stalled bool
	closed  bool
}

func newCreditState(window int64) *creditState {
	c := &creditState{ring: make([]*event.Event, creditPending)}
	c.granted.Store(window)
	return c
}

// tryClaim consumes one credit on the lock-free fast path. It fails when
// deliveries are already parked — even with credit in hand, a new delivery
// must queue behind the ring to keep per-publisher order — or when the
// window is exhausted.
//
//safeweb:hotpath
func (c *creditState) tryClaim() bool {
	if c.parked.Load() != 0 {
		return false
	}
	return c.claim()
}

// claim CASes one credit out of the window, returning false when none
// remains. Safe with or without c.mu held.
//
//safeweb:hotpath
func (c *creditState) claim() bool {
	for {
		sent := c.sent.Load()
		if sent >= c.granted.Load() {
			return false
		}
		if c.sent.CompareAndSwap(sent, sent+1) {
			return true
		}
	}
}

func (c *creditState) pushLocked(ev *event.Event) {
	c.ring[(c.head+c.n)%len(c.ring)] = ev
	c.n++
	c.parked.Store(int32(c.n))
}

func (c *creditState) popLocked() *event.Event {
	ev := c.ring[c.head]
	c.ring[c.head] = nil
	c.head = (c.head + 1) % len(c.ring)
	c.n--
	c.parked.Store(int32(c.n))
	return ev
}

// wakeLocked releases every publisher waiting for ring space.
func (c *creditState) wakeLocked() {
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
}

// parkDelivery handles a matched delivery that could not claim credit: it
// parks in the subscription's pending ring, and a full ring falls through
// to the server's overflow policy — the PR 6 machinery acting as safety
// net. Runs on the publishing goroutine; under OverflowBlock a full ring
// blocks it, as a full write queue does one layer down, until a grant
// frees a slot, the subscription or the server closes, or WriteTimeout
// passes. A delivery that waited is not yet decided: on every wake it
// passes the clearance gate again, at the current policy generation, and
// one the subscriber is no longer cleared for is dropped and counted in
// RevokedDeliveries.
func (s *Server) parkDelivery(ss *serverSession, ws *wireSub, clientSubID string, ev *event.Event) {
	c := ws.credit
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			s.suppress(ss, clientSubID, ev, net.ErrClosed)
			return
		}
		// Re-check under the lock: a grant may have drained the ring since
		// the fast path failed. Order matters — only an empty ring lets a
		// fresh claim jump the queue.
		if c.n == 0 && c.claim() {
			c.mu.Unlock()
			s.sendDelivery(ss, clientSubID, ev)
			return
		}
		if c.n < len(c.ring) {
			break
		}
		if s.cfg.Overflow != OverflowBlock {
			c.mu.Unlock()
			s.suppress(ss, clientSubID, ev, ErrSlowConsumer)
			return
		}
		if c.wake == nil {
			c.wake = make(chan struct{})
		}
		wake := c.wake
		c.mu.Unlock()
		if err := s.awaitSpace(wake); err != nil {
			s.suppress(ss, clientSubID, ev, err)
			if errors.Is(err, ErrSlowConsumer) {
				s.evict(ss)
			}
			return
		}
		// The wait may have outlived the subscriber's clearance: decide
		// the delivery again, as a grant's drain does a parked one.
		if conf, p := ev.Labels.Confidentiality(), s.broker.policy; !conf.IsEmpty() && !ws.sub.clears(p, p.Generation(), conf) {
			s.revokedDeliveries.Add(1)
			return
		}
		c.mu.Lock()
	}
	c.pushLocked(ev)
	firstStall := !c.stalled
	c.stalled = true
	c.mu.Unlock()
	if firstStall {
		s.creditStalls.Add(1)
		ss.creditStalls.Add(1)
	}
}

// awaitSpace waits until wake closes, and fails with net.ErrClosed when
// the server closes first, or with ErrSlowConsumer when WriteTimeout
// passes first: the consumer has stopped granting, as a peer that fails
// its write deadline has stopped reading, and the caller evicts it. The
// wait may be the consumer's own read loop publishing to its own
// subscription, which no grant can then reach; the bound ends it.
func (s *Server) awaitSpace(wake <-chan struct{}) error {
	var timeout <-chan time.Time
	if s.cfg.WriteTimeout > 0 {
		t := time.NewTimer(s.cfg.WriteTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-wake:
		return nil
	case <-s.closing:
		return net.ErrClosed
	case <-timeout:
		return ErrSlowConsumer
	}
}

// creditGrant applies a cumulative replenishment grant and drains as much
// of the pending ring as the new window covers, in park order. A stale or
// duplicate grant (no larger than the current allowance) is an idempotent
// no-op. Runs on the granting session's read goroutine; the ring lock is
// held across the drain so parked order is preserved against concurrent
// publishers.
//
// A parked delivery is not yet decided, so each one passes the clearance
// gate again, at the current policy generation, before it claims credit:
// one the subscriber is no longer cleared for is dropped and counted in
// RevokedDeliveries.
func (s *Server) creditGrant(ss *serverSession, clientSubID string, ws *wireSub, grant int64) {
	c := ws.credit
	for {
		cur := c.granted.Load()
		if grant <= cur {
			return
		}
		if c.granted.CompareAndSwap(cur, grant) {
			break
		}
	}
	policy := s.broker.Policy()
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.wakeLocked()
	for c.n > 0 && !c.closed {
		conf := c.ring[c.head].Labels.Confidentiality()
		cleared := conf.IsEmpty() || ws.sub.clears(policy, policy.Generation(), conf)
		if cleared && !c.claim() {
			return
		}
		ev := c.popLocked()
		if !cleared {
			s.revokedDeliveries.Add(1)
			continue
		}
		s.sendDelivery(ss, clientSubID, ev)
	}
	if c.n == 0 {
		// Ring drained: the stall run is over; the next park starts a new
		// one.
		c.stalled = false
	}
}

// closeSub tears a wire subscription down: its live registration and
// credit window, whose parked deliveries are dropped as to a closed
// session (publishers waiting for ring space are woken to observe
// closed), or its replay feed.
func (s *Server) closeSub(ss *serverSession, clientSubID string, ws *wireSub) {
	s.broker.Unsubscribe(ws.sub)
	if ws.replay != nil {
		ws.replay.stop()
	}
	c := ws.credit
	if c == nil {
		return
	}
	c.mu.Lock()
	c.closed = true
	c.stalled = false
	var dropped []*event.Event
	for c.n > 0 {
		dropped = append(dropped, c.popLocked())
	}
	c.wakeLocked()
	c.mu.Unlock()
	for _, ev := range dropped {
		s.suppress(ss, clientSubID, ev, net.ErrClosed)
	}
}
