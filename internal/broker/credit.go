package broker

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"

	"safeweb/internal/event"
	"safeweb/internal/park"
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
// pending ring a delivery parks in once credit is exhausted — and one
// drain, drainLocked, decides every parked delivery: a grant runs it, and
// so does each park, so a delivery leaves the ring only from its head.

// creditPending is the per-subscription pending ring capacity: how many
// matched deliveries may park broker-side once a credit window is
// exhausted before the overflow policy takes over.
const creditPending = 32

// ringSite is where a publisher parks on a full credit ring.
var ringSite = park.NewSite("broker.credit-ring")

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
// ring and the closed flag; lock order is
// creditState.mu before Server.mu (drain paths call into delivery
// accounting, which may take the server lock) — never acquire
// creditState.mu while holding Server.mu.
type creditState struct {
	// clearance gates parked deliveries. The credit state carries its own
	// because a delivery may park before SubscribeWire has returned ws.sub.
	clearance
	// granted is the consumer's cumulative delivery allowance; sent counts
	// deliveries claimed against it. Remaining credit is granted-sent.
	granted atomic.Int64
	sent    atomic.Int64
	// parked mirrors the ring occupancy for the lock-free fast path: any
	// nonzero value forces new deliveries to park behind the ring so
	// per-publisher order survives a stall. The drain pops a delivery only
	// once it is in the writer queue, so parked stays nonzero until then.
	parked atomic.Int32

	// space is what publishers parked on a full ring under OverflowBlock
	// wait on; a drain that frees a slot and closeSub wake it.
	space park.Gate

	mu sync.Mutex
	// ring is the bounded pending buffer, a circular queue of n events
	// starting at head.
	ring    []*event.Event
	head, n int
	// frees counts the drains that left a slot free, and closeSub: a
	// parked publisher's wait ends at the next one, so each re-arms its
	// WriteTimeout.
	frees uint64
	// closed marks subscription teardown: parked and incoming deliveries
	// are dropped as to a closed session.
	closed bool
}

func newCreditState(principal string, window int64) *creditState {
	c := &creditState{clearance: clearance{principal: principal}, ring: make([]*event.Event, creditPending)}
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

// freedSince reports whether a drain has freed a slot, or the
// subscription closed, since frees read seen.
func (c *creditState) freedSince(seen uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frees != seen
}

// parkDelivery handles a matched delivery that could not claim credit: it
// joins the subscription's pending ring and drainLocked decides it, so it
// leaves the ring in park order, behind every delivery parked before it.
// A full ring falls through to the server's overflow policy — the write
// queue's machinery acting as safety net. Runs on the publishing goroutine; under
// OverflowBlock a full ring blocks it, as a full write queue does one
// layer down, until a drain frees a slot, the subscription or the server
// closes, or WriteTimeout passes with no drain freeing a slot: the
// consumer has stopped granting, as a peer that fails its write deadline
// has stopped reading, and it is evicted. Each such drain re-arms the
// bound, though another publisher may take the slot first. The wait may
// be the consumer's own read loop publishing to its own subscription,
// which no grant can then reach; the bound ends it. A stall run starts
// when a delivery finds the ring empty and stays parked after the drain.
func (s *Server) parkDelivery(ss *serverSession, ws *wireSub, clientSubID string, ev *event.Event) {
	c := ws.credit
	c.mu.Lock()
	for c.n == len(c.ring) {
		if s.cfg.Overflow != OverflowBlock {
			c.mu.Unlock()
			s.suppress(ss, clientSubID, ev, ErrSlowConsumer)
			return
		}
		seen := c.frees
		c.mu.Unlock()
		switch err := c.space.Wait(func() bool { return c.freedSince(seen) }, s.closing, s.cfg.WriteTimeout, ringSite); {
		case errors.Is(err, park.ErrDeadline):
			s.suppress(ss, clientSubID, ev, ErrSlowConsumer)
			s.evict(ss)
			return
		case err != nil:
			s.suppress(ss, clientSubID, ev, err)
			return
		}
		c.mu.Lock()
	}
	if c.closed {
		c.mu.Unlock()
		s.suppress(ss, clientSubID, ev, net.ErrClosed)
		return
	}
	wasEmpty := c.n == 0
	c.pushLocked(ev)
	s.drainLocked(ss, clientSubID, ws)
	stalled := wasEmpty && c.n > 0
	c.mu.Unlock()
	if stalled {
		s.creditStalls.Add(1)
		ss.creditStalls.Add(1)
	}
}

// creditGrant applies a cumulative replenishment grant and drains as much
// of the pending ring as the new window covers. A stale or duplicate grant
// (no larger than the current allowance) is an idempotent no-op. Runs on
// the granting session's read goroutine.
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
	c.mu.Lock()
	if !c.closed {
		s.drainLocked(ss, clientSubID, ws)
	}
	c.mu.Unlock()
}

// drainLocked decides parked deliveries from the head of the ring, in park
// order, until the ring is empty or the window is spent; c.mu is held
// across it. A parked delivery is not yet decided, so each passes the
// clearance gate again, at the current policy generation: one the
// subscriber is no longer cleared for is dropped and counted in
// RevokedDeliveries, and claims no credit. A delivery leaves the ring only
// once it is in the writer queue, so parked stays nonzero until then and
// no fresh delivery's tryClaim can overtake it. Publishers waiting for
// ring space are woken once there is some.
func (s *Server) drainLocked(ss *serverSession, clientSubID string, ws *wireSub) {
	c := ws.credit
	policy := s.broker.Policy()
	for c.n > 0 {
		ev := c.ring[c.head]
		if conf := ev.Labels.Confidentiality(); !conf.IsEmpty() && !c.clears(policy, policy.Generation(), conf) {
			s.revokedDeliveries.Add(1)
		} else if c.claim() {
			s.sendDelivery(ss, clientSubID, ev)
		} else {
			break
		}
		c.popLocked()
	}
	if c.n < len(c.ring) {
		c.frees++
		c.space.Wake()
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
	var dropped []*event.Event
	for c.n > 0 {
		dropped = append(dropped, c.popLocked())
	}
	c.frees++
	c.space.Wake()
	c.mu.Unlock()
	for _, ev := range dropped {
		s.suppress(ss, clientSubID, ev, net.ErrClosed)
	}
}
