package broker

import (
	"cmp"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"safeweb/internal/event"
	"safeweb/internal/stomp"
)

// ClientConfig configures a networked broker client.
type ClientConfig struct {
	// Login is the policy principal this client acts as.
	Login string
	// Passcode authenticates the login.
	Passcode string
	// TLS enables transport security.
	TLS *tls.Config
	// SendTimeout bounds each receipt wait: a windowed publish's and
	// Flush's (zero means 10 seconds). Without PublishWindow publishes are
	// fire-and-forget and it bounds no publish.
	SendTimeout time.Duration
	// OnError receives asynchronous errors (decode failures, server
	// errors); nil drops them. With PublishWindow > 0 it runs on the read
	// goroutines of both connections, possibly concurrently, so it must be
	// safe for concurrent use.
	OnError func(error)

	// PublishWindow enables windowed asynchronous publishing when > 0:
	// every publish is a receipt-tracked SEND, and up to PublishWindow of
	// them may be in flight before Publish blocks on the oldest
	// outstanding confirmation. Publishes still enter the connection's
	// single write queue in call order, so publish ordering is unchanged —
	// the window removes the per-publish round trip, not the ordering. The
	// first broker error (receipt timeout, connection loss, server
	// rejection) is sticky: later Publish calls fail fast with it and
	// Flush reports it. Zero publishes fire-and-forget.
	//
	// Windowed publishes travel on a dedicated second connection: a
	// consumer stalled on a full engine queue backpressures its
	// subscription connection's read loop, and a RECEIPT stuck behind
	// undelivered MESSAGE frames there would deadlock the window against
	// the very callback waiting on it.
	PublishWindow int

	// SubscribeCredit arms credit-based flow control on every subscription
	// this client creates: each SUBSCRIBE advertises a delivery window of
	// that many messages, and the client replenishes it automatically as
	// deliveries complete — when the engine (or any consumer) releases a
	// delivery event (Event.Release), the client counts it consumed and,
	// once half the window has completed, sends a cumulative credit grant
	// on an ACK frame (about two control frames per window). The broker
	// parks deliveries beyond the window server-side instead of flooding
	// the connection, so a consumer that falls behind sheds load at the
	// broker — before the write queue, where the overflow policy would
	// start dropping. Zero disables credit: wire behaviour is unchanged.
	SubscribeCredit int

	// DurableGroup, when non-empty, makes every subscription this client
	// creates a durable one: the SUBSCRIBE carries a group header, so the
	// broker feeds the subscription from the topic's journal, resuming at
	// the group's cumulative acked offset, and the client acks progress
	// automatically as deliveries are released (cumulative, piggybacked on
	// credit grants when SubscribeCredit is also set). Durable topics must
	// be configured on the server (ServerConfig.Durable).
	DurableGroup string
	// DurableOffset, when non-empty, adds an explicit replay start to
	// every subscription: "earliest", "next", or a decimal offset. It wins
	// over the group's acked mark; with DurableGroup empty it creates
	// anonymous durable subscriptions whose progress is not persisted.
	DurableOffset string
}

// Client is a Bus implementation over a remote STOMP broker. It lets an
// engine (or any producer/consumer) run in a different process or network
// zone from the broker, as in the paper's ECRIC deployment where the event
// broker is a separate service inside the Intranet (Fig. 4). It is one
// STOMP connection, plus the publish window's own when PublishWindow > 0.
type Client struct {
	cfg  ClientConfig
	conn *stomp.Client // subscriptions, and publishes unless windowed

	// cache memoises label-header parses and the topic string across
	// deliveries. Every subscription handler runs on conn's read
	// goroutine, so the cache is goroutine-confined.
	cache event.DecodeCache

	// win is the publish window and its connection; nil unless
	// PublishWindow > 0.
	win *pubWindow
}

// pubWindow tracks the receipt-confirmed SENDs in flight on the publish
// connection. Receipts complete in send order (the broker processes a
// connection's frames sequentially), so the in-flight set is a FIFO and
// waiting on its head bounds the window. The first failure is sticky:
// once a receipt is refused, times out, or the connection dies, every
// later publish on this window fails fast with that error and Flush
// reports it — a windowed producer can pipeline without ever having an
// error swallowed between two Flush calls.
type pubWindow struct {
	conn    *stomp.Client
	size    int
	timeout time.Duration

	mu       sync.Mutex
	inflight []*stomp.Receipt // FIFO; head..len(inflight) outstanding
	head     int
	err      error // sticky first failure
}

// publish sends one image through the window, blocking while the window
// is full. The window mutex also serialises enqueueing, preserving the
// caller-observed publish order on the connection.
func (w *pubWindow) publish(img *stomp.WireImage) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	for len(w.inflight)-w.head >= w.size {
		if err := w.waitHeadLocked(); err != nil {
			return err
		}
	}
	r, err := w.conn.SendImageAsync(img)
	if err != nil {
		w.err = fmt.Errorf("broker: windowed publish: %w", err)
		return w.err
	}
	switch {
	case w.head == len(w.inflight):
		w.inflight = w.inflight[:0]
		w.head = 0
	case w.head >= w.size:
		// Compact the settled prefix so a continuously publishing window
		// keeps the slice (and the receipts the dead prefix would pin)
		// bounded by the window size, not by total publishes.
		n := copy(w.inflight, w.inflight[w.head:])
		clear(w.inflight[n:])
		w.inflight = w.inflight[:n]
		w.head = 0
	}
	w.inflight = append(w.inflight, r)
	return nil
}

// waitHeadLocked settles the oldest outstanding receipt. On failure the
// error becomes sticky and the remaining in-flight receipts are dropped:
// the connection is dead or wedged, and their confirmations can never
// arrive out of order with the one that failed.
func (w *pubWindow) waitHeadLocked() error {
	r := w.inflight[w.head]
	w.inflight[w.head] = nil // settled receipts must not linger in the FIFO
	w.head++
	if err := r.Wait(w.timeout); err != nil {
		w.err = fmt.Errorf("broker: windowed publish: %w", err)
		w.inflight = w.inflight[:0]
		w.head = 0
		return w.err
	}
	return nil
}

// stickyErr returns the window's sticky failure, if any. Publish checks
// it before encoding or freezing the event, so a fail-fast rejection
// leaves the caller's event mutable for annotation and republish
// elsewhere.
func (w *pubWindow) stickyErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// flush settles every outstanding receipt and returns the window's sticky
// error, if any.
func (w *pubWindow) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && w.head < len(w.inflight) {
		_ = w.waitHeadLocked() // error is sticky; loop exits on it
	}
	w.inflight = w.inflight[:0]
	w.head = 0
	return w.err
}

// creditTracker replenishes one credited subscription's delivery window.
// It rides the delivery lifecycle the engine already has: every delivery
// event carries a NotifyRelease hook bound to done, so a completed
// callback — Event.Release at the engine's callback-completion point —
// counts as consumption without wrapping the handler.
//
// granted is the cumulative allowance last sent to the broker; consumed
// counts completed deliveries. A grant is sent when the next allowance
// (consumed + window) is at least half a window ahead of the last one —
// batching replenishment to about two ACK frames per window — and restates
// the cumulative total, so duplicated or reordered grants are idempotent
// on the broker.
type creditTracker struct {
	conn    *stomp.Client
	window  int64
	onError func(error)
	// subID is the wire subscription id, captured from the first
	// delivery's subscription header on the connection read goroutine before
	// the handler runs; every done call is downstream of a delivery, so
	// the write happens-before all reads.
	subID string
	// doneFn is the pre-bound done method value, created once so the
	// per-delivery NotifyRelease costs no allocation.
	doneFn func()

	consumed atomic.Int64
	granted  atomic.Int64
}

// done records one consumed delivery and sends a batched cumulative grant
// when half the window has completed. Safe for concurrent use: the CAS on
// granted elects exactly one sender per batch.
func (t *creditTracker) done() {
	consumed := t.consumed.Add(1)
	for {
		g := t.granted.Load()
		next := consumed + t.window
		if next-g < (t.window+1)/2 {
			return
		}
		if t.granted.CompareAndSwap(g, next) {
			err := t.conn.SendCreditGrant(t.subID, next)
			if err != nil && !errors.Is(err, net.ErrClosed) && t.onError != nil {
				t.onError(fmt.Errorf("broker: credit grant for %s: %w", t.subID, err))
			}
			return
		}
	}
}

// offsetTracker turns the delivery-release lifecycle of one durable
// subscription into cumulative offset acks. Replayed deliveries arrive in
// increasing offset order but may complete (Release) out of order under a
// concurrent engine, and clearance filtering leaves gaps in the offset
// sequence — so the tracker keeps the delivered offsets in arrival order
// and advances the acked frontier only across the completed prefix:
// acking offset n+1 states that every delivered record at or below n has
// finished processing, which is exactly the journal's cumulative-ack
// contract. Acks restate the frontier and apply max-wins broker-side, so
// a duplicate or reordered frame is a no-op.
type offsetTracker struct {
	conn    *stomp.Client
	credit  *creditTracker // non-nil: piggyback the credit grant on each ack
	onError func(error)
	// subID is captured from the first delivery's subscription header on
	// the connection read goroutine, like creditTracker.subID.
	subID string

	mu      sync.Mutex
	pending []int64 // delivered offsets in arrival order (increasing)
	settled map[int64]bool
	acked   int64
}

// delivered records one replayed delivery's offset, in arrival order.
// Runs on the connection read goroutine before the handler sees the event.
func (t *offsetTracker) delivered(off int64) {
	t.mu.Lock()
	t.pending = append(t.pending, off)
	t.mu.Unlock()
}

// released marks one delivery completed and, when the completed prefix
// advanced, sends the new cumulative frontier — piggybacking the credit
// window's cumulative grant on the same ACK frame when credit flow
// control is armed, so a durable credited consumer pays one control frame
// where it would otherwise pay two.
func (t *offsetTracker) released(off int64) {
	t.mu.Lock()
	if t.settled == nil {
		t.settled = make(map[int64]bool)
	}
	t.settled[off] = true
	frontier := t.acked
	for len(t.pending) > 0 && t.settled[t.pending[0]] {
		delete(t.settled, t.pending[0])
		frontier = t.pending[0] + 1
		t.pending = t.pending[1:]
	}
	if frontier <= t.acked {
		t.mu.Unlock()
		return
	}
	t.acked = frontier
	subID := t.subID
	t.mu.Unlock()

	var grant int64
	if t.credit != nil {
		grant = t.credit.granted.Load()
	}
	err := t.conn.SendOffsetAck(subID, frontier, grant)
	if err != nil && !errors.Is(err, net.ErrClosed) && t.onError != nil {
		t.onError(fmt.Errorf("broker: offset ack for %s: %w", subID, err))
	}
}

var _ Bus = (*Client)(nil)

// DialBus connects to a broker server: one STOMP connection, plus a
// dedicated publish connection when windowed publishing is enabled (see
// ClientConfig.PublishWindow).
func DialBus(addr string, cfg ClientConfig) (*Client, error) {
	dial := func() (*stomp.Client, error) {
		return stomp.Dial(addr, stomp.ClientConfig{
			Login:    cfg.Login,
			Passcode: cfg.Passcode,
			TLS:      cfg.TLS,
			OnError:  cfg.OnError,
		})
	}
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, conn: conn}
	if cfg.PublishWindow > 0 {
		pub, err := dial()
		if err != nil {
			_ = conn.Close()
			return nil, err
		}
		c.win = &pubWindow{conn: pub, size: cfg.PublishWindow, timeout: cfg.SendTimeout}
	}
	return c, nil
}

// Publish implements Bus via the one SEND encoding: the event is frozen
// (publishers must not mutate it afterwards, exactly as with an
// in-process Broker.Publish) and its memoised SEND wire image goes
// straight to the connection's coalescing writer — no header map, no
// frame, and for repeated publishes of one event no re-encoding.
//
// One connection carries every publish, so the broker observes a client's
// publishes in publish order. With PublishWindow the SEND is
// receipt-tracked and pipelined on the window's connection; otherwise it
// is fire-and-forget.
//
// A publish the client can prove never reached the wire — the fail-fast
// rejection of an already-failed window, a validation failure, or an
// attribute named like a transport header (event.ErrTransportAttr: it
// would be stripped, or steer the frame, on the wire) — touches neither
// the connection nor the window's sticky error and leaves the event
// unfrozen (as Broker.Publish leaves rejected events mutable); any
// publish handed to a connection freezes it, because the bytes may be
// with the broker even when an error is reported.
func (c *Client) Publish(ev *event.Event) error {
	if c.win != nil {
		if err := c.win.stickyErr(); err != nil {
			return err
		}
	}
	// Encode, then freeze: SendImage is the validation gate and memoises
	// nothing when it refuses, so only an event about to be sent freezes.
	img, err := ev.SendImage()
	if err != nil {
		return err
	}
	ev.Freeze()
	if c.win != nil {
		return c.win.publish(img)
	}
	return c.conn.SendImage(img)
}

// Flush implements Bus. It blocks until every windowed publish accepted
// so far is confirmed by the broker, returning the first error the window
// hit (receipt refused, timed out, or connection lost; sticky — Flush and
// Publish keep reporting it, reconnect to recover). Then it takes one
// receipt on the subscription connection (stomp.Client.Sync), after which
// the broker has handled every fire-and-forget publish sent before it and
// every delivery the broker queued for this client until then has reached
// its handler. It must not be called from a delivery handler, whose read
// loop the receipt needs.
func (c *Client) Flush() error {
	if c.win != nil {
		if err := c.win.flush(); err != nil {
			return err
		}
	}
	return c.conn.Sync(c.cfg.SendTimeout)
}

// Subscribe implements Bus. Deliveries are decoded map-free: the STOMP
// frame view feeds event.UnmarshalView in a single pass, with body
// ownership handed to the event. With SubscribeCredit set, the
// SUBSCRIBE advertises a delivery window and a creditTracker replenishes
// it as deliveries are released.
func (c *Client) Subscribe(topic, sel string, handler Handler) (string, error) {
	var tr *creditTracker
	var extra map[string]string
	if c.cfg.SubscribeCredit > 0 {
		tr = &creditTracker{conn: c.conn, window: int64(c.cfg.SubscribeCredit), onError: c.cfg.OnError}
		tr.granted.Store(tr.window)
		tr.doneFn = tr.done
		extra = map[string]string{stomp.HdrCredit: strconv.Itoa(c.cfg.SubscribeCredit)}
	}
	var ot *offsetTracker
	if c.cfg.DurableGroup != "" || c.cfg.DurableOffset != "" {
		ot = &offsetTracker{conn: c.conn, credit: tr, onError: c.cfg.OnError}
		if extra == nil {
			extra = make(map[string]string, 2)
		}
		if c.cfg.DurableGroup != "" {
			extra[stomp.HdrGroup] = c.cfg.DurableGroup
		}
		if c.cfg.DurableOffset != "" {
			extra[stomp.HdrOffset] = c.cfg.DurableOffset
		}
	}
	raw, err := c.conn.SubscribeView(topic, sel, extra, func(v *stomp.FrameView) {
		if tr != nil && tr.subID == "" {
			// First delivery: the wire subscription id (which deliveries can
			// carry before SubscribeView even returns) names the grants.
			tr.subID = v.Headers.Header(stomp.HdrSubscription)
		}
		// A replayed delivery carries its journal offset; record it now so
		// the ack frontier tracks arrival order, and ack it when the
		// delivery is released (or immediately, if it cannot be decoded —
		// an undecodable frame must not stall the frontier forever).
		var off int64
		hasOff := false
		if ot != nil {
			if ot.subID == "" {
				ot.subID = v.Headers.Header(stomp.HdrSubscription)
			}
			if s := v.Headers.Header(stomp.HdrDeliveryOffset); s != "" {
				if n, perr := strconv.ParseInt(s, 10, 64); perr == nil {
					off, hasOff = n, true
					ot.delivered(n)
				}
			}
		}
		// Delivery unmarshal: the event comes from the delivery pool and
		// is recycled (Event.Release) when its consumer — the engine's
		// subscription worker — finishes the callback. Handlers must not
		// retain it past their own return.
		ev, err := event.UnmarshalViewDelivery(&v.Headers, v.Body, &c.cache)
		if err != nil {
			if tr != nil {
				// The broker spent a credit on this delivery; an undecodable
				// frame still consumes it, or the window would leak shut.
				tr.doneFn()
			}
			if hasOff {
				ot.released(off)
			}
			if c.cfg.OnError != nil {
				c.cfg.OnError(err)
			}
			return
		}
		switch {
		case hasOff && tr != nil:
			ev.NotifyRelease(func() { ot.released(off); tr.doneFn() })
		case hasOff:
			ev.NotifyRelease(func() { ot.released(off) })
		case tr != nil:
			ev.NotifyRelease(tr.doneFn)
		}
		handler(ev)
	})
	return raw, err
}

// Unsubscribe implements Bus.
func (c *Client) Unsubscribe(id string) error {
	return c.conn.Unsubscribe(id)
}

// Close implements Bus with a graceful disconnect of both connections.
// It is a publish barrier: outstanding windowed publishes are flushed
// first, so a producer that closes cleanly knows every accepted publish
// reached the broker — a window error (some publish was never confirmed)
// is reported in preference to disconnect errors.
func (c *Client) Close() error {
	var flushErr, pubErr error
	if c.win != nil {
		flushErr = c.win.flush()
		pubErr = c.win.conn.Disconnect(5 * time.Second)
	}
	return cmp.Or(flushErr, c.conn.Disconnect(5*time.Second), pubErr)
}
