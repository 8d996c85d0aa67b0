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
	// errors); nil drops them. On a client with a publish connection (see
	// PublishWindow and SubscribeCredit) it runs on the read goroutines of
	// both connections, possibly concurrently, so it must be safe for
	// concurrent use.
	OnError func(error)

	// PublishWindow enables windowed asynchronous publishing when > 0:
	// every publish is a receipt-tracked SEND, and up to PublishWindow of
	// them may be in flight before Publish blocks until the oldest is
	// confirmed. Publishes still enter the connection's
	// single write queue in call order, so publish ordering is unchanged —
	// the window removes the per-publish round trip, not the ordering. The
	// first broker error (receipt timeout, connection loss, server
	// rejection) is sticky: later Publish calls fail fast with it and
	// Flush reports it. Zero publishes fire-and-forget.
	//
	// Windowed publishes travel on a dedicated second connection, the
	// publish connection: a consumer stalled on a full engine queue
	// backpressures its subscription connection's read loop, and a RECEIPT
	// stuck behind undelivered MESSAGE frames there would deadlock the
	// window against the very callback waiting on it.
	PublishWindow int

	// SubscribeCredit arms credit-based flow control on every subscription
	// this client creates: each SUBSCRIBE advertises a delivery window of
	// that many messages, and the client replenishes it automatically as
	// deliveries complete — when the engine (or any consumer) releases a
	// delivery event (Event.Release), the client raises its cumulative
	// credit grant, which an ACK frame carries (one per release at idle,
	// one per write batch under load; see stomp.AckSlot). The broker
	// parks deliveries beyond the window server-side instead of flooding
	// the connection, so a consumer that falls behind sheds load at the
	// broker — before the write queue, where the overflow policy would
	// start dropping. Zero disables credit: wire behaviour is unchanged.
	//
	// A live credited client (no DurableGroup or DurableOffset) sends
	// every publish, fire-and-forget ones too, on the publish connection
	// PublishWindow uses, dialled even when PublishWindow is zero. The
	// broker may hold a publish until a full credit ring has room, and on
	// the subscription connection that wait would hold up the very grants
	// that make the room.
	SubscribeCredit int

	// DurableGroup, when non-empty, makes every subscription this client
	// creates a durable one: the SUBSCRIBE carries a group header, so the
	// broker feeds the subscription from the topic's journal, resuming at
	// the group's acked mark, and the client acks progress automatically
	// as deliveries are released (cumulative, on the same ACK frames as
	// credit grants when SubscribeCredit is also set). A grouped consumer
	// must ack: at most 4,096 of its deliveries can be unacked, and the
	// broker sends no more until an ack comes, so a handler that never
	// releases stalls its subscription there.
	// Durable topics must be configured on the server
	// (ServerConfig.Durable).
	DurableGroup string
	// DurableOffset, when non-empty, adds an explicit replay start to
	// every subscription: "earliest" or "next". It wins over the group's
	// acked mark; with DurableGroup empty it creates anonymous durable
	// subscriptions whose progress is not persisted. The client acks a
	// count of its own deliveries, not journal offsets, and the broker
	// refuses an absolute start: journal offsets never reach a consumer.
	DurableOffset string
}

// Client is a Bus implementation over a remote STOMP broker. It lets an
// engine (or any producer/consumer) run in a different process or network
// zone from the broker, as in the paper's ECRIC deployment where the event
// broker is a separate service inside the Intranet (Fig. 4). It is one
// STOMP connection, plus a publish connection when PublishWindow > 0 or a
// live subscription is credited.
type Client struct {
	cfg  ClientConfig
	conn *stomp.Client // subscriptions
	// pub carries every publish: conn itself, or the publish connection.
	pub *stomp.Client

	// cache memoises label-header parses and the topic string across
	// deliveries. Every subscription handler runs on conn's read
	// goroutine, so the cache is goroutine-confined.
	cache event.DecodeCache

	// win is the publish window on pub; nil unless PublishWindow > 0.
	win *pubWindow
}

// pubWindow counts the receipt-confirmed SENDs in flight on the publish
// connection. The broker answers a connection's frames in order, so a
// RECEIPT confirms every publish up to its number, and the window is
// last, the receipt number of the newest publish, less the connection's
// confirmed count: publish waits while that reaches size. The first
// failure is sticky: once a receipt is refused, times out, or the
// connection dies, every later publish on this window fails fast with
// that error and Flush reports it — a windowed producer can pipeline
// without ever having an error swallowed between two Flush calls.
type pubWindow struct {
	conn    *stomp.Client
	size    uint64
	timeout time.Duration

	mu   sync.Mutex
	last uint64 // receipt number of the newest publish
	err  error  // sticky first failure
}

// publish sends one image through the window, blocking while the window
// is full. The window mutex also serialises enqueueing, preserving the
// caller-observed publish order on the connection.
func (w *pubWindow) publish(img *stomp.WireImage) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.last >= w.size {
		w.waitLocked(w.last - w.size + 1)
	}
	if w.err != nil {
		return w.err
	}
	n, err := w.conn.SendImageAsync(img)
	if err != nil {
		w.err = fmt.Errorf("broker: windowed publish: %w", err)
		return w.err
	}
	w.last = n
	return nil
}

// waitLocked waits, unless the window has failed, until publish n is
// confirmed; a failure becomes the sticky error.
func (w *pubWindow) waitLocked(n uint64) {
	if w.err != nil {
		return
	}
	if err := w.conn.WaitReceipt(n, w.timeout); err != nil {
		w.err = fmt.Errorf("broker: windowed publish: %w", err)
	}
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

// flush waits until every publish is confirmed and returns the window's
// sticky error, if any.
func (w *pubWindow) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waitLocked(w.last)
	return w.err
}

// ackTracker turns the delivery-release lifecycle of one credited or
// grouped durable subscription into its connection's ack slot. Every
// delivery event carries a NotifyRelease hook, so a completed callback —
// Event.Release at the engine's callback-completion point — is what
// grants credit and acks progress, without wrapping the handler.
//
// The credit grant is the window plus the deliveries released so far.
// The offset ack is a count: the subscription's MESSAGEs are numbered
// from 1 in arrival order, and the frontier moves across the completed
// prefix only, because deliveries may complete out of order under a
// concurrent engine. Acking k states that the first k deliveries have
// finished processing; the broker maps k back to its journal. Both reach
// the slot as cumulative maxima, so a duplicate or reordered frame is a
// no-op on the broker.
type ackTracker struct {
	// slot is bound at the first delivery, on the connection read
	// goroutine, from its subscription header (deliveries can arrive
	// before SubscribeView returns the id); every release is downstream
	// of a delivery, so the write happens-before all reads.
	slot    *stomp.AckSlot
	window  int64 // credit window; zero when uncredited
	onError func(error)
	// release is the method value t.released, bound once, so a
	// NotifyRelease costs no allocation.
	release  func(int64)
	consumed atomic.Int64
	// arrived numbers the deliveries; only the read goroutine touches it.
	arrived int64

	mu       sync.Mutex
	frontier int64          // deliveries 1..frontier are released
	settled  map[int64]bool // released ahead of the frontier
}

// released completes delivery n (or a delivery without a number, n = 0)
// and hands the new frontier and grant to the slot.
func (t *ackTracker) released(n int64) {
	var frontier, grant int64
	if n > 0 {
		frontier = t.settle(n)
	}
	if t.window > 0 {
		grant = t.consumed.Add(1) + t.window
	}
	if err := t.slot.Ack(frontier, grant); err != nil && !errors.Is(err, net.ErrClosed) && t.onError != nil {
		t.onError(fmt.Errorf("broker: ack: %w", err))
	}
}

// settle marks delivery n released and returns the frontier past the
// released prefix, or 0 when an earlier delivery is unfinished.
func (t *ackTracker) settle(n int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n != t.frontier+1 {
		t.settled[n] = true
		return 0
	}
	for t.frontier = n; t.settled[t.frontier+1]; t.frontier++ {
		delete(t.settled, t.frontier+1)
	}
	return t.frontier
}

var _ Bus = (*Client)(nil)

// DialBus connects to a broker server: one STOMP connection, plus a
// dedicated publish connection when windowed publishing or live credit is
// enabled (see ClientConfig.PublishWindow and SubscribeCredit).
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
	c := &Client{cfg: cfg, conn: conn, pub: conn}
	liveCredit := cfg.SubscribeCredit > 0 && cfg.DurableGroup == "" && cfg.DurableOffset == ""
	if cfg.PublishWindow > 0 || liveCredit {
		if c.pub, err = dial(); err != nil {
			_ = conn.Close()
			return nil, err
		}
	}
	if cfg.PublishWindow > 0 {
		c.win = &pubWindow{conn: c.pub, size: uint64(cfg.PublishWindow), timeout: cfg.SendTimeout}
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
// receipt-tracked and pipelined on the publish connection; otherwise it
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
	return c.pub.SendImage(img)
}

// Flush implements Bus. It blocks until every windowed publish accepted
// so far is confirmed by the broker, returning the first error the window
// hit (receipt refused, timed out, or connection lost; sticky — Flush and
// Publish keep reporting it, reconnect to recover); without a window, a
// receipt on a separate publish connection (stomp.Client.Sync) does the
// same for its fire-and-forget publishes. Then it takes one receipt on the
// subscription connection, after which the broker has handled every
// fire-and-forget publish sent on it before the receipt and every delivery
// the broker queued for this client until then has reached its handler.
// It must not be called from a delivery handler, whose read loop the
// receipt needs.
func (c *Client) Flush() error {
	var err error
	switch {
	case c.win != nil:
		err = c.win.flush()
	case c.pub != c.conn:
		err = c.pub.Sync(c.cfg.SendTimeout)
	}
	if err != nil {
		return err
	}
	return c.conn.Sync(c.cfg.SendTimeout)
}

// Subscribe implements Bus. Deliveries are decoded map-free: the STOMP
// frame view feeds event.UnmarshalView in a single pass, with body
// ownership handed to the event. A credited or grouped durable
// subscription gets an ackTracker, which grants credit and acks progress
// as deliveries are released. An anonymous durable subscription acks no
// progress: the broker has no group to record it for.
func (c *Client) Subscribe(topic, sel string, handler Handler) (string, error) {
	extra := make(map[string]string, 3)
	if c.cfg.SubscribeCredit > 0 {
		extra[stomp.HdrCredit] = strconv.Itoa(c.cfg.SubscribeCredit)
	}
	if c.cfg.DurableGroup != "" {
		extra[stomp.HdrGroup] = c.cfg.DurableGroup
	}
	if c.cfg.DurableOffset != "" {
		extra[stomp.HdrOffset] = c.cfg.DurableOffset
	}
	var t *ackTracker
	if c.cfg.SubscribeCredit > 0 || c.cfg.DurableGroup != "" {
		t = &ackTracker{window: int64(c.cfg.SubscribeCredit), onError: c.cfg.OnError, settled: make(map[int64]bool)}
		t.release = t.released
	}
	return c.conn.SubscribeView(topic, sel, extra, func(v *stomp.FrameView) {
		var n int64
		if t != nil {
			if t.slot == nil {
				t.slot = c.conn.AckSlot(v.Headers.Header(stomp.HdrSubscription))
			}
			if c.cfg.DurableGroup != "" {
				t.arrived++
				n = t.arrived
			}
		}
		// Delivery unmarshal: the event comes from the delivery pool and
		// is recycled (Event.Release) when its consumer — the engine's
		// subscription worker — finishes the callback. Handlers must not
		// retain it past their own return.
		ev, err := event.UnmarshalViewDelivery(&v.Headers, v.Body, &c.cache)
		if err != nil {
			// The broker spent a credit on this delivery and its number
			// must not stall the frontier: an undecodable frame is
			// released at once.
			if t != nil {
				t.released(n)
			}
			if c.cfg.OnError != nil {
				c.cfg.OnError(err)
			}
			return
		}
		if t != nil {
			ev.NotifyRelease(t.release, n)
		}
		handler(ev)
	})
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
	}
	if c.pub != c.conn {
		pubErr = c.pub.Disconnect(5 * time.Second)
	}
	return cmp.Or(flushErr, c.conn.Disconnect(5*time.Second), pubErr)
}
