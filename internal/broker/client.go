package broker

import (
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
	// SendTimeout bounds receipt-confirmed publishes; zero means
	// fire-and-forget SENDs.
	SendTimeout time.Duration
	// OnError receives asynchronous errors (decode failures, server
	// errors); nil drops them. With Shards > 1 it is invoked from every
	// shard's read goroutine, possibly concurrently, so it must be safe
	// for concurrent use.
	OnError func(error)
	// Shards is the number of STOMP connections this client spreads its
	// subscriptions across; 0 or 1 means a single connection (the default,
	// wire-identical to the pre-sharding client). Subscriptions are placed
	// round-robin and each lives wholly on one connection, so wire bytes
	// and per-subscription delivery order are unchanged; publishes always
	// travel on the first connection (unless PublishShards spreads them),
	// preserving publish order. Sharding pays off for subscription-heavy
	// consumers: frame decoding spreads across per-connection read loops
	// and broker-side encoding across per-session coalescing writers.
	Shards int

	// PublishWindow enables windowed asynchronous publishing when > 0:
	// every publish is a receipt-tracked SEND, and up to PublishWindow of
	// them may be in flight per publish connection before Publish blocks
	// on the oldest outstanding confirmation. Publishes still enter their
	// connection's single write queue in call order, so per-client (and
	// per-topic, under PublishShards) publish ordering is unchanged — the
	// window removes the per-publish round trip, not the ordering. The
	// first broker error (receipt timeout, connection loss, server
	// rejection) is sticky: later Publish calls fail fast with it and
	// Flush reports it. Zero keeps today's behaviour: a synchronous
	// receipt per publish when SendTimeout > 0, fire-and-forget SENDs
	// otherwise. SendTimeout bounds each windowed receipt wait (zero
	// means 10 seconds).
	//
	// Windowed publishes travel on dedicated connections, disjoint from
	// the subscription connections: a consumer stalled on a full engine
	// queue backpressures its connection's read loop, and a RECEIPT stuck
	// behind undelivered MESSAGE frames there would deadlock the window
	// against the very callback waiting on it.
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

	// PublishShards spreads publishes across that many connections,
	// mirroring Shards on the consumer side; 0 or 1 pins all publishes to
	// one connection (the default). Each topic is pinned to one
	// connection by hash, so per-topic publish order is preserved;
	// publishes to different topics may interleave differently than on a
	// single connection. Without PublishWindow the client dials
	// max(Shards, PublishShards) connections and publish traffic shares
	// the first PublishShards of them with subscriptions (wire-compatible
	// with the pre-sharding client); with PublishWindow the publish
	// connections are dialled in addition to the Shards subscription
	// connections (see PublishWindow).
	PublishShards int
}

// ErrUnknownSubscription is returned by Unsubscribe for an id this client
// did not mint. Sharded clients cannot pass unknown ids through to a
// connection: connection-local ids repeat across shards, so a blind
// forward could tear down an unrelated live subscription.
var ErrUnknownSubscription = errors.New("broker: unknown subscription id")

// Client is a Bus implementation over a remote STOMP broker. It lets an
// engine (or any producer/consumer) run in a different process or network
// zone from the broker, as in the paper's ECRIC deployment where the event
// broker is a separate service inside the Intranet (Fig. 4).
type Client struct {
	cfg      ClientConfig
	shards   []*clientShard
	subConns int // subscriptions round-robin across shards[:subConns]
	pubBase  int // publishes pinned by topic hash across shards[pubBase:pubBase+pubConns]
	pubConns int
	rr       atomic.Uint64 // round-robin subscription placement

	mu   sync.Mutex
	subs map[string]shardSub // qualified id -> placement
}

// clientShard is one STOMP connection of a sharded client, with the
// decode memos confined to its read loop.
type clientShard struct {
	conn *stomp.Client

	// cache memoises label-header parses and the topic string across this
	// shard's deliveries. All of the shard's subscription handlers run on
	// its connection read goroutine, so the cache is goroutine-confined.
	cache event.DecodeCache

	// win is the connection's publish window; nil unless PublishWindow is
	// enabled and this connection carries publishes.
	win *pubWindow
}

// pubWindow tracks the receipt-confirmed SENDs in flight on one publish
// connection. Receipts complete in send order (the broker processes a
// connection's frames sequentially), so the in-flight set is a FIFO and
// waiting on its head bounds the window. The first failure is sticky:
// once a receipt is refused, times out, or the connection dies, every
// later publish on this window fails fast with that error and Flush
// reports it — a windowed producer can pipeline without ever having an
// error swallowed between two Flush calls.
type pubWindow struct {
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
func (w *pubWindow) publish(conn *stomp.Client, img *stomp.WireImage) error {
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
	r, err := conn.SendImageAsync(img)
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
	// delivery's subscription header on the shard read goroutine before
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
	// the shard read goroutine, like creditTracker.subID.
	subID string

	mu      sync.Mutex
	pending []int64 // delivered offsets in arrival order (increasing)
	settled map[int64]bool
	acked   int64
}

// delivered records one replayed delivery's offset, in arrival order.
// Runs on the shard read goroutine before the handler sees the event.
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

// shardSub records where a subscription lives so Unsubscribe can route to
// the right connection.
type shardSub struct {
	shard int
	raw   string
}

var _ Bus = (*Client)(nil)

// DialBus connects to a broker server. It establishes
// max(cfg.Shards, cfg.PublishShards) STOMP connections (one by default),
// plus cfg.PublishShards dedicated publish connections when windowed
// publishing is enabled (see ClientConfig.PublishWindow).
func DialBus(addr string, cfg ClientConfig) (*Client, error) {
	subConns := cfg.Shards
	if subConns < 1 {
		subConns = 1
	}
	pubConns := cfg.PublishShards
	if pubConns < 1 {
		pubConns = 1
	}
	n, pubBase := subConns, 0
	if cfg.PublishWindow > 0 {
		// Windowed receipts must never queue behind undelivered MESSAGE
		// frames: publish connections are their own.
		n, pubBase = subConns+pubConns, subConns
	} else if pubConns > n {
		n = pubConns
	}
	c := &Client{cfg: cfg, subConns: subConns, pubBase: pubBase, pubConns: pubConns,
		subs: make(map[string]shardSub)}
	for i := 0; i < n; i++ {
		sc, err := stomp.Dial(addr, stomp.ClientConfig{
			Login:    cfg.Login,
			Passcode: cfg.Passcode,
			TLS:      cfg.TLS,
			OnError:  cfg.OnError,
		})
		if err != nil {
			for _, sh := range c.shards {
				_ = sh.conn.Close()
			}
			return nil, err
		}
		sh := &clientShard{conn: sc}
		if cfg.PublishWindow > 0 && i >= pubBase {
			sh.win = &pubWindow{size: cfg.PublishWindow, timeout: cfg.SendTimeout}
		}
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// Publish implements Bus via the one SEND encoding: the event is frozen
// (publishers must not mutate it afterwards, exactly as with an
// in-process Broker.Publish) and its memoised SEND wire image goes
// straight to the connection's coalescing writer — no header map, no
// frame, and for repeated publishes of one event no re-encoding.
//
// Publishes are pinned to the first connection — or, with PublishShards,
// to a per-topic connection — so the broker observes one client's
// publishes to a topic in publish order. With PublishWindow the SEND is
// receipt-tracked and pipelined; otherwise SendTimeout selects between a
// synchronous receipt and fire-and-forget.
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
	sh := c.shards[c.pubShard(ev.Topic)]
	if sh.win != nil {
		if err := sh.win.stickyErr(); err != nil {
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
	switch {
	case sh.win != nil:
		return sh.win.publish(sh.conn, img)
	case c.cfg.SendTimeout > 0:
		return sh.conn.SendImageReceipt(img, c.cfg.SendTimeout)
	default:
		return sh.conn.SendImage(img)
	}
}

// pubShard pins a topic to one publish connection.
func (c *Client) pubShard(topic string) int {
	if c.pubConns <= 1 {
		return c.pubBase
	}
	// FNV-1a over the topic: cheap, allocation-free, stable.
	h := uint32(2166136261)
	for i := 0; i < len(topic); i++ {
		h ^= uint32(topic[i])
		h *= 16777619
	}
	return c.pubBase + int(h%uint32(c.pubConns))
}

// Flush blocks until every windowed publish accepted so far is confirmed
// by the broker, returning the first error any publish connection hit
// (receipt refused, timed out, or connection lost). Without PublishWindow
// it is a no-op: synchronous and fire-and-forget publishes have nothing
// outstanding to settle. The error is sticky — once a window fails, Flush
// and Publish keep reporting it; reconnect to recover.
func (c *Client) Flush() error {
	var first error
	for _, sh := range c.shards {
		if sh.win == nil {
			continue
		}
		if err := sh.win.flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Subscribe implements Bus. The subscription is placed on one connection
// (round-robin across shards) and its deliveries are decoded map-free:
// the STOMP frame view feeds event.UnmarshalView in a single pass, with
// body ownership handed to the event. With SubscribeCredit set, the
// SUBSCRIBE advertises a delivery window and a creditTracker replenishes
// it as deliveries are released.
func (c *Client) Subscribe(topic, sel string, handler Handler) (string, error) {
	idx := 0
	if c.subConns > 1 {
		idx = int((c.rr.Add(1) - 1) % uint64(c.subConns))
	}
	sh := c.shards[idx]
	var tr *creditTracker
	var extra map[string]string
	if c.cfg.SubscribeCredit > 0 {
		tr = &creditTracker{conn: sh.conn, window: int64(c.cfg.SubscribeCredit), onError: c.cfg.OnError}
		tr.granted.Store(tr.window)
		tr.doneFn = tr.done
		extra = map[string]string{stomp.HdrCredit: strconv.Itoa(c.cfg.SubscribeCredit)}
	}
	var ot *offsetTracker
	if c.cfg.DurableGroup != "" || c.cfg.DurableOffset != "" {
		ot = &offsetTracker{conn: sh.conn, credit: tr, onError: c.cfg.OnError}
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
	raw, err := sh.conn.SubscribeView(topic, sel, extra, func(v *stomp.FrameView) {
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
		ev, err := event.UnmarshalViewDelivery(&v.Headers, v.Body, &sh.cache)
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
	if err != nil {
		return "", err
	}
	id := raw
	if c.subConns > 1 {
		// Connection-local ids ("sub-1") repeat across shards; qualify.
		id = "s" + strconv.Itoa(idx) + ":" + raw
	}
	c.mu.Lock()
	c.subs[id] = shardSub{shard: idx, raw: raw}
	c.mu.Unlock()
	return id, nil
}

// Unsubscribe implements Bus.
func (c *Client) Unsubscribe(id string) error {
	c.mu.Lock()
	ref, ok := c.subs[id]
	delete(c.subs, id)
	c.mu.Unlock()
	if !ok {
		if c.subConns > 1 {
			// An unqualified id must not be forwarded to an arbitrary
			// shard: connection-local ids ("sub-1") repeat across shards,
			// so shard 0 may hold a different live subscription under the
			// same id and a blind pass-through would tear it down while
			// stranding its c.subs entry.
			return ErrUnknownSubscription
		}
		// Single connection: pass through, preserving the behaviour for
		// ids minted directly on the underlying stomp client.
		return c.shards[0].conn.Unsubscribe(id)
	}
	return c.shards[ref.shard].conn.Unsubscribe(ref.raw)
}

// Close implements Bus with a graceful disconnect of every shard. It is
// a publish barrier: outstanding windowed publishes are flushed first, so
// a producer that closes cleanly knows every accepted publish reached the
// broker — a Flush error (some publish was never confirmed) is reported
// in preference to disconnect errors.
func (c *Client) Close() error {
	flushErr := c.Flush()
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *clientShard) {
			defer wg.Done()
			errs[i] = sh.conn.Disconnect(5 * time.Second)
		}(i, sh)
	}
	wg.Wait()
	if flushErr != nil {
		return flushErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
