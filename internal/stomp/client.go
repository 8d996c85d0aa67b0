package stomp

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MessageViewHandler consumes the MESSAGE frames delivered to one
// subscription as decoder views, with no header map. Handlers run on the
// client's read goroutine; long-running work should be handed off by the
// caller (SafeWeb's engine runs callbacks on their own goroutines,
// mirroring the paper's per-callback threads). The view and its headers
// are invalid once the handler returns (the next decode reuses the scratch
// buffer), while the body's ownership transfers to the handler.
type MessageViewHandler func(v *FrameView)

// connectTimeout bounds dialing and the CONNECT handshake.
const connectTimeout = 10 * time.Second

// ClientConfig configures a Client.
type ClientConfig struct {
	// Login identifies the principal; the broker uses it for policy
	// lookups.
	Login string
	// Passcode authenticates the login.
	Passcode string
	// TLS, when non-nil, dials with TLS.
	TLS *tls.Config
	// OnError receives server ERROR frames and read-loop failures; nil
	// drops them.
	OnError func(err error)
}

// Client is a STOMP client connection. All methods are safe for concurrent
// use. Outbound frames pass through a write-coalescing writer goroutine
// with a queue of 128 frames and no write deadline: bursts of SEND frames
// are encoded back-to-back and flushed once per batch, while control
// frames (SUBSCRIBE, DISCONNECT, anything carrying a receipt request)
// flush immediately.
type Client struct {
	cfg  ClientConfig
	conn net.Conn
	fw   *frameWriter

	mu       sync.Mutex
	subs     map[string]MessageViewHandler
	receipts map[string]chan struct{}
	nextID   uint64
	closed   bool
	closing  bool // DISCONNECT sent: the read loop's EOF is not an error

	// inHandler is set while the read loop runs a subscription handler. A
	// SubscribeView issued from inside a handler cannot wait for its RECEIPT
	// (only the read loop could deliver it), so it degrades to an
	// unconfirmed subscribe instead of deadlocking.
	inHandler atomic.Bool

	readDone chan struct{}
}

// Dial connects and performs the CONNECT handshake.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	dialer := &net.Dialer{Timeout: connectTimeout}
	var conn net.Conn
	var err error
	if cfg.TLS != nil {
		conn, err = tls.DialWithDialer(dialer, "tcp", addr, cfg.TLS)
	} else {
		conn, err = dialer.Dial("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("stomp: dial %s: %w", addr, err)
	}

	c := &Client{
		cfg:      cfg,
		conn:     conn,
		subs:     make(map[string]MessageViewHandler),
		receipts: make(map[string]chan struct{}),
		readDone: make(chan struct{}),
	}
	// A write error kills the connection so the read loop unblocks and
	// reports through OnError; the writer goroutine must not wait on
	// Close (which waits on it in turn).
	c.fw = newFrameWriter(conn, defaultWriteQueueLen, 0, func(error) { _ = conn.Close() })
	fail := func(err error) (*Client, error) {
		_ = conn.Close()
		_ = c.fw.close()
		return nil, err
	}

	connect := NewFrame(CmdConnect)
	connect.SetHeader(HdrLogin, cfg.Login)
	connect.SetHeader(HdrPasscode, cfg.Passcode)
	connect.SetHeader("accept-version", "1.1")
	if err := c.writeFrame(connect); err != nil {
		return fail(err)
	}

	// Await CONNECTED synchronously before starting the dispatch loop.
	if err := conn.SetReadDeadline(time.Now().Add(connectTimeout)); err != nil {
		return fail(fmt.Errorf("stomp: set deadline: %w", err))
	}
	dec := NewDecoder(conn)
	resp, err := dec.Decode()
	if err != nil {
		return fail(fmt.Errorf("stomp: handshake: %w", err))
	}
	switch resp.Command {
	case CmdConnected:
	case CmdError:
		return fail(fmt.Errorf("stomp: connection refused: %s: %s", resp.Header(HdrMessage), resp.Body))
	default:
		return fail(protoErrorf("expected CONNECTED, got %s", resp.Command))
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return fail(fmt.Errorf("stomp: clear deadline: %w", err))
	}

	go c.readLoop(dec)
	return c, nil
}

func (c *Client) writeFrame(f *Frame) error {
	return c.fw.send(outFrame{f: f, flush: frameNeedsFlush(f)})
}

func (c *Client) readLoop(dec *Decoder) {
	defer close(c.readDone)
	// The connection is dead once the read loop exits; shut the writer
	// down too so an abandoned Client (caller never invokes Close after
	// OnError) does not leak the writer goroutine and its buffers.
	defer func() { _ = c.fw.close() }()
	for {
		v, err := dec.DecodeView()
		if err != nil {
			c.mu.Lock()
			closed := c.closed || c.closing
			c.mu.Unlock()
			if !closed && c.cfg.OnError != nil {
				c.cfg.OnError(fmt.Errorf("stomp: read: %w", err))
			}
			return
		}
		switch v.Command {
		case CmdMessage:
			sb, _ := v.Headers.GetBytes(HdrSubscription)
			c.mu.Lock()
			h := c.subs[string(sb)] // compiler elides the conversion
			c.mu.Unlock()
			if h != nil {
				c.inHandler.Store(true)
				h(v)
				c.inHandler.Store(false)
			}
		case CmdReceipt:
			rb, _ := v.Headers.GetBytes(HdrReceiptID)
			c.mu.Lock()
			ch := c.receipts[string(rb)]
			delete(c.receipts, string(rb))
			c.mu.Unlock()
			if ch != nil {
				close(ch)
			}
		case CmdError:
			if c.cfg.OnError != nil {
				c.cfg.OnError(fmt.Errorf("stomp: server error: %s: %s", v.Headers.Header(HdrMessage), v.Body))
			}
		}
	}
}

// SendImage publishes a preencoded SEND image, fire-and-forget. The image
// is written as-is by the connection's coalescing writer — no header map,
// no frame, no per-publish marshalling on the client goroutine.
func (c *Client) SendImage(img *WireImage) error {
	return c.fw.send(outFrame{img: img})
}

// SendImageReceipt is SendImage with a receipt: it blocks until the
// broker confirms processing or the timeout elapses (zero means 10
// seconds). Like every synchronous receipt send it flushes immediately —
// the caller is already waiting, so batching would only add latency.
func (c *Client) SendImageReceipt(img *WireImage, timeout time.Duration) error {
	r, err := c.sendImageReceipt(img, true)
	if err != nil {
		return err
	}
	return r.Wait(timeout)
}

// Receipt tracks one receipt-confirmed frame in flight, for windowed
// asynchronous publishing: the caller pipelines further sends and settles
// confirmations later via Wait. Receipts for one connection complete in
// send order (the broker processes frames sequentially), so waiting on
// the oldest outstanding receipt bounds the whole window.
type Receipt struct {
	c  *Client
	id string
	ch chan struct{}
}

// SendImageAsync enqueues a receipt-carrying SEND image and returns
// immediately with the pending receipt. Unlike the synchronous receipt
// paths it does not force a flush: nothing blocks on this frame yet, so
// it coalesces with the rest of the burst (the writer still flushes once
// per drained batch).
func (c *Client) SendImageAsync(img *WireImage) (*Receipt, error) {
	return c.sendImageReceipt(img, false)
}

func (c *Client) sendImageReceipt(img *WireImage, flush bool) (*Receipt, error) {
	rid, ch, err := c.registerReceipt()
	if err != nil {
		return nil, err
	}
	if err := c.fw.send(outFrame{img: img, receipt: rid, flush: flush}); err != nil {
		c.dropReceipt(rid)
		return nil, err
	}
	return &Receipt{c: c, id: rid, ch: ch}, nil
}

// registerReceipt mints a receipt id and registers its wait channel; the
// single receipt lifecycle shared by the synchronous and windowed paths.
func (c *Client) registerReceipt() (string, chan struct{}, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", nil, net.ErrClosed
	}
	c.nextID++
	var buf [len("rcpt-") + 20]byte // 20 digits hold any uint64
	rid := string(strconv.AppendUint(append(buf[:0], "rcpt-"...), c.nextID, 10))
	ch := make(chan struct{})
	c.receipts[rid] = ch
	return rid, ch, nil
}

// dropReceipt deregisters a receipt that will never be waited on again.
func (c *Client) dropReceipt(rid string) {
	c.mu.Lock()
	delete(c.receipts, rid)
	c.mu.Unlock()
}

// Done returns a channel closed when the broker's RECEIPT arrives. It
// does not observe connection failure; use Wait for that.
func (r *Receipt) Done() <-chan struct{} { return r.ch }

// Wait blocks until the broker confirms the frame, the connection dies,
// or the timeout elapses (zero means 10 seconds). A confirmation that
// already arrived wins over a concurrent connection teardown.
func (r *Receipt) Wait(timeout time.Duration) error {
	select {
	case <-r.ch:
		return nil
	default:
	}
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-r.ch:
		return nil
	case <-r.c.readDone:
		// The read loop may have delivered the receipt just before dying.
		select {
		case <-r.ch:
			return nil
		default:
		}
		return net.ErrClosed
	case <-timer.C:
		r.c.dropReceipt(r.id)
		return fmt.Errorf("stomp: receipt %s timed out after %v", r.id, timeout)
	}
}

// SubscribeView registers a subscription on a destination with an
// optional SQL-92 selector and extra headers (SafeWeb's engine adds the
// clearance header here). It returns the subscription id. "Subscriptions
// include unique identifiers to simplify the handling of subscriptions
// issued by different units" (§4.2). Delivered MESSAGE frames reach the
// handler as decoder views; see MessageViewHandler for their lifetime.
//
// The SUBSCRIBE frame is receipt-confirmed: SubscribeView returns only
// after the broker has processed the registration, so events published on
// other connections afterwards cannot race past the subscription. The
// confirmation arrives on the read loop, so a SubscribeView issued from
// within a handler skips the wait (fire-and-forget) rather than
// deadlocking against itself.
func (c *Client) SubscribeView(destination, sel string, extraHeaders map[string]string, handler MessageViewHandler) (string, error) {
	if handler == nil {
		return "", errors.New("stomp: nil subscription handler")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", net.ErrClosed
	}
	c.nextID++
	id := "sub-" + strconv.FormatUint(c.nextID, 10)
	c.subs[id] = handler
	c.mu.Unlock()

	f := NewFrame(CmdSubscribe)
	f.SetHeader(HdrID, id)
	f.SetHeader(HdrDestination, destination)
	if sel != "" {
		f.SetHeader(HdrSelector, sel)
	}
	for k, v := range extraHeaders {
		f.SetHeader(k, v)
	}
	err := error(nil)
	if c.inHandler.Load() {
		err = c.writeFrame(f)
	} else {
		err = c.sendWithReceipt(f, 10*time.Second)
	}
	if err != nil {
		c.mu.Lock()
		delete(c.subs, id)
		c.mu.Unlock()
		return "", err
	}
	return id, nil
}

// Unsubscribe cancels a subscription by id.
func (c *Client) Unsubscribe(id string) error {
	c.mu.Lock()
	delete(c.subs, id)
	c.mu.Unlock()
	f := NewFrame(CmdUnsubscribe)
	f.SetHeader(HdrID, id)
	return c.writeFrame(f)
}

// sendWithReceipt attaches a receipt header, sends, and waits.
func (c *Client) sendWithReceipt(f *Frame, timeout time.Duration) error {
	rid, ch, err := c.registerReceipt()
	if err != nil {
		return err
	}
	f.SetHeader(HdrReceipt, rid)
	if err := c.writeFrame(f); err != nil {
		c.dropReceipt(rid)
		return err
	}
	r := Receipt{c: c, id: rid, ch: ch}
	return r.Wait(timeout)
}

// Sync returns once the broker has handled every frame this connection
// sent before it, and every frame the broker queued for the connection
// until then has been read and its handler run. It takes one receipt on a
// frame the broker treats as a no-op: an UNSUBSCRIBE of an id outside the
// "sub-N" namespace. It must not be called from a subscription handler,
// whose read loop the receipt needs. A zero timeout means 10 seconds.
func (c *Client) Sync(timeout time.Duration) error {
	f := NewFrame(CmdUnsubscribe)
	f.SetHeader(HdrID, "sync")
	return c.sendWithReceipt(f, timeout)
}

// AckSlot is one subscription's acknowledgement state on a client
// connection: the cumulative offset ack (a count of processed deliveries)
// and credit grant the consumer has reached, and whether an ACK frame
// carrying them is queued. A release stores the new values and queues the
// slot only when it is not already queued; the connection writer reads
// the values when it reaches the slot, so every release between the
// enqueue and the encode folds into one frame. An idle connection still
// sends one ACK per release, while a busy one sends one per drained write
// batch. Both values are cumulative maxima, so the broker applies the
// frame as it would any ACK.
type AckSlot struct {
	fw     *frameWriter
	sub    string
	offset atomic.Int64 // cumulative delivery count; 0 sends no offset header
	credit atomic.Int64 // cumulative credit grant; 0 sends no credit header
	queued atomic.Bool
}

// AckSlot returns a new ack slot for the subscription on this connection.
func (c *Client) AckSlot(subscription string) *AckSlot {
	return &AckSlot{fw: c.fw, sub: subscription}
}

// Ack raises the slot's offset ack to offset and its credit grant to
// credit (a value not above the current one changes nothing) and, if
// either moved and no ACK for the slot is queued, queues one. It is safe
// for concurrent use and never blocks on more than the queue.
func (s *AckSlot) Ack(offset, credit int64) error {
	moved := raise(&s.offset, offset)
	if !raise(&s.credit, credit) && !moved {
		return nil
	}
	if !s.queued.CompareAndSwap(false, true) {
		return nil // the queued frame has yet to load the values
	}
	return s.fw.send(outFrame{ack: s})
}

// raise stores v in a if it is larger, reporting whether it did.
func raise(a *atomic.Int64, v int64) bool {
	for cur := a.Load(); v > cur; cur = a.Load() {
		if a.CompareAndSwap(cur, v) {
			return true
		}
	}
	return false
}

// Disconnect performs a graceful DISCONNECT with receipt, then closes.
// The connection's end that follows is expected, so it is not reported
// through OnError.
func (c *Client) Disconnect(timeout time.Duration) error {
	c.mu.Lock()
	c.closing = true
	c.mu.Unlock()
	f := NewFrame(CmdDisconnect)
	err := c.sendWithReceipt(f, timeout)
	closeErr := c.Close()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return closeErr
}

// Close tears the connection down, draining already-queued frames under
// the writer's close deadline so a stalled broker cannot wedge teardown.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	_ = c.fw.close()
	err := c.conn.Close()
	<-c.readDone
	return err
}
