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

	"safeweb/internal/park"
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

// receiptSite is where WaitReceipt parks.
var receiptSite = park.NewSite("stomp.receipt")

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
// with a queue of 128 frames and no write deadline: whatever is queued
// while it writes is encoded back-to-back and flushed once, when the
// queue is drained.
//
// Receipts are a count. Every receipt-requesting frame takes the next
// number, from 1, under the lock that enqueues it, and the id on the wire
// is that decimal number. The broker handles a connection's frames in
// order and answers each after handling it, so RECEIPT n confirms every
// m ≤ n: the read loop keeps the highest number confirmed, and ignores a
// RECEIPT naming anything else than a number sent.
type Client struct {
	cfg  ClientConfig
	conn net.Conn
	fw   *frameWriter

	mu      sync.Mutex
	subs    map[string]MessageViewHandler
	nextID  uint64
	closed  bool
	closing bool // DISCONNECT sent: the read loop's EOF is not an error

	// numberMu orders taking a receipt number with enqueueing its frame;
	// last is the newest number taken. confirmed moves only on the read
	// loop, which wakes receipts when it does.
	numberMu  sync.Mutex
	last      atomic.Uint64
	confirmed atomic.Uint64
	receipts  park.Gate

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
	return c.fw.send(outFrame{f: f})
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
			c.confirm(rb)
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
// seconds).
func (c *Client) SendImageReceipt(img *WireImage, timeout time.Duration) error {
	n, err := c.SendImageAsync(img)
	if err != nil {
		return err
	}
	return c.WaitReceipt(n, timeout)
}

// SendImageAsync enqueues a receipt-carrying SEND image and returns its
// receipt number at once, for windowed publishing: the caller pipelines
// further sends and settles confirmations later with WaitReceipt. The
// writer encodes the number straight into the frame.
func (c *Client) SendImageAsync(img *WireImage) (uint64, error) {
	return c.sendNumbered(outFrame{img: img})
}

// sendNumbered enqueues of with the next receipt number: a Frame carries
// it as its receipt header, a SEND image as the number the writer
// splices in. numberMu is held across the enqueue, even one waiting on a
// full queue, because numbers must reach the queue in order; it delays
// only other receipt senders, who would wait for the same queue.
func (c *Client) sendNumbered(of outFrame) (uint64, error) {
	c.numberMu.Lock()
	defer c.numberMu.Unlock()
	n := c.last.Load() + 1
	if of.f != nil {
		of.f.SetHeader(HdrReceipt, strconv.FormatUint(n, 10))
	} else {
		of.receiptNo = n
	}
	// Taken before the enqueue, so its RECEIPT cannot arrive first.
	c.last.Store(n)
	return n, c.fw.send(of)
}

// confirm raises the confirmed count to the number a RECEIPT names and
// wakes the waiters. An id that is not a number this connection sent, or
// not above the count, changes nothing.
func (c *Client) confirm(id []byte) {
	n := receiptNumber(id)
	if n == 0 || n > c.last.Load() || n <= c.confirmed.Load() {
		return
	}
	c.confirmed.Store(n)
	c.receipts.Wake()
}

// WaitReceipt blocks until receipt n is confirmed — by RECEIPT n or any
// later one — the connection dies, or the timeout elapses (zero means 10
// seconds). A confirmation that already arrived wins over a concurrent
// teardown.
func (c *Client) WaitReceipt(n uint64, timeout time.Duration) error {
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	err := c.receipts.Wait(func() bool { return c.confirmed.Load() >= n }, c.readDone, timeout, receiptSite)
	if errors.Is(err, park.ErrDeadline) {
		return fmt.Errorf("stomp: receipt %d timed out after %v", n, timeout)
	}
	return err
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

// sendWithReceipt attaches the next receipt number, sends, and waits.
func (c *Client) sendWithReceipt(f *Frame, timeout time.Duration) error {
	n, err := c.sendNumbered(outFrame{f: f})
	if err != nil {
		return err
	}
	return c.WaitReceipt(n, timeout)
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
