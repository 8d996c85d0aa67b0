package stomp

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"safeweb/internal/park"
)

// closeFlushTimeout bounds the final drain of a connection's write queue
// at close: a peer that stopped reading must not wedge teardown behind a
// full TCP buffer. close() arms it as a write deadline on the connection.
const closeFlushTimeout = 2 * time.Second

// defaultWriteQueueLen is the per-connection send queue length when the
// configuration does not override it. A full queue blocks senders,
// propagating back-pressure to the goroutines producing frames (typically
// a peer connection's read loop) — unless the sender chose the
// non-blocking EnqueueTry.
const defaultWriteQueueLen = 128

// enqueueSite is where a sender parks on a full write queue.
var enqueueSite = park.NewSite("stomp.enqueue")

// resolveWriteQueueLen maps a configured queue length to the effective
// one: zero selects the default, negative values are rejected so a
// misconfigured connection fails at construction instead of panicking (or
// silently degrading) at its first send.
func resolveWriteQueueLen(n int) (int, error) {
	switch {
	case n == 0:
		return defaultWriteQueueLen, nil
	case n < 0:
		return 0, fmt.Errorf("stomp: write queue length must be positive, got %d", n)
	}
	return n, nil
}

// EnqueueMode selects what an enqueue does when the connection's write
// queue is full. The mechanics live in frameWriter.enqueue; the decision
// of which mode a delivery deserves belongs to the caller (the broker's
// overflow policy).
type EnqueueMode uint8

const (
	// EnqueueBlock waits for the writer to drain: lossless back-pressure.
	EnqueueBlock EnqueueMode = iota
	// EnqueueTry fails fast: a full queue reports "not queued" and leaves
	// the overflow decision — drop, count, evict the session — to the
	// caller. Nothing already queued is ever dropped.
	EnqueueTry
)

// outFrame is one queued frame in exactly one of five kinds: a control
// frame (f set) encoded in full; a routed MESSAGE delivery (img set and
// route naming a subscription), where only the route's per-delivery
// headers are encoded around the shared preencoded image; a producer
// SEND image (img set, no subscription) with receiptNo, when non-zero,
// spliced in as its receipt header; an ACK (ack set), encoded from the
// slot's values when the writer reaches it; or a RECEIPT (none of f, img
// and ack), confirming the id receiptNo when it is non-zero — a canonical
// decimal id travels as its number — and the id string receipt
// otherwise. ACK and RECEIPT are control frames the encoder emits from
// its scratch buffer.
type outFrame struct {
	f         *Frame
	img       *WireImage
	ack       *AckSlot
	route     Route
	receipt   string
	receiptNo uint64
}

// frameWriter is the write-coalescing frame sink of one connection. Sends
// enqueue frames; a single writer goroutine encodes them with a reused
// Encoder into a 32 KiB buffered writer. It flushes when it has drained
// the queue, or when the buffer fills, and at no other time: N frames
// queued while the writer was busy — MESSAGE bursts, RECEIPTs, ACKs —
// cost ~1 syscall instead of N, and a frame queued to an idle writer
// leaves at once. Ordering is preserved unconditionally by the single
// queue.
//
// The first write error is sticky: it is reported once to onError (which
// should close the connection so the read side unblocks too), later sends
// fail fast with it, and already-queued frames are discarded. After the
// error the writer goroutine keeps draining (and discarding) the queue
// until close, so blocked senders always make progress.
//
// With writeTimeout > 0 every write/flush runs under a deadline armed on
// the connection, so a peer that stops reading fails the connection with
// a sticky deadline error instead of wedging the writer goroutine (and
// everything blocked behind its queue) forever.
type frameWriter struct {
	conn         net.Conn
	bw           *bufio.Writer
	enc          Encoder
	writeTimeout time.Duration

	ch chan outFrame
	// stop is closed by shut() before it takes mu: a sender parked on the
	// full queue gives up with net.ErrClosed, so it never holds mu's read
	// side across a peer that stopped reading.
	stop     chan struct{}
	stopOnce sync.Once
	quit     chan struct{} // closed by shut() under mu; run() drains and exits
	done     chan struct{} // closed when the writer goroutine exits

	// highWater tracks the deepest queue occupancy observed at enqueue
	// time — the slow-consumer early-warning signal surfaced in stats.
	highWater atomic.Int64

	// mu fences enqueue against close: senders hold the read side across
	// the enqueue, so once close() holds the write side and sets closed,
	// no frame can slip into ch after run()'s final drain — an accepted
	// frame is always written (or discarded visibly via the sticky error).
	mu     sync.RWMutex
	closed bool

	err     atomic.Pointer[error]
	onError func(error)
}

// newFrameWriter starts the writer goroutine for conn. queueLen must be
// positive (callers resolve configuration via resolveWriteQueueLen);
// writeTimeout zero disables the per-flush deadline.
func newFrameWriter(conn net.Conn, queueLen int, writeTimeout time.Duration, onError func(error)) *frameWriter {
	if queueLen <= 0 {
		panic("stomp: newFrameWriter queue length must be positive")
	}
	fw := &frameWriter{
		conn:         conn,
		bw:           bufio.NewWriterSize(conn, 32*1024),
		writeTimeout: writeTimeout,
		ch:           make(chan outFrame, queueLen),
		stop:         make(chan struct{}),
		quit:         make(chan struct{}),
		done:         make(chan struct{}),
		onError:      onError,
	}
	go fw.run()
	return fw
}

// send enqueues a control frame, blocking while the queue is full.
func (fw *frameWriter) send(of outFrame) error {
	_, err := fw.enqueue(of, EnqueueBlock)
	return err
}

// enqueue puts a frame on the queue under the given mode and reports
// whether it was queued; only EnqueueTry can report (false, nil) — a full
// queue it declined to wait for. It fails fast after a write error or
// close. Queued means accepted, not that the frame reached the peer;
// callers needing confirmation use receipts.
//
// An enqueue parked on a full queue holds fw.mu's read side, which
// close() needs for its write side. close() closes stop first, which
// ends the park with net.ErrClosed, so teardown never waits on the peer.
func (fw *frameWriter) enqueue(of outFrame, mode EnqueueMode) (bool, error) {
	if ep := fw.err.Load(); ep != nil {
		return false, *ep
	}
	fw.mu.RLock()
	defer fw.mu.RUnlock()
	if fw.closed {
		return false, net.ErrClosed
	}
	if mode == EnqueueTry {
		select {
		case fw.ch <- of:
		default:
			return false, nil
		}
	} else if err := park.Send(fw.ch, of, fw.stop, enqueueSite); err != nil {
		return false, err
	}
	fw.noteDepth()
	return true, nil
}

// noteDepth folds the post-enqueue queue depth into the high-water mark.
// Steady state is a single load (depth below the mark), so the fan-out
// fast path pays no CAS once the mark stabilises.
func (fw *frameWriter) noteDepth() {
	d := int64(len(fw.ch))
	for {
		cur := fw.highWater.Load()
		if d <= cur || fw.highWater.CompareAndSwap(cur, d) {
			return
		}
	}
}

// close stops accepting frames, waits for the queue to drain and flush,
// and returns the sticky write error, if any. The drain is bounded by a
// write deadline armed here (closeFlushTimeout), so a peer that stopped
// reading cannot wedge teardown. Idempotent and safe from any goroutine
// except the writer's own.
func (fw *frameWriter) close() error {
	fw.shut(true)
	<-fw.done
	if ep := fw.err.Load(); ep != nil {
		return *ep
	}
	return nil
}

// kill is close without the drain guarantee: it marks the writer closed
// and returns without waiting for the goroutine to exit — the
// slow-consumer eviction path, safe to call from a publishing goroutine.
// The caller must close the connection first so a flush wedged on the
// dead peer unblocks with an error; the writer goroutine then drains the
// queue into the sticky error and exits on its own.
func (fw *frameWriter) kill() { fw.shut(false) }

// shut ends every parked enqueue, arming the close drain's write deadline
// first when flushDeadline is set, and only then takes mu to mark the
// writer closed and tell run to drain and exit.
func (fw *frameWriter) shut(flushDeadline bool) {
	fw.stopOnce.Do(func() {
		if flushDeadline {
			_ = fw.conn.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
		}
		close(fw.stop)
		fw.mu.Lock()
		fw.closed = true
		close(fw.quit)
		fw.mu.Unlock()
	})
}

func (fw *frameWriter) run() {
	defer close(fw.done)
	for {
		select {
		case of := <-fw.ch:
			fw.write(of)
			fw.drainQueued()
			fw.flush()
		case <-fw.quit:
			fw.drainQueued()
			fw.flush()
			return
		}
	}
}

// drainQueued writes every frame already sitting in the queue without
// blocking for more; the caller flushes once afterwards. This is the
// coalescing step: everything queued behind the frame that woke the
// writer shares its flush.
func (fw *frameWriter) drainQueued() {
	for {
		select {
		case of := <-fw.ch:
			fw.write(of)
		default:
			return
		}
	}
}

func (fw *frameWriter) write(of outFrame) {
	if fw.err.Load() != nil {
		return // connection is dead; discard
	}
	fw.armDeadline()
	var err error
	switch {
	case of.ack != nil:
		err = fw.enc.encodeAck(fw.bw, of.ack)
	case of.img == nil && of.f == nil:
		err = fw.enc.encodeReceipt(fw.bw, of.receipt, of.receiptNo)
	case of.img == nil:
		err = fw.enc.Encode(fw.bw, of.f)
	case of.route.Subscription != "":
		err = fw.enc.encodeRouted(fw.bw, of.img, of.route)
	default:
		err = fw.enc.encodeSend(fw.bw, of.img, of.receipt, of.receiptNo)
	}
	if err != nil {
		fw.fail(err)
	}
}

func (fw *frameWriter) flush() {
	if fw.err.Load() != nil {
		return
	}
	fw.armDeadline()
	if err := fw.bw.Flush(); err != nil {
		fw.fail(err)
	}
}

// armDeadline (re)arms the per-flush write deadline. It is refreshed
// before every frame encode and every flush, so a peer making progress is
// never penalised for the size of a batch, while a peer that stops
// reading fails the connection within writeTimeout of the writer's next
// blocked write. During the close drain this may extend (or tighten) the
// deadline close() armed; either way every write stays bounded.
func (fw *frameWriter) armDeadline() {
	if fw.writeTimeout > 0 {
		_ = fw.conn.SetWriteDeadline(time.Now().Add(fw.writeTimeout))
	}
}

func (fw *frameWriter) fail(err error) {
	fw.err.Store(&err)
	if fw.onError != nil {
		fw.onError(err)
	}
}
