package stomp

import (
	"errors"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolveWriteQueueLen(t *testing.T) {
	if n, err := resolveWriteQueueLen(0); err != nil || n != defaultWriteQueueLen {
		t.Errorf("resolveWriteQueueLen(0) = %d, %v; want %d, nil", n, err, defaultWriteQueueLen)
	}
	if n, err := resolveWriteQueueLen(7); err != nil || n != 7 {
		t.Errorf("resolveWriteQueueLen(7) = %d, %v; want 7, nil", n, err)
	}
	if _, err := resolveWriteQueueLen(-1); err == nil {
		t.Error("resolveWriteQueueLen(-1) accepted; want error")
	}
}

func TestServerRejectsBadWriteConfig(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", ServerConfig{
		Handler:       newEchoHandler(),
		WriteQueueLen: -1,
	}); err == nil {
		t.Error("NewServer accepted negative WriteQueueLen")
	}
	if _, err := NewServer("127.0.0.1:0", ServerConfig{
		Handler:      newEchoHandler(),
		WriteTimeout: -time.Second,
	}); err == nil {
		t.Error("NewServer accepted negative WriteTimeout")
	}
}

// sessionCapture is a SessionHandler that hands the accepted session to
// the test.
type sessionCapture struct {
	sessions chan *Session
}

func (h *sessionCapture) OnConnect(sess *Session, login string) error {
	h.sessions <- sess
	return nil
}
func (h *sessionCapture) OnFrameView(*Session, *FrameView) error { return nil }
func (h *sessionCapture) OnDisconnect(*Session)                  {}

func TestSessionQueueCapReflectsConfig(t *testing.T) {
	h := &sessionCapture{sessions: make(chan *Session, 1)}
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Handler:       h,
		Logf:          t.Logf,
		WriteQueueLen: 7,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr(), ClientConfig{Login: "u"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	select {
	case sess := <-h.sessions:
		if got := sess.QueueCap(); got != 7 {
			t.Errorf("QueueCap() = %d, want 7", got)
		}
		if got := sess.QueueDepth(); got < 0 || got > 7 {
			t.Errorf("QueueDepth() = %d, want 0..7", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no session accepted")
	}
}

// stalledWriter builds a frameWriter whose peer never reads: the writer
// goroutine picks up the first frame and wedges in the write, so the queue
// fills deterministically. The returned cleanup unblocks and joins the
// writer goroutine.
func stalledWriter(t *testing.T, queueLen int) (*frameWriter, func()) {
	t.Helper()
	server, client := net.Pipe()
	fw := newFrameWriter(server, queueLen, 0, nil)
	cleanup := func() {
		fw.kill()
		_ = server.Close() // unwedge the writer goroutine with an error
		_ = client.Close()
		<-fw.done
	}
	t.Cleanup(cleanup)
	return fw, cleanup
}

// delivery builds a routed MESSAGE delivery for subscription s1, the only
// evictable frame kind.
func delivery(body string, payload any) outFrame {
	img := NewMessageImage(map[string]string{HdrDestination: "/t"}, []byte(body))
	return outFrame{img: img, route: Route{Subscription: "s1", IDPrefix: "m-1-"}, payload: payload}
}

// wedge is a delivery whose body overflows the writer's 32 KiB buffer:
// encoding it writes through to the peer, so a writer whose peer does not
// read wedges inside write(), before drainQueued could take anything
// queued behind it.
func wedge(payload any) outFrame {
	return delivery(strings.Repeat("w", 40<<10), payload)
}

// wedgeWriter queues a wedge and waits until the writer has taken it off
// the queue. It is queued evictable, so it pins nothing.
func wedgeWriter(t *testing.T, fw *frameWriter, payload any) {
	t.Helper()
	if _, err := fw.enqueue(wedge(payload), EnqueueEvict); err != nil {
		t.Fatalf("send wedge: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(fw.ch) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up the first frame")
		}
		time.Sleep(time.Millisecond)
	}
}

// fillQueue sends frames until the writer has one frame wedged in its
// write and queueLen frames queued, i.e. the next enqueue would block.
func fillQueue(t *testing.T, fw *frameWriter, queueLen int) {
	t.Helper()
	mk := func(i int) outFrame { return delivery(string(rune('a'+i)), nil) }
	wedgeWriter(t, fw, nil)
	for i := 1; i <= queueLen; i++ {
		if err := fw.send(mk(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if len(fw.ch) != queueLen {
		t.Fatalf("queue depth %d after fill, want %d", len(fw.ch), queueLen)
	}
}

func TestEnqueueTryFullQueueDoesNotBlock(t *testing.T) {
	const queueLen = 4
	fw, _ := stalledWriter(t, queueLen)
	fillQueue(t, fw, queueLen)

	done := make(chan struct{})
	var ok bool
	var err error
	go func() {
		defer close(done)
		ok, err = fw.enqueue(delivery("x", nil), EnqueueTry)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("EnqueueTry blocked on a full queue")
	}
	if ok || err != nil {
		t.Errorf("EnqueueTry on full queue = %v, %v; want false, nil", ok, err)
	}
	if got := fw.highWater.Load(); got != queueLen {
		t.Errorf("high-water mark %d, want %d", got, queueLen)
	}
}

func TestEnqueueEvictEvictsDeliveriesNotControl(t *testing.T) {
	const queueLen = 2
	fw, _ := stalledWriter(t, queueLen)

	var mu sync.Mutex
	var evicted []outFrame
	fw.onEvict = func(of outFrame) {
		mu.Lock()
		evicted = append(evicted, of)
		mu.Unlock()
	}

	// Wedge the writer on a first delivery, then queue a control frame
	// (RECEIPT, no route) followed by an evictable delivery: the queue is
	// [control, B].
	wedgeWriter(t, fw, "A")
	receipt := NewFrame(CmdReceipt)
	receipt.SetHeader(HdrReceiptID, "r1")
	if err := fw.send(outFrame{f: receipt}); err != nil {
		t.Fatalf("send control: %v", err)
	}
	if _, err := fw.enqueue(delivery("b", "B"), EnqueueEvict); err != nil {
		t.Fatalf("send B: %v", err)
	}

	// Evicting enqueue of C: the control frame at the head must be
	// re-enqueued, delivery B evicted, C queued.
	done := make(chan error, 1)
	go func() {
		_, err := fw.enqueue(delivery("c", "C"), EnqueueEvict)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("EnqueueEvict: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EnqueueEvict blocked")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 1 {
		t.Fatalf("%d deliveries evicted, want 1 (got %+v)", len(evicted), evicted)
	}
	if evicted[0].payload != "B" || evicted[0].route.Subscription != "s1" {
		t.Errorf("evicted payload %v sub %q, want B s1", evicted[0].payload, evicted[0].route.Subscription)
	}
	// The queue must still hold the control frame (never evicted) and C.
	if len(fw.ch) != queueLen {
		t.Fatalf("queue depth %d, want %d", len(fw.ch), queueLen)
	}
	var kept []outFrame
	for len(fw.ch) > 0 {
		kept = append(kept, <-fw.ch)
	}
	foundControl, foundC := false, false
	for _, of := range kept {
		if of.f != nil && of.f.Command == CmdReceipt {
			foundControl = true
		}
		if of.payload == "C" {
			foundC = true
		}
	}
	if !foundControl || !foundC {
		t.Errorf("queue after drop-oldest kept control=%v C=%v, want both", foundControl, foundC)
	}
}

// TestEnqueueEvictKeepsPinnedDeliveries: a delivery not enqueued with
// EnqueueEvict (a durable feed's replay frame) is never evicted. While one
// is queued, an evicting enqueue drops and reports the incoming delivery,
// and the queue keeps its frames in order.
func TestEnqueueEvictKeepsPinnedDeliveries(t *testing.T) {
	const queueLen = 2
	fw, _ := stalledWriter(t, queueLen)
	var evicted []any
	fw.onEvict = func(of outFrame) { evicted = append(evicted, of.payload) }
	wedgeWriter(t, fw, "A")
	if err := fw.send(delivery("p", "P")); err != nil {
		t.Fatalf("send P: %v", err)
	}
	if _, err := fw.enqueue(delivery("b", "B"), EnqueueEvict); err != nil {
		t.Fatalf("send B: %v", err)
	}
	if ok, err := fw.enqueue(delivery("c", "C"), EnqueueEvict); !ok || err != nil {
		t.Fatalf("EnqueueEvict = %v, %v; want the delivery taken", ok, err)
	}
	if len(evicted) != 1 || evicted[0] != "C" {
		t.Errorf("dropped %v, want the incoming C alone", evicted)
	}
	var kept []any
	for len(fw.ch) > 0 {
		kept = append(kept, (<-fw.ch).payload)
	}
	if len(kept) != 2 || kept[0] != "P" || kept[1] != "B" {
		t.Errorf("queue holds %v, want [P B]", kept)
	}
}

// TestEnqueueEvictConcurrentPins: evicting enqueues racing a feed of
// pinned deliveries through a small queue never evict a pinned one, and
// the peer receives the whole feed in order; every evictable delivery is
// either received or reported dropped.
func TestEnqueueEvictConcurrentPins(t *testing.T) {
	const (
		pinned  = 300
		evictor = 300
	)
	server, client := net.Pipe()
	fw := newFrameWriter(server, 8, 0, nil)
	var dropped, droppedPinned atomic.Int64
	fw.onEvict = func(of outFrame) {
		dropped.Add(1)
		if of.route.Subscription == "p" {
			droppedPinned.Add(1)
		}
	}
	received := make(chan []string, 1)
	go func() {
		var got []string
		dec := NewDecoder(client)
		for {
			f, err := dec.Decode()
			if err != nil {
				received <- got
				return
			}
			got = append(got, f.Header(HdrSubscription)+"/"+string(f.Body))
		}
	}()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < pinned; i++ {
			of := delivery(strconv.Itoa(i), nil)
			of.route.Subscription = "p"
			if err := fw.send(of); err != nil {
				t.Errorf("send pinned %d: %v", i, err)
			}
		}
	}()
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < evictor; i++ {
				if _, err := fw.enqueue(delivery("e", nil), EnqueueEvict); err != nil {
					t.Errorf("EnqueueEvict: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if err := fw.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_ = server.Close()
	got := <-received
	next, evictable := 0, 0
	for _, r := range got {
		if r == "s1/e" {
			evictable++
			continue
		}
		if r != "p/"+strconv.Itoa(next) {
			t.Fatalf("pinned delivery #%d arrived as %q", next, r)
		}
		next++
	}
	if next != pinned || droppedPinned.Load() != 0 {
		t.Errorf("received %d of %d pinned deliveries, %d reported dropped", next, pinned, droppedPinned.Load())
	}
	if n := int64(evictable) + dropped.Load(); n != 2*evictor {
		t.Errorf("%d evictable deliveries received and %d dropped, want %d in all", evictable, dropped.Load(), 2*evictor)
	}
	if fw.pins.Load() != 0 {
		t.Errorf("%d pins left after the queue drained", fw.pins.Load())
	}
}

// TestWriteTimeoutFailsStalledPeer: with WriteTimeout set, a peer that
// stops reading fails the connection with a sticky deadline error instead
// of wedging the writer goroutine forever.
func TestWriteTimeoutFailsStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer peer.Close()
	if tc, ok := peer.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096) // bound what the kernel absorbs for the non-reader
	}
	var conn net.Conn
	select {
	case conn = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	defer conn.Close()

	errs := make(chan error, 1)
	fw := newFrameWriter(conn, 16, 100*time.Millisecond, func(err error) {
		select {
		case errs <- err:
		default:
		}
		_ = conn.Close()
	})
	defer func() {
		fw.kill()
		_ = conn.Close()
		<-fw.done
	}()

	// The peer never reads: pump large frames until the buffers fill, the
	// flush wedges, and the deadline fires.
	big := delivery(string(make([]byte, 32*1024)), nil)
	deadline := time.Now().Add(30 * time.Second)
	var sticky error
	for sticky == nil {
		if time.Now().After(deadline) {
			t.Fatal("write deadline never fired against a stalled peer")
		}
		if err := fw.send(big); err != nil {
			sticky = err
		}
	}
	if !errors.Is(sticky, os.ErrDeadlineExceeded) {
		t.Errorf("sticky error = %v, want deadline exceeded", sticky)
	}
	select {
	case err := <-errs:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("onError got %v, want deadline exceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("onError never fired")
	}
}
