package stomp

import (
	"errors"
	"net"
	"os"
	"strings"
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

// delivery builds a routed MESSAGE delivery for subscription s1.
func delivery(body string) outFrame {
	img := NewMessageImage(map[string]string{HdrDestination: "/t"}, []byte(body))
	return outFrame{img: img, route: Route{Subscription: "s1", IDPrefix: "m-1-"}}
}

// wedge is a delivery whose body overflows the writer's 32 KiB buffer:
// encoding it writes through to the peer, so a writer whose peer does not
// read wedges inside write(), before drainQueued could take anything
// queued behind it.
func wedge() outFrame {
	return delivery(strings.Repeat("w", 40<<10))
}

// wedgeWriter queues a wedge and waits until the writer has taken it off
// the queue.
func wedgeWriter(t *testing.T, fw *frameWriter) {
	t.Helper()
	if _, err := fw.enqueue(wedge(), EnqueueBlock); err != nil {
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
	mk := func(i int) outFrame { return delivery(string(rune('a' + i))) }
	wedgeWriter(t, fw)
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
		ok, err = fw.enqueue(delivery("x"), EnqueueTry)
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
	big := delivery(string(make([]byte, 32*1024)))
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
