package stomp

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoHandler is a SessionHandler that re-delivers every SEND back to the
// sending session as a MESSAGE on the same destination, tagged with the
// session's first subscription id. It is enough to exercise the full
// client/server path without the broker package.
type echoHandler struct {
	mu       sync.Mutex
	subsByID map[uint64]string // session id -> subscription id
	logins   []string
}

func newEchoHandler() *echoHandler {
	return &echoHandler{subsByID: make(map[uint64]string)}
}

func (h *echoHandler) OnConnect(sess *Session, login string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.logins = append(h.logins, login)
	if login == "rejected-user" {
		return errors.New("user is banned")
	}
	return nil
}

func (h *echoHandler) OnFrameView(sess *Session, v *FrameView) error {
	f := v.Materialize() // owned: the echo below rewrites its headers
	switch f.Command {
	case CmdSubscribe:
		h.mu.Lock()
		h.subsByID[sess.ID()] = f.Header(HdrID)
		h.mu.Unlock()
	case CmdSend:
		h.mu.Lock()
		subID := h.subsByID[sess.ID()]
		h.mu.Unlock()
		if subID == "" {
			return nil
		}
		f.Command = CmdMessage
		f.SetHeader(HdrSubscription, subID)
		f.SetHeader(HdrMessageID, "m-1")
		return sess.Send(f)
	}
	return nil
}

func (h *echoHandler) OnDisconnect(*Session) {}

// sendImage builds a SEND image from a destination, headers and body the
// way a producer does: canonical sorted header order, no frame.
func sendImage(dest string, headers map[string]string, body []byte) *WireImage {
	all := map[string]string{HdrDestination: dest}
	for k, v := range headers {
		all[k] = v
	}
	bld := NewImageBuilder(CmdSend, 0)
	for _, k := range sortedHeaderKeys(nil, all, "") {
		bld.Header(k, all[k])
	}
	img := bld.Finish(body)
	return &img
}

func startEchoServer(t *testing.T, auth Authenticator) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Handler:      newEchoHandler(),
		Authenticate: auth,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func TestClientServerEcho(t *testing.T) {
	srv := startEchoServer(t, nil)

	received := make(chan *Frame, 1)
	client, err := Dial(srv.Addr(), ClientConfig{Login: "unit-a"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	if _, err := client.SubscribeView("/topic", "", nil, func(v *FrameView) {
		received <- v.Materialize()
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	headers := map[string]string{"patient_id": "1"}
	if err := client.SendImageReceipt(sendImage("/topic", headers, []byte("payload")), 5*time.Second); err != nil {
		t.Fatalf("SendImageReceipt: %v", err)
	}

	select {
	case f := <-received:
		if f.Header("patient_id") != "1" || string(f.Body) != "payload" {
			t.Errorf("echoed frame wrong: %v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no message received")
	}
}

func TestServerAuthentication(t *testing.T) {
	auth := func(login, passcode string) error {
		if passcode != "secret" {
			return errors.New("bad passcode")
		}
		return nil
	}
	srv := startEchoServer(t, auth)

	if _, err := Dial(srv.Addr(), ClientConfig{Login: "u", Passcode: "wrong"}); err == nil {
		t.Error("bad passcode accepted")
	}
	c, err := Dial(srv.Addr(), ClientConfig{Login: "u", Passcode: "secret"})
	if err != nil {
		t.Fatalf("good passcode rejected: %v", err)
	}
	_ = c.Close()
}

func TestHandlerConnectRejection(t *testing.T) {
	srv := startEchoServer(t, nil)
	if _, err := Dial(srv.Addr(), ClientConfig{Login: "rejected-user"}); err == nil {
		t.Error("handler rejection not surfaced to client")
	}
}

func TestClientDisconnectGraceful(t *testing.T) {
	srv := startEchoServer(t, nil)
	client, err := Dial(srv.Addr(), ClientConfig{Login: "u"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := client.Disconnect(5 * time.Second); err != nil {
		t.Errorf("Disconnect: %v", err)
	}
	// Idempotent close.
	if err := client.Close(); err != nil {
		t.Errorf("Close after Disconnect: %v", err)
	}
}

// TestDisconnectReportsNoError: the broker closes the connection after its
// DISCONNECT receipt, and the read loop's EOF that follows is the clean
// close the client asked for, not an error to report.
func TestDisconnectReportsNoError(t *testing.T) {
	srv := startEchoServer(t, nil)
	var reported atomic.Int64
	for i := 0; i < 50; i++ {
		client, err := Dial(srv.Addr(), ClientConfig{Login: "u", OnError: func(err error) {
			reported.Add(1)
			t.Logf("OnError: %v", err)
		}})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		if err := client.Disconnect(5 * time.Second); err != nil {
			t.Fatalf("Disconnect: %v", err)
		}
	}
	if n := reported.Load(); n != 0 {
		t.Errorf("50 clean disconnects made %d OnError calls, want 0", n)
	}
}

// TestSyncAfterDeliveries: Sync returns only once every MESSAGE the server
// queued before its receipt has been handled. The echo server sends each
// SEND back before it handles the next frame, so after Sync every echo
// has reached the handler.
func TestSyncAfterDeliveries(t *testing.T) {
	srv := startEchoServer(t, nil)
	client, err := Dial(srv.Addr(), ClientConfig{Login: "u"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	var handled atomic.Int64
	if _, err := client.SubscribeView("/topic", "", nil, func(*FrameView) { handled.Add(1) }); err != nil {
		t.Fatalf("SubscribeView: %v", err)
	}
	img := sendImage("/topic", nil, []byte("payload"))
	for round := int64(1); round <= 20; round++ {
		for i := 0; i < 10; i++ {
			if err := client.SendImage(img); err != nil {
				t.Fatalf("SendImage: %v", err)
			}
		}
		if err := client.Sync(5 * time.Second); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		if got := handled.Load(); got != 10*round {
			t.Fatalf("after Sync %d: %d echoes handled, want %d", round, got, 10*round)
		}
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	srv := startEchoServer(t, nil)
	client, err := Dial(srv.Addr(), ClientConfig{Login: "u"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	var mu sync.Mutex
	count := 0
	id, err := client.SubscribeView("/t", "", nil, func(*FrameView) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := client.SendImageReceipt(sendImage("/t", nil, nil), 5*time.Second); err != nil {
		t.Fatalf("SendImageReceipt: %v", err)
	}
	if err := client.Unsubscribe(id); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	if err := client.SendImageReceipt(sendImage("/t", nil, nil), 5*time.Second); err != nil {
		t.Fatalf("SendImageReceipt 2: %v", err)
	}
	// The first message may still be in flight; wait for it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := count
		mu.Unlock()
		if n >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	final := count
	mu.Unlock()
	if final > 1 {
		t.Errorf("received %d messages after unsubscribe, want <= 1", final)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv := startEchoServer(t, nil)
	errs := make(chan error, 1)
	client, err := Dial(srv.Addr(), ClientConfig{
		Login:   "u",
		OnError: func(err error) { errs <- err },
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	if err := srv.Close(); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	select {
	case <-errs:
		// read loop observed the close — good
	case <-time.After(5 * time.Second):
		t.Fatal("client did not observe server close")
	}
}

// TestBurstOrderingAndDelivery: a burst of SENDs coalesced through the
// connection writers arrives complete and in order, and the trailing
// receipt-confirmed SEND, queued behind them and flushed with them, is
// processed after all of them.
func TestBurstOrderingAndDelivery(t *testing.T) {
	srv := startEchoServer(t, nil)
	client, err := Dial(srv.Addr(), ClientConfig{Login: "u"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	const n = 200
	received := make(chan string, n+1)
	if _, err := client.SubscribeView("/t", "", nil, func(v *FrameView) {
		received <- v.Headers.Header("seq")
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := client.SendImage(sendImage("/t", map[string]string{"seq": strconv.Itoa(i)}, nil)); err != nil {
			t.Fatalf("SendImage %d: %v", i, err)
		}
	}
	if err := client.SendImageReceipt(sendImage("/t", map[string]string{"seq": "last"}, nil), 5*time.Second); err != nil {
		t.Fatalf("SendImageReceipt: %v", err)
	}
	for i := 0; i < n; i++ {
		select {
		case seq := <-received:
			if seq != strconv.Itoa(i) {
				t.Fatalf("message %d has seq %q", i, seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("burst stalled after %d messages", i)
		}
	}
	select {
	case seq := <-received:
		if seq != "last" {
			t.Fatalf("trailing message has seq %q", seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receipt-confirmed send not delivered")
	}
}

func TestConcurrentSends(t *testing.T) {
	srv := startEchoServer(t, nil)
	client, err := Dial(srv.Addr(), ClientConfig{Login: "u"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	const n = 50
	var wg sync.WaitGroup
	errCount := 0
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := client.SendImage(sendImage("/t", map[string]string{"k": "v"}, []byte("x"))); err != nil {
				mu.Lock()
				errCount++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if errCount != 0 {
		t.Errorf("%d concurrent sends failed", errCount)
	}
}
