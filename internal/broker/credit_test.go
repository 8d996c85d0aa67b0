package broker_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// dialCredited connects a raw STOMP subscriber whose SUBSCRIBE advertises
// a credit window, returning the connection and its frame reader so tests
// can observe exactly which MESSAGE frames the broker put on the wire and
// replenish the window with hand-written ACK grants.
func dialCredited(t testing.TB, addr, login, topic, subID string, credit int) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial credited: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	br := bufio.NewReader(conn)
	connect := stomp.NewFrame(stomp.CmdConnect)
	connect.SetHeader(stomp.HdrLogin, login)
	if err := new(stomp.Encoder).Encode(conn, connect); err != nil {
		t.Fatalf("credited CONNECT: %v", err)
	}
	f, err := stomp.NewDecoder(br).Decode()
	if err != nil || f.Command != stomp.CmdConnected {
		t.Fatalf("credited handshake: frame %v, err %v", f, err)
	}
	sub := stomp.NewFrame(stomp.CmdSubscribe)
	sub.SetHeader(stomp.HdrID, subID)
	sub.SetHeader(stomp.HdrDestination, topic)
	sub.SetHeader(stomp.HdrCredit, strconv.Itoa(credit))
	sub.SetHeader(stomp.HdrReceipt, "r-sub")
	if err := new(stomp.Encoder).Encode(conn, sub); err != nil {
		t.Fatalf("credited SUBSCRIBE: %v", err)
	}
	for {
		f, err := stomp.NewDecoder(br).Decode()
		if err != nil {
			t.Fatalf("credited waiting for SUBSCRIBE receipt: %v", err)
		}
		if f.Command == stomp.CmdReceipt {
			return conn, br
		}
	}
}

// sendGrant writes a raw ACK credit grant. The credit value is a string so
// tests can send malformed grants through the same path.
func sendGrant(t testing.TB, conn net.Conn, subID, credit string) {
	t.Helper()
	f := stomp.NewFrame(stomp.CmdAck)
	f.SetHeader(stomp.HdrSubscription, subID)
	if credit != "" {
		f.SetHeader(stomp.HdrCredit, credit)
	}
	if err := new(stomp.Encoder).Encode(conn, f); err != nil {
		t.Fatalf("write ACK grant: %v", err)
	}
}

// readSeq reads the next MESSAGE frame and returns its seq attribute.
func readSeq(t testing.TB, conn net.Conn, br *bufio.Reader) int {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	f, err := stomp.NewDecoder(br).Decode()
	if err != nil {
		t.Fatalf("read MESSAGE: %v", err)
	}
	if f.Command != stomp.CmdMessage {
		t.Fatalf("read %s frame, want MESSAGE: %v", f.Command, f)
	}
	seq, err := strconv.Atoi(f.Header("seq"))
	if err != nil {
		t.Fatalf("MESSAGE without numeric seq: %v", f)
	}
	return seq
}

// expectSilence asserts that no frame arrives on the connection within d.
func expectSilence(t testing.TB, conn net.Conn, br *bufio.Reader, d time.Duration) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(d))
	defer conn.SetReadDeadline(time.Time{})
	if f, err := stomp.NewDecoder(br).Decode(); err == nil {
		t.Fatalf("expected no frame, read %v", f)
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("expected read deadline, got %v", err)
	}
}

func publishSeq(t testing.TB, b *broker.Broker, topic string, seq int) {
	t.Helper()
	ev := event.New(topic, map[string]string{"seq": strconv.Itoa(seq)})
	if err := b.Publish("producer", ev); err != nil {
		t.Fatalf("Publish seq %d: %v", seq, err)
	}
}

// TestCreditZeroParksDeliveries pins the core credit contract at the wire
// level: with the window exhausted, matched deliveries park broker-side
// (no frames on the wire, nothing dropped), a cumulative grant resumes
// in-order delivery, stalls are counted once per run, for the server and
// the session, and stale or duplicate grants are idempotent no-ops.
func TestCreditZeroParksDeliveries(t *testing.T) {
	br := broker.New(label.NewPolicy())
	defer br.Close()

	srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{
		Logf: t.Logf,
		OnDeliveryError: func(_ uint64, _ string, _ *event.Event, err error) {
			t.Errorf("unexpected delivery drop: %v", err)
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	conn, rd := dialCredited(t, srv.Addr(), "consumer", "/credit/t", "c-0", 2)

	// Publishing is synchronous through the wire fan-out: when Publish
	// returns, each delivery has either entered the session's write queue
	// or parked in the subscription's pending ring. The third publish finds
	// the window of 2 spent and starts one stall run with one parked.
	for seq := 0; seq < 3; seq++ {
		publishSeq(t, br, "/credit/t", seq)
	}
	sessions := srv.SessionStats()
	if len(sessions) != 1 {
		t.Fatalf("SessionStats = %d sessions, want 1", len(sessions))
	}
	if st := sessions[0]; st.CreditStalls != 1 || st.CreditParked != 1 {
		t.Errorf("session CreditStalls = %d, CreditParked = %d at the first park; want 1 and 1", st.CreditStalls, st.CreditParked)
	}
	if got := srv.Stats().CreditStalls; got != 1 {
		t.Errorf("CreditStalls = %d at the first park, want 1", got)
	}
	for seq := 3; seq < 5; seq++ {
		publishSeq(t, br, "/credit/t", seq)
	}

	sessions = srv.SessionStats()
	if len(sessions) != 1 {
		t.Fatalf("SessionStats = %d sessions, want 1", len(sessions))
	}
	if got := sessions[0].CreditParked; got != 3 {
		t.Errorf("CreditParked = %d, want 3 (window 2 of 5 published)", got)
	}
	if got := sessions[0].CreditStalls; got != 1 {
		t.Errorf("session CreditStalls = %d, want 1", got)
	}
	if got := srv.Stats().CreditStalls; got != 1 {
		t.Errorf("CreditStalls = %d, want 1 (one stall run)", got)
	}

	// Exactly the window reaches the wire, in order; the rest is parked.
	for want := 0; want < 2; want++ {
		if got := readSeq(t, conn, rd); got != want {
			t.Fatalf("delivery %d: seq %d, want %d", want, got, want)
		}
	}
	expectSilence(t, conn, rd, 200*time.Millisecond)

	// A cumulative grant drains the ring in park order.
	sendGrant(t, conn, "c-0", "5")
	for want := 2; want < 5; want++ {
		if got := readSeq(t, conn, rd); got != want {
			t.Fatalf("post-grant delivery: seq %d, want %d", got, want)
		}
	}
	waitFor(t, "ring drained", func() bool {
		ss := srv.SessionStats()
		return len(ss) == 1 && ss[0].CreditParked == 0
	})

	// A new exhaustion is a new stall run.
	publishSeq(t, br, "/credit/t", 5)
	if got := srv.Stats().CreditStalls; got != 2 {
		t.Errorf("CreditStalls after second exhaustion = %d, want 2", got)
	}

	// Stale and duplicate grants must not deliver anything.
	sendGrant(t, conn, "c-0", "3")
	sendGrant(t, conn, "c-0", "5")
	expectSilence(t, conn, rd, 200*time.Millisecond)

	sendGrant(t, conn, "c-0", "6")
	if got := readSeq(t, conn, rd); got != 5 {
		t.Fatalf("after fresh grant: seq %d, want 5", got)
	}

	stats := srv.Stats()
	if stats.OverflowDrops != 0 || stats.DroppedDeliveries != 0 {
		t.Errorf("drops = %d overflow, %d dropped; credit parking must not drop", stats.OverflowDrops, stats.DroppedDeliveries)
	}
}

// waitFor polls cond until it holds or a deadline expires.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// ringWaiting reports whether some publisher is waiting for space in a
// full credit ring.
func ringWaiting() bool { return broker.RingParked() > 0 }

// closeWithin fails the test unless srv.Close returns within d.
func closeWithin(t *testing.T, srv *broker.Server, d time.Duration) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(d):
		t.Fatalf("Server.Close did not return within %v", d)
	}
}

// TestCreditRingOverflowPolicies pins the fallback contract: when the
// pending ring itself overflows, the delivery falls through to the
// server's configured overflow policy — the reactive machinery stays the
// safety net under credit, with its accounting intact. Under block the
// wait for ring space ends at a grant, at WriteTimeout, which evicts the
// consumer that stopped granting, or at Server.Close, even when the
// waiting publisher is the consumer's own read loop.
func TestCreditRingOverflowPolicies(t *testing.T) {
	// Window 1, the server's 32-deep ring: seq 0 is sent, 1..32 park, 33
	// overflows; the disconnect policy evicts on the 8th overflow in a row.
	const ring, evictAfter = 32, 8
	// publishSeqs publishes seq from..to-1.
	publishSeqs := func(t *testing.T, br *broker.Broker, from, to int) {
		t.Helper()
		for seq := from; seq < to; seq++ {
			publishSeq(t, br, "/credit/ring", seq)
		}
	}
	// readSeqs reads deliveries of seq from..to-1, in order.
	readSeqs := func(t *testing.T, conn net.Conn, rd *bufio.Reader, from, to int) {
		t.Helper()
		for want := from; want < to; want++ {
			if got := readSeq(t, conn, rd); got != want {
				t.Fatalf("post-grant seq %d, want %d (survivors in order)", got, want)
			}
		}
	}
	// sendSeqs writes SENDs of seq from..to-1 to the ring's topic on conn.
	sendSeqs := func(t *testing.T, conn net.Conn, from, to int) {
		t.Helper()
		for seq := from; seq < to; seq++ {
			f := stomp.NewFrame(stomp.CmdSend)
			f.SetHeader(stomp.HdrDestination, "/credit/ring")
			f.SetHeader("seq", strconv.Itoa(seq))
			if err := new(stomp.Encoder).Encode(conn, f); err != nil {
				t.Fatalf("SEND seq %d: %v", seq, err)
			}
		}
	}
	setup := func(t *testing.T, overflow broker.OverflowPolicy, writeTimeout time.Duration) (
		*broker.Broker, *broker.Server, net.Conn, *bufio.Reader, *atomic.Uint64,
	) {
		br := broker.New(label.NewPolicy())
		t.Cleanup(func() { br.Close() })
		var slowDrops atomic.Uint64
		srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{
			Logf:         t.Logf,
			Overflow:     overflow,
			WriteTimeout: writeTimeout,
			OnDeliveryError: func(_ uint64, _ string, _ *event.Event, err error) {
				if errors.Is(err, broker.ErrSlowConsumer) {
					slowDrops.Add(1)
				}
			},
		})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		conn, rd := dialCredited(t, srv.Addr(), "consumer", "/credit/ring", "c-0", 1)
		return br, srv, conn, rd, &slowDrops
	}

	t.Run("drop-newest", func(t *testing.T) {
		br, srv, conn, rd, slowDrops := setup(t, broker.OverflowDropNewest, 0)
		publishSeqs(t, br, 0, ring+2)
		if got := srv.Stats().OverflowDrops; got != 1 {
			t.Errorf("OverflowDrops = %d, want 1 (seq %d over the full ring)", got, ring+1)
		}
		if got := slowDrops.Load(); got != 1 {
			t.Errorf("ErrSlowConsumer reports = %d, want 1", got)
		}
		if got := readSeq(t, conn, rd); got != 0 {
			t.Fatalf("first delivery seq %d, want 0", got)
		}
		sendGrant(t, conn, "c-0", "100")
		readSeqs(t, conn, rd, 1, ring+1)
		expectSilence(t, conn, rd, 200*time.Millisecond)
	})

	t.Run("disconnect", func(t *testing.T) {
		br, srv, _, _, slowDrops := setup(t, broker.OverflowDisconnect, 0)
		publishSeqs(t, br, 0, 1+ring+evictAfter)
		if got := srv.Stats().SlowConsumerEvictions; got != 1 {
			t.Fatalf("SlowConsumerEvictions = %d, want 1 (%d consecutive ring overflows)", got, evictAfter)
		}
		if got := srv.Stats().OverflowDrops; got != evictAfter {
			t.Errorf("OverflowDrops = %d, want %d", got, evictAfter)
		}
		if got := slowDrops.Load(); got != evictAfter {
			t.Errorf("ErrSlowConsumer reports = %d, want %d", got, evictAfter)
		}
		// Teardown drops the parked backlog as to a closed session and
		// removes the session.
		waitFor(t, "evicted session teardown", func() bool {
			return len(srv.SessionStats()) == 0
		})
		// The session leaves the live set before its subscriptions are
		// torn down, so wait for the backlog's drops rather than read once.
		waitFor(t, "parked backlog dropped", func() bool {
			return srv.Stats().DroppedDeliveries >= ring
		})
		if got := srv.Stats().DroppedDeliveries; got != ring {
			t.Errorf("DroppedDeliveries = %d, want %d (the parked backlog on teardown)", got, ring)
		}
	})

	t.Run("block", func(t *testing.T) {
		br, _, conn, rd, _ := setup(t, broker.OverflowBlock, 0)
		publishSeqs(t, br, 0, ring+1)
		// The next publish must block on the full ring until a grant makes
		// room — lossless back-pressure one layer up from the write queue.
		unblocked := make(chan struct{})
		go func() {
			publishSeq(t, br, "/credit/ring", ring+1)
			close(unblocked)
		}()
		select {
		case <-unblocked:
			t.Fatal("publish into a full ring returned under OverflowBlock")
		case <-time.After(100 * time.Millisecond):
		}
		if got := readSeq(t, conn, rd); got != 0 {
			t.Fatalf("first delivery seq %d, want 0", got)
		}
		sendGrant(t, conn, "c-0", "100")
		select {
		case <-unblocked:
		case <-time.After(10 * time.Second):
			t.Fatal("grant did not unblock the parked publisher")
		}
		readSeqs(t, conn, rd, 1, ring+2) // lossless, in order
	})

	t.Run("block/write-timeout", func(t *testing.T) {
		br, srv, _, _, slowDrops := setup(t, broker.OverflowBlock, 200*time.Millisecond)
		publishSeqs(t, br, 0, ring+1)
		// The consumer never grants: the publisher waiting for ring space
		// gives up at WriteTimeout, and the consumer is evicted.
		published := make(chan error, 1)
		go func() {
			published <- br.Publish("producer", event.New("/credit/ring", map[string]string{"seq": strconv.Itoa(ring + 1)}))
		}()
		select {
		case err := <-published:
			if err != nil {
				t.Fatalf("Publish: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a publish waiting on a consumer that never grants outlived WriteTimeout")
		}
		st := srv.Stats()
		if st.SlowConsumerEvictions != 1 {
			t.Errorf("SlowConsumerEvictions = %d, want 1", st.SlowConsumerEvictions)
		}
		if st.OverflowDrops != 1 || slowDrops.Load() != 1 {
			t.Errorf("OverflowDrops = %d, ErrSlowConsumer reports = %d; want the timed-out delivery, 1 and 1", st.OverflowDrops, slowDrops.Load())
		}
		waitFor(t, "evicted session teardown", func() bool {
			return len(srv.SessionStats()) == 0 && srv.Stats().DroppedDeliveries == ring
		})
	})

	t.Run("block/write-timeout/contended", func(t *testing.T) {
		// Eight publishers wait on one full ring while the consumer keeps
		// granting, one slot every 10ms, far inside WriteTimeout. Each
		// drain that frees a slot re-arms every waiter's bound, though only
		// one waiter gets the slot: a publisher that keeps losing that race
		// waits on a consumer that is granting, which is not evicted.
		const publishers, each = 8, 8
		br, srv, conn, rd, slowDrops := setup(t, broker.OverflowBlock, 200*time.Millisecond)
		publishSeqs(t, br, 0, ring+1)
		errs := make(chan error, publishers)
		for p := range publishers {
			go func() {
				var err error
				for i := 0; i < each && err == nil; i++ {
					seq := strconv.Itoa(ring + 1 + p*each + i)
					err = br.Publish("producer", event.New("/credit/ring", map[string]string{"seq": seq}))
				}
				errs <- err
			}()
		}
		total := ring + 1 + publishers*each
		for granted := 1; granted < total; granted++ {
			readSeq(t, conn, rd)
			if st := srv.Stats(); st.SlowConsumerEvictions != 0 {
				t.Fatalf("consumer evicted after %d grants while granting every 10ms (OverflowDrops %d)", granted, st.OverflowDrops)
			}
			time.Sleep(10 * time.Millisecond)
			sendGrant(t, conn, "c-0", strconv.Itoa(granted+1))
		}
		readSeq(t, conn, rd)
		for range publishers {
			if err := <-errs; err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}
		if st := srv.Stats(); st.SlowConsumerEvictions != 0 || st.OverflowDrops != 0 || slowDrops.Load() != 0 {
			t.Errorf("evictions %d, OverflowDrops %d, ErrSlowConsumer reports %d; want 0, 0, 0",
				st.SlowConsumerEvictions, st.OverflowDrops, slowDrops.Load())
		}
	})

	t.Run("block/close", func(t *testing.T) {
		// One connection is the consumer and the publisher, with no
		// WriteTimeout: its read loop waits for ring space that only its
		// own grants could make. Close must still end the wait.
		_, srv, conn, _, _ := setup(t, broker.OverflowBlock, 0)
		sendSeqs(t, conn, 0, ring+2)
		waitFor(t, "the read loop waiting for ring space", ringWaiting)
		closeWithin(t, srv, 5*time.Second)
		if got := srv.Stats().DroppedDeliveries; got != ring+1 {
			t.Errorf("DroppedDeliveries = %d, want %d (the waiting delivery and the parked ring)", got, ring+1)
		}
	})

	t.Run("block/shared-connection", func(t *testing.T) {
		_, srv, conn, _, slowDrops := setup(t, broker.OverflowBlock, 200*time.Millisecond)
		sendSeqs(t, conn, 0, ring+2)
		waitFor(t, "the self-publishing consumer evicted", func() bool {
			return srv.Stats().SlowConsumerEvictions == 1 && len(srv.SessionStats()) == 0
		})
		if st := srv.Stats(); st.OverflowDrops != 1 || slowDrops.Load() != 1 {
			t.Errorf("OverflowDrops = %d, ErrSlowConsumer reports = %d; want 1 and 1", st.OverflowDrops, slowDrops.Load())
		}
		closeWithin(t, srv, 5*time.Second)
	})
}

// TestUnhandledFramesError pins the bugfix for silently ignored client
// frames: unsupported commands and malformed credit grants are answered
// with an ERROR frame naming the problem and counted in
// Stats().UnhandledFrames — and a malformed grant never replenishes.
func TestUnhandledFramesError(t *testing.T) {
	br := broker.New(label.NewPolicy())
	defer br.Close()
	srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	// connect completes a bare CONNECT handshake.
	connect := func(t *testing.T) (net.Conn, *bufio.Reader) {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { conn.Close() })
		rd := bufio.NewReader(conn)
		f := stomp.NewFrame(stomp.CmdConnect)
		f.SetHeader(stomp.HdrLogin, "probe")
		if err := new(stomp.Encoder).Encode(conn, f); err != nil {
			t.Fatalf("CONNECT: %v", err)
		}
		if got, err := stomp.NewDecoder(rd).Decode(); err != nil || got.Command != stomp.CmdConnected {
			t.Fatalf("handshake: %v, %v", got, err)
		}
		return conn, rd
	}
	// expectError reads until an ERROR frame and asserts its message
	// mentions want.
	expectError := func(t *testing.T, conn net.Conn, rd *bufio.Reader, want string) {
		t.Helper()
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		f, err := stomp.NewDecoder(rd).Decode()
		if err != nil {
			t.Fatalf("waiting for ERROR: %v", err)
		}
		if f.Command != stomp.CmdError {
			t.Fatalf("read %s, want ERROR: %v", f.Command, f)
		}
		if detail := f.Header(stomp.HdrMessage) + " " + string(f.Body); !containsStr(detail, want) {
			t.Errorf("ERROR %q does not name %q", detail, want)
		}
	}

	before := srv.Stats().UnhandledFrames

	for _, tc := range []struct {
		name    string
		frame   func() *stomp.Frame
		mention string
	}{
		{"unsupported BEGIN", func() *stomp.Frame {
			f := stomp.NewFrame(stomp.CmdBegin)
			return f
		}, "BEGIN"},
		{"ACK without credit", func() *stomp.Frame {
			f := stomp.NewFrame(stomp.CmdAck)
			f.SetHeader(stomp.HdrSubscription, "c-0")
			return f
		}, "ACK"},
		{"ACK negative credit", func() *stomp.Frame {
			f := stomp.NewFrame(stomp.CmdAck)
			f.SetHeader(stomp.HdrSubscription, "c-0")
			f.SetHeader(stomp.HdrCredit, "-1")
			return f
		}, "credit"},
		{"ACK non-numeric credit", func() *stomp.Frame {
			f := stomp.NewFrame(stomp.CmdAck)
			f.SetHeader(stomp.HdrSubscription, "c-0")
			f.SetHeader(stomp.HdrCredit, "lots")
			return f
		}, "credit"},
		{"ACK overflowing credit", func() *stomp.Frame {
			f := stomp.NewFrame(stomp.CmdAck)
			f.SetHeader(stomp.HdrSubscription, "c-0")
			f.SetHeader(stomp.HdrCredit, "99999999999999999999999999")
			return f
		}, "credit"},
		{"ACK without subscription", func() *stomp.Frame {
			f := stomp.NewFrame(stomp.CmdAck)
			f.SetHeader(stomp.HdrCredit, "5")
			return f
		}, "subscription"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, rd := connect(t)
			if err := new(stomp.Encoder).Encode(conn, tc.frame()); err != nil {
				t.Fatalf("write: %v", err)
			}
			expectError(t, conn, rd, tc.mention)
		})
	}
	// (A frame whose command the codec itself does not know never reaches
	// the broker handler — the decoder rejects it — so only the six
	// handler-level rejections above count here.)
	if got := srv.Stats().UnhandledFrames - before; got != 6 {
		t.Errorf("UnhandledFrames grew by %d, want 6", got)
	}

	t.Run("grant for unknown subscription is benign", func(t *testing.T) {
		// The UNSUBSCRIBE race: a grant for a subscription that no longer
		// exists must be ignored, not answered with ERROR.
		before := srv.Stats().UnhandledFrames
		conn, rd := connect(t)
		sendGrant(t, conn, "gone-sub", "5")
		expectSilence(t, conn, rd, 200*time.Millisecond)
		if got := srv.Stats().UnhandledFrames - before; got != 0 {
			t.Errorf("UnhandledFrames grew by %d for a benign stale grant", got)
		}
	})

	t.Run("malformed grant never replenishes", func(t *testing.T) {
		conn, rd := dialCredited(t, srv.Addr(), "consumer", "/credit/bad", "c-0", 1)
		publishSeq(t, br, "/credit/bad", 0)
		publishSeq(t, br, "/credit/bad", 1)
		if got := readSeq(t, conn, rd); got != 0 {
			t.Fatalf("seq %d, want 0", got)
		}
		// The malformed grant draws an ERROR (and the session closes); the
		// parked delivery must still be parked, never delivered by a
		// rejected grant.
		sendGrant(t, conn, "c-0", "-7")
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		f, err := stomp.NewDecoder(rd).Decode()
		if err != nil {
			t.Fatalf("waiting for ERROR: %v", err)
		}
		if f.Command != stomp.CmdError {
			t.Fatalf("read %s, want ERROR (malformed grant must fail closed, not deliver)", f.Command)
		}
	})

	t.Run("grant for uncredited subscription rejected", func(t *testing.T) {
		conn, rd := connect(t)
		sub := stomp.NewFrame(stomp.CmdSubscribe)
		sub.SetHeader(stomp.HdrID, "plain-0")
		sub.SetHeader(stomp.HdrDestination, "/credit/plain")
		sub.SetHeader(stomp.HdrReceipt, "r-sub")
		if err := new(stomp.Encoder).Encode(conn, sub); err != nil {
			t.Fatalf("SUBSCRIBE: %v", err)
		}
		if f, err := stomp.NewDecoder(rd).Decode(); err != nil || f.Command != stomp.CmdReceipt {
			t.Fatalf("SUBSCRIBE receipt: %v, %v", f, err)
		}
		sendGrant(t, conn, "plain-0", "5")
		expectError(t, conn, rd, "without a credit window")
	})
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

// TestDepartedSessionStatsFold is the regression test for the disconnect
// accounting window: a session evicted while Stats() snapshots must never
// make the server-wide QueueHighWater dip — the session leaves the live
// set and enters the departed fold in the same critical section.
func TestDepartedSessionStatsFold(t *testing.T) {
	const queueLen = 8
	br := broker.New(label.NewPolicy())
	defer br.Close()
	srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{
		Logf:            t.Logf,
		Overflow:        broker.OverflowDropNewest,
		WriteQueueLen:   queueLen,
		OnDeliveryError: func(uint64, string, *event.Event, error) {},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	// A stalled consumer fills its write queue to a known high-water mark.
	conn := dialStalled(t, srv.Addr(), "stalled", "/fold/t", "s-0")
	body := make([]byte, 16*1024)
	for seq := 0; srv.Stats().QueueHighWater < queueLen; seq++ {
		if seq > 10_000 {
			t.Fatalf("queue never filled: stats %+v", srv.Stats())
		}
		ev := event.New("/fold/t", map[string]string{"seq": strconv.Itoa(seq)})
		ev.Body = body
		if err := br.Publish("producer", ev); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}

	// Sample Stats() continuously through the teardown, recording any dip
	// below the established maximum.
	stop := make(chan struct{})
	var dipped atomic.Int64
	dipped.Store(-1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		max := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			hw := srv.Stats().QueueHighWater
			if hw < max {
				dipped.Store(int64(hw))
				return
			}
			max = hw
		}
	}()

	_ = conn.Close()
	waitFor(t, "stalled session teardown", func() bool {
		return len(srv.SessionStats()) == 0
	})
	// Let the sampler observe the post-teardown state for a while.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if d := dipped.Load(); d >= 0 {
		t.Errorf("QueueHighWater dipped to %d during session teardown; the fold must be atomic with removal", d)
	}
	if got := srv.Stats().QueueHighWater; got != queueLen {
		t.Errorf("post-teardown QueueHighWater = %d, want %d (folded from the departed session)", got, queueLen)
	}
}

// TestClientCreditReplenish exercises the client half end to end: a
// broker.Client with SubscribeCredit set advertises the window, counts
// consumed deliveries through Event.Release, and replenishes with batched
// cumulative grants — so a consumer that keeps releasing receives many
// times its window without anything dropping.
func TestClientCreditReplenish(t *testing.T) {
	const total = 50
	br := broker.New(label.NewPolicy())
	defer br.Close()
	srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{
		Logf: t.Logf,
		OnDeliveryError: func(_ uint64, _ string, _ *event.Event, err error) {
			t.Errorf("delivery dropped: %v", err)
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	cl, err := broker.DialBus(srv.Addr(), broker.ClientConfig{
		Login:           "consumer",
		SubscribeCredit: 4,
		// Teardown EOF noise is expected; only protocol errors (a broker
		// rejecting a grant, say) fail the test.
		OnError: func(err error) {
			var pe *stomp.ProtocolError
			if errors.As(err, &pe) {
				t.Errorf("client protocol error: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	defer cl.Close()

	var mu sync.Mutex
	got := make(map[int]int)
	var n atomic.Int64
	_, err = cl.Subscribe("/credit/client", "", func(ev *event.Event) {
		seq, _ := strconv.Atoi(ev.Attr("seq"))
		mu.Lock()
		got[seq]++
		mu.Unlock()
		n.Add(1)
		// The consumer's completion point: releasing the delivery event is
		// what replenishes the window.
		ev.Release()
	})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	for seq := 0; seq < total; seq++ {
		publishSeq(t, br, "/credit/client", seq)
	}
	waitFor(t, "all deliveries", func() bool { return n.Load() >= total })
	mu.Lock()
	defer mu.Unlock()
	if len(got) != total {
		t.Fatalf("received %d distinct events, want %d", len(got), total)
	}
	for seq, count := range got {
		if count != 1 {
			t.Errorf("seq %d delivered %d times, want exactly once", seq, count)
		}
	}
	if drops := srv.Stats().OverflowDrops; drops != 0 {
		t.Errorf("OverflowDrops = %d, want 0 (credit parks, the consumer keeps up)", drops)
	}
}

// TestCreditSelfPublish: a credited client that publishes to its own
// subscription receives every event. Its publishes travel on the publish
// connection, so the broker's wait for ring space never holds up the
// grants that make the room.
func TestCreditSelfPublish(t *testing.T) { runCreditedPublishers(t, 1) }

// TestCreditCrossPublish: two credited clients, each publishing to the
// topic the other subscribes to, both receive every event.
func TestCreditCrossPublish(t *testing.T) { runCreditedPublishers(t, 2) }

// runCreditedPublishers connects n clients with a credit window of 4.
// Client i subscribes to topic i and publishes 500 fire-and-forget
// events to topic i+1 mod n; its handler only releases. Every client
// must receive its 500 events in order, and Server.Close must return
// within 5 s. The exchange runs under its own deadline, so a wedged
// broker fails the test instead of hanging it.
func runCreditedPublishers(t *testing.T, n int) {
	const events = 500
	br := broker.New(label.NewPolicy())
	t.Cleanup(br.Close)
	srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{
		Logf: t.Logf,
		OnDeliveryError: func(_ uint64, _ string, _ *event.Event, err error) {
			t.Errorf("delivery dropped: %v", err)
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	topic := func(i int) string { return "/loop/" + strconv.Itoa(i%n) }

	exchange := func() error {
		clients := make([]*broker.Client, n)
		all := make([]chan struct{}, n)
		for i := range clients {
			cl, err := broker.DialBus(srv.Addr(), broker.ClientConfig{Login: "unit", SubscribeCredit: 4})
			if err != nil {
				return err
			}
			clients[i], all[i] = cl, make(chan struct{})
			next, done := 0, all[i]
			if _, err := cl.Subscribe(topic(i), "", func(ev *event.Event) {
				if seq := ev.Attr("seq"); seq != strconv.Itoa(next) {
					t.Errorf("%s: delivery %d carries seq %s", topic(i), next, seq)
				}
				ev.Release()
				if next++; next == events {
					close(done)
				}
			}); err != nil {
				return err
			}
		}
		for i, cl := range clients {
			for seq := 0; seq < events; seq++ {
				if err := cl.Publish(event.New(topic(i+1), map[string]string{"seq": strconv.Itoa(seq)})); err != nil {
					return err
				}
			}
		}
		for i, cl := range clients {
			if err := cl.Flush(); err != nil {
				return err
			}
			<-all[i]
		}
		for _, cl := range clients {
			if err := cl.Close(); err != nil {
				return err
			}
		}
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- exchange() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("credited clients did not receive every event within 10 s")
	}
	closeWithin(t, srv, 5*time.Second)
}

// TestCreditPublisherOrder pins per-publisher order on credited
// subscriptions: one publisher's events reach every credited subscriber
// in publish order, however they split between the fast path and the
// pending ring. Each consumer grants two past its window every two
// messages, so a grant that drains the ring leaves spare credit for the
// publisher's next event, which must still queue behind the drained ones.
func TestCreditPublisherOrder(t *testing.T) {
	const consumers, events, window = 4, 50000, 4
	br := broker.New(label.NewPolicy())
	defer br.Close()
	srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{
		Logf: t.Logf,
		OnDeliveryError: func(_ uint64, _ string, _ *event.Event, err error) {
			t.Errorf("unexpected delivery drop: %v", err)
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	conns := make([]net.Conn, consumers)
	readers := make([]*bufio.Reader, consumers)
	for i := range conns {
		conns[i], readers[i] = dialCredited(t, srv.Addr(), "consumer", "/r", "c-"+strconv.Itoa(i), window)
	}
	published := make(chan error, 1)
	go func() {
		for seq := 0; seq < events; seq++ {
			if err := br.Publish("producer", event.New("/r", map[string]string{"seq": strconv.Itoa(seq)})); err != nil {
				published <- err
				return
			}
		}
		published <- nil
	}()

	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(conn net.Conn, dec *stomp.Decoder, subID string) {
			defer wg.Done()
			_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
			next, breaks, first := 0, 0, ""
			for got := 1; got <= events; got++ {
				f, err := dec.Decode()
				if err != nil {
					t.Errorf("%s: after %d messages: %v", subID, got-1, err)
					return
				}
				seq, err := strconv.Atoi(f.Header("seq"))
				if f.Command != stomp.CmdMessage || err != nil {
					t.Errorf("%s: read %v, want a MESSAGE with a numeric seq", subID, f)
					return
				}
				if seq != next {
					if breaks++; breaks == 1 {
						first = fmt.Sprintf("delivery %d carries seq %d, want %d", got, seq, next)
					}
				}
				next = seq + 1
				if got%2 == 0 {
					sendGrant(t, conn, subID, strconv.Itoa(got+window))
				}
			}
			if breaks > 0 {
				t.Errorf("%s: %d order breaks; first: %s", subID, breaks, first)
			}
		}(conns[i], stomp.NewDecoder(readers[i]), "c-"+strconv.Itoa(i))
	}
	wg.Wait()
	if t.Failed() {
		_ = srv.Close()
	}
	select {
	case err := <-published:
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("publisher did not finish within 10 s")
	}
}
