package broker_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/faultnet"
	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// creditHandshake completes CONNECT and a credited SUBSCRIBE on an
// existing connection (typically a faultnet.Conn), returning the frame
// reader once the SUBSCRIBE receipt confirms deliveries will flow.
func creditHandshake(t testing.TB, conn net.Conn, login, topic, subID string, credit int) *bufio.Reader {
	t.Helper()
	rd := bufio.NewReader(conn)
	connect := stomp.NewFrame(stomp.CmdConnect)
	connect.SetHeader(stomp.HdrLogin, login)
	if err := new(stomp.Encoder).Encode(conn, connect); err != nil {
		t.Fatalf("%s CONNECT: %v", login, err)
	}
	if f, err := stomp.NewDecoder(rd).Decode(); err != nil || f.Command != stomp.CmdConnected {
		t.Fatalf("%s handshake: frame %v, err %v", login, f, err)
	}
	sub := stomp.NewFrame(stomp.CmdSubscribe)
	sub.SetHeader(stomp.HdrID, subID)
	sub.SetHeader(stomp.HdrDestination, topic)
	sub.SetHeader(stomp.HdrCredit, strconv.Itoa(credit))
	sub.SetHeader(stomp.HdrReceipt, "r-sub")
	if err := new(stomp.Encoder).Encode(conn, sub); err != nil {
		t.Fatalf("%s SUBSCRIBE: %v", login, err)
	}
	for {
		f, err := stomp.NewDecoder(rd).Decode()
		if err != nil {
			t.Fatalf("%s waiting for SUBSCRIBE receipt: %v", login, err)
		}
		if f.Command == stomp.CmdReceipt {
			return rd
		}
	}
}

// TestChaosCreditedConsumers drives credit-based flow control through
// fault-injected connections (package faultnet) under concurrent
// publishers: a slow-granting consumer (latency and chunked partial
// writes on every frame), a consumer that never grants, one that resets
// its connection mid-stream, and healthy credited engine subscriptions on
// every topic.
//
// The invariants: healthy subscriptions receive every event exactly once;
// the slow-granting consumer receives its whole feed exactly once with
// zero overflow drops anywhere (credit parks instead of dropping); the
// never-granting consumer's backlog parks broker-side, bounded by its
// window — exactly events minus window deep; every stall is counted in
// CreditStalls, per session and server-wide; and deliveries are lost
// (to teardown, with transport accounting) only on the stuck and reset
// sessions. Under -race it doubles as the data-race check for the credit
// paths: tryClaim racing park, grant-drain racing publishers, teardown
// racing both.
func TestChaosCreditedConsumers(t *testing.T) {
	const (
		window      = 4
		ring        = 32 // the server's pending ring per subscription
		feedEvents  = 120
		stuckEvents = 24 // parked = stuckEvents - window, must stay <= ring
		resetEvents = 12
		healthySubs = 2
		publishers  = 2
	)
	topics := []string{"/credit/feed", "/credit/stuck", "/credit/reset"}

	br := broker.New(label.NewPolicy())
	defer br.Close()

	var slowDrops, otherDrops atomic.Uint64
	var dropMu sync.Mutex
	dropSessions := make(map[uint64]bool)
	srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{
		Logf:     t.Logf,
		Overflow: broker.OverflowDropNewest,
		OnDeliveryError: func(sessionID uint64, sub string, ev *event.Event, err error) {
			if errors.Is(err, broker.ErrSlowConsumer) {
				slowDrops.Add(1)
			} else {
				otherDrops.Add(1)
			}
			dropMu.Lock()
			dropSessions[sessionID] = true
			dropMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	// Healthy consumers: one engine, credited subscriptions on every
	// topic, replenishing through the Release lifecycle.
	var seenMu sync.Mutex
	seen := make(map[string][]map[int]int)
	for _, topic := range topics {
		seen[topic] = make([]map[int]int, healthySubs)
		for i := range seen[topic] {
			seen[topic][i] = make(map[int]int)
		}
	}
	var healthyTotal atomic.Int64
	eng, err := engine.New(engine.Config{
		Policy: label.NewPolicy(),
		Bus: func(principal string) (broker.Bus, error) {
			return broker.DialBus(srv.Addr(), broker.ClientConfig{
				Login:           principal,
				SubscribeCredit: 2 * window,
				OnError: func(err error) {
					var pe *stomp.ProtocolError
					if errors.As(err, &pe) {
						t.Errorf("healthy bus protocol error: %v", err)
					}
				},
			})
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	defer eng.Stop()
	err = eng.AddUnit(chaosUnit{name: "consumer", init: func(ctx *engine.InitContext) error {
		for _, topic := range topics {
			for i := 0; i < healthySubs; i++ {
				topic, i := topic, i
				if err := ctx.Subscribe(topic, "", func(_ *engine.Context, ev *event.Event) error {
					seq, err := strconv.Atoi(ev.Attr("seq"))
					if err != nil {
						return fmt.Errorf("bad seq attr %q: %v", ev.Attr("seq"), err)
					}
					seenMu.Lock()
					seen[topic][i][seq]++
					seenMu.Unlock()
					healthyTotal.Add(1)
					return nil
				}); err != nil {
					return err
				}
			}
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("AddUnit: %v", err)
	}

	// The slow-granting consumer: every read is delayed and every write —
	// including its ACK grants — arrives in 7-byte chunks, so the server
	// reassembles grants from partial frames while publishers race the
	// window.
	feedConn, err := faultnet.Dial("tcp", srv.Addr(), faultnet.Plan{
		ReadLatency: 500 * time.Microsecond,
		WriteChunk:  7,
	})
	if err != nil {
		t.Fatalf("faultnet dial feed: %v", err)
	}
	defer feedConn.Close()
	feedRd := creditHandshake(t, feedConn, "slowgrant", "/credit/feed", "feed-0", window)
	var feedMu sync.Mutex
	feedSeen := make(map[int]int)
	var feedCount atomic.Int64
	feedDone := make(chan error, 1)
	go func() {
		granted := int64(window)
		var consumed int64
		for {
			f, err := stomp.NewDecoder(feedRd).Decode()
			if err != nil {
				feedDone <- err
				return
			}
			if f.Command != stomp.CmdMessage {
				continue
			}
			seq, err := strconv.Atoi(f.Header("seq"))
			if err != nil {
				feedDone <- fmt.Errorf("feed MESSAGE without seq: %v", f)
				return
			}
			feedMu.Lock()
			feedSeen[seq]++
			feedMu.Unlock()
			consumed++
			// Low-water replenishment: a cumulative grant once half the
			// window has completed. Grants are cumulative, so a raw
			// consumer may batch them however it likes.
			if next := consumed + window; next-granted >= window/2 {
				granted = next
				g := stomp.NewFrame(stomp.CmdAck)
				g.SetHeader(stomp.HdrSubscription, "feed-0")
				g.SetHeader(stomp.HdrCredit, strconv.FormatInt(next, 10))
				if err := new(stomp.Encoder).Encode(feedConn, g); err != nil {
					feedDone <- fmt.Errorf("feed grant: %v", err)
					return
				}
			}
			if feedCount.Add(1) == feedEvents {
				feedDone <- nil
				return
			}
		}
	}()

	// The never-granting consumer: subscribes, then its connection stalls
	// — reads and writes block until released. Its window drains and
	// everything else parks broker-side.
	stuckConn, err := faultnet.Dial("tcp", srv.Addr(), faultnet.Plan{})
	if err != nil {
		t.Fatalf("faultnet dial stuck: %v", err)
	}
	defer stuckConn.Close()
	_ = creditHandshake(t, stuckConn, "stuck", "/credit/stuck", "stuck-0", window)
	stuckConn.Stall()

	// The mid-stream reset consumer: reads a couple of deliveries, then
	// severs the connection with a TCP reset.
	resetConn, err := faultnet.Dial("tcp", srv.Addr(), faultnet.Plan{})
	if err != nil {
		t.Fatalf("faultnet dial reset: %v", err)
	}
	defer resetConn.Close()
	resetRd := creditHandshake(t, resetConn, "reset", "/credit/reset", "reset-0", window)

	sessionID := func(login string) uint64 {
		for _, ss := range srv.SessionStats() {
			if ss.Login == login {
				return ss.ID
			}
		}
		t.Fatalf("session for %s not found", login)
		return 0
	}
	feedID := sessionID("slowgrant")
	stuckID := sessionID("stuck")
	resetID := sessionID("reset")

	parkedFor := func(id uint64) int {
		for _, ss := range srv.SessionStats() {
			if ss.ID == id {
				return ss.CreditParked
			}
		}
		return 0
	}

	deadline := time.Now().Add(2 * time.Minute)
	pace := func(cond func() bool, what string) {
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: stats %+v", what, srv.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Concurrent publishers on the feed topic, paced only by the slow
	// consumer's parked backlog staying clear of the ring — the window
	// stalls and drains continuously while they race.
	var wg sync.WaitGroup
	var feedSeq atomic.Int64
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(feedSeq.Add(1)) - 1
				if s >= feedEvents {
					return
				}
				pace(func() bool { return parkedFor(feedID) <= ring/2 }, "feed ring headroom")
				ev := event.New("/credit/feed", map[string]string{"seq": strconv.Itoa(s)})
				if err := br.Publish("producer", ev); err != nil {
					t.Errorf("feed publish %d: %v", s, err)
					return
				}
			}
		}()
	}
	// The stuck topic: its consumer never grants, so everything past the
	// window parks; the publisher never blocks (drop-newest) and the ring
	// is sized to hold the whole backlog.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; s < stuckEvents; s++ {
			ev := event.New("/credit/stuck", map[string]string{"seq": strconv.Itoa(s)})
			if err := br.Publish("producer", ev); err != nil {
				t.Errorf("stuck publish %d: %v", s, err)
				return
			}
		}
	}()
	// The reset topic: the consumer reads two deliveries and resets.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; s < resetEvents; s++ {
			ev := event.New("/credit/reset", map[string]string{"seq": strconv.Itoa(s)})
			if err := br.Publish("producer", ev); err != nil {
				t.Errorf("reset publish %d: %v", s, err)
				return
			}
		}
	}()
	wg.Wait()

	// Every stall run is counted once, per session and server-wide. A run
	// starts only when a publish parks, so with every publisher returned and
	// every session still live the counters are final and the server total
	// is the sum over sessions.
	var sessionStalls, stuckStalls uint64
	for _, ss := range srv.SessionStats() {
		sessionStalls += ss.CreditStalls
		if ss.ID == stuckID {
			stuckStalls = ss.CreditStalls
		}
	}
	if stuckStalls == 0 {
		t.Error("the never-granting session's CreditStalls = 0; its window ran dry")
	}
	if got := srv.Stats().CreditStalls; got != sessionStalls {
		t.Errorf("Stats().CreditStalls = %d, sum of SessionStats().CreditStalls = %d; every stall run is counted exactly once on both",
			got, sessionStalls)
	}

	// Reset consumer: two reads, then sever mid-stream.
	for i := 0; i < 2; i++ {
		if f, err := stomp.NewDecoder(resetRd).Decode(); err != nil || f.Command != stomp.CmdMessage {
			t.Fatalf("reset consumer read %d: %v, %v", i, f, err)
		}
	}
	if err := resetConn.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}

	// The stuck backlog is exactly bounded by the window: everything
	// published past it parked, nothing dropped.
	if got, want := parkedFor(stuckID), stuckEvents-window; got != want {
		t.Errorf("stuck CreditParked = %d, want %d (published %d, window %d)", got, want, stuckEvents, window)
	}

	// Everyone healthy drains fully.
	wantHealthy := int64(healthySubs * (feedEvents + stuckEvents + resetEvents))
	pace(func() bool { return healthyTotal.Load() >= wantHealthy }, "healthy consumers")
	select {
	case err := <-feedDone:
		if err != nil {
			t.Fatalf("feed consumer: %v", err)
		}
	case <-time.After(time.Until(deadline)):
		t.Fatalf("slow-granting consumer finished %d of %d deliveries: stats %+v",
			feedCount.Load(), feedEvents, srv.Stats())
	}

	// Teardown: the stuck session's parked backlog is dropped with
	// transport accounting when its connection dies.
	_ = stuckConn.Close()
	pace(func() bool {
		for _, ss := range srv.SessionStats() {
			if ss.ID == stuckID || ss.ID == resetID {
				return false
			}
		}
		return true
	}, "stuck/reset session teardown")

	// Exactly-once, full coverage, for every healthy subscription.
	seenMu.Lock()
	for _, tc := range []struct {
		topic string
		total int
	}{{"/credit/feed", feedEvents}, {"/credit/stuck", stuckEvents}, {"/credit/reset", resetEvents}} {
		for i := 0; i < healthySubs; i++ {
			if len(seen[tc.topic][i]) != tc.total {
				t.Errorf("%s sub %d: %d distinct events, want %d", tc.topic, i, len(seen[tc.topic][i]), tc.total)
			}
			for s, n := range seen[tc.topic][i] {
				if n != 1 {
					t.Errorf("%s sub %d: seq %d delivered %d times", tc.topic, i, s, n)
				}
			}
		}
	}
	seenMu.Unlock()

	// The slow-granting consumer got its whole feed exactly once.
	feedMu.Lock()
	if len(feedSeen) != feedEvents {
		t.Errorf("slow-granting consumer: %d distinct events, want %d", len(feedSeen), feedEvents)
	}
	for s, n := range feedSeen {
		if n != 1 {
			t.Errorf("slow-granting consumer: seq %d delivered %d times", s, n)
		}
	}
	feedMu.Unlock()

	// Credit never dropped anything: zero overflow drops anywhere, and
	// transport losses only on the sessions that died.
	stats := srv.Stats()
	if stats.OverflowDrops != 0 || slowDrops.Load() != 0 {
		t.Errorf("OverflowDrops = %d (hooked %d); credited-but-slow consumers must park, not drop",
			stats.OverflowDrops, slowDrops.Load())
	}
	if got := otherDrops.Load(); got != stats.DroppedDeliveries {
		t.Errorf("transport drop hooks %d != Stats().DroppedDeliveries %d", got, stats.DroppedDeliveries)
	}
	dropMu.Lock()
	for id := range dropSessions {
		if id != stuckID && id != resetID {
			t.Errorf("delivery dropped for session %d; only stuck %d and reset %d may lose deliveries",
				id, stuckID, resetID)
		}
	}
	dropMu.Unlock()

	if stats.CreditStalls == 0 {
		t.Error("CreditStalls = 0; the stuck consumer must have stalled")
	}
	if stats.UnhandledFrames != 0 {
		t.Errorf("UnhandledFrames = %d, want 0 (all control frames well-formed)", stats.UnhandledFrames)
	}
}
