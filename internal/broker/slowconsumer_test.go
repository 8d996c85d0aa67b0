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
	"safeweb/internal/label"
	"safeweb/internal/park"
	"safeweb/internal/stomp"
)

func TestOverflowPolicyParseAndString(t *testing.T) {
	for _, p := range []broker.OverflowPolicy{
		broker.OverflowBlock, broker.OverflowDropNewest, broker.OverflowDisconnect,
	} {
		got, err := broker.ParseOverflowPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseOverflowPolicy(%q) = %v, %v; want %v, nil", p.String(), got, err, p)
		}
	}
	if got, err := broker.ParseOverflowPolicy(""); err != nil || got != broker.OverflowBlock {
		t.Errorf("ParseOverflowPolicy(\"\") = %v, %v; want block, nil", got, err)
	}
	for _, bad := range []string{"drop-everything", "drop-oldest"} {
		_, err := broker.ParseOverflowPolicy(bad)
		if err == nil {
			t.Errorf("ParseOverflowPolicy accepted %q", bad)
			continue
		}
		for _, name := range []string{"block", "drop-newest", "disconnect"} {
			if !containsStr(err.Error(), name) {
				t.Errorf("ParseOverflowPolicy(%q) error %q does not name %s", bad, err, name)
			}
		}
	}
}

func TestServerRejectsBadOverflowConfig(t *testing.T) {
	br := broker.New(label.NewPolicy())
	defer br.Close()
	for _, cfg := range []broker.ServerConfig{
		{Overflow: broker.OverflowPolicy(99)},
		{WriteQueueLen: -1},
		{WriteTimeout: -time.Second},
	} {
		if srv, err := broker.NewServer("127.0.0.1:0", br, cfg); err == nil {
			_ = srv.Close()
			t.Errorf("NewServer accepted bad config %+v", cfg)
		}
	}
}

// TestDeadSessionDeliveryAccounted pins the accounting for the transport
// failure path of deliver: a matched delivery that fails to write because
// the session died must be counted in DroppedDeliveries and reported
// through OnDeliveryError, never discarded silently.
func TestDeadSessionDeliveryAccounted(t *testing.T) {
	br := broker.New(label.NewPolicy())
	defer br.Close()

	type drop struct {
		sessionID uint64
		sub       string
		ev        *event.Event
		err       error
	}
	drops := make(chan drop, 1)
	srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{
		Logf: t.Logf,
		OnDeliveryError: func(sessionID uint64, sub string, ev *event.Event, err error) {
			drops <- drop{sessionID, sub, ev, err}
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	cl, err := broker.DialBus(srv.Addr(), broker.ClientConfig{Login: "consumer"})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	defer cl.Close()

	var sessID uint64
	for _, ss := range srv.SessionStats() {
		if ss.Login == "consumer" {
			sessID = ss.ID
		}
	}
	if sessID == 0 {
		t.Fatal("consumer session not found")
	}

	ev := event.New("/dead/t", map[string]string{"k": "v"})
	if !srv.KillSessionAndDeliver(sessID, "sub-1", ev) {
		t.Fatal("KillSessionAndDeliver: session unknown")
	}
	select {
	case d := <-drops:
		if !errors.Is(d.err, net.ErrClosed) {
			t.Errorf("drop error = %v, want net.ErrClosed", d.err)
		}
		if d.sessionID != sessID || d.sub != "sub-1" || d.ev != ev {
			t.Errorf("drop = %+v, want session %d sub-1 with the delivered event", d, sessID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dead-session delivery not reported through OnDeliveryError")
	}
	if got := srv.Stats().DroppedDeliveries; got != 1 {
		t.Errorf("DroppedDeliveries = %d, want 1", got)
	}
	if got := srv.Stats().OverflowDrops; got != 0 {
		t.Errorf("OverflowDrops = %d, want 0 (transport failure is not an overflow)", got)
	}
}

// TestServerCloseStalledConsumer: under the default ServerConfig (no
// WriteTimeout), a consumer that subscribes and never reads fills its
// session's writer queue until a delivery parks on it, holding the
// publisher's read loop. Server.Close must still return, and the parked
// delivery is counted in DroppedDeliveries.
func TestServerCloseStalledConsumer(t *testing.T) {
	br := broker.New(label.NewPolicy())
	defer br.Close()
	srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	stalled := dialStalled(t, srv.Addr(), "stalled", "/stall", "s-0")
	defer stalled.Close()

	pub, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial publisher: %v", err)
	}
	defer pub.Close()
	var enc stomp.Encoder
	dec := stomp.NewDecoder(bufio.NewReader(pub))
	connect := stomp.NewFrame(stomp.CmdConnect)
	connect.SetHeader(stomp.HdrLogin, "publisher")
	if err := enc.Encode(pub, connect); err != nil {
		t.Fatalf("publisher CONNECT: %v", err)
	}
	if f, err := dec.Decode(); err != nil || f.Command != stomp.CmdConnected {
		t.Fatalf("publisher handshake: frame %v, err %v", f, err)
	}
	// Publish 16 KiB events one receipt at a time. The first whose
	// delivery parks on the stalled queue gets no RECEIPT until Close, and
	// is the last.
	var halt atomic.Bool
	published := make(chan struct{})
	go func() {
		defer close(published)
		body := make([]byte, 16<<10)
		for i := 1; !halt.Load(); i++ {
			send := stomp.NewFrame(stomp.CmdSend)
			send.SetHeader(stomp.HdrDestination, "/stall")
			send.SetHeader(stomp.HdrReceipt, strconv.Itoa(i))
			send.Body = body
			if enc.Encode(pub, send) != nil {
				return
			}
			if f, err := dec.Decode(); err != nil || f.Command != stomp.CmdReceipt {
				return
			}
		}
	}()
	waitFor(t, "a delivery parked on the stalled consumer's writer queue", func() bool { return parkedAt("stomp.enqueue") > 0 })
	halt.Store(true)
	closeWithin(t, srv, 5*time.Second)
	<-published
	if got := srv.Stats().DroppedDeliveries; got != 1 {
		t.Errorf("DroppedDeliveries = %d, want 1 (the parked delivery)", got)
	}
}

// parkedAt reads how many goroutines, process-wide, are parked at the
// named park site.
func parkedAt(name string) int {
	for _, s := range park.Sites() {
		if s.Name() == name {
			return s.Parked()
		}
	}
	return 0
}

// dialStalled connects a raw STOMP subscriber that completes the CONNECT
// handshake, subscribes to topic (receipt-confirmed, so deliveries are
// guaranteed to start flowing) and then never reads again — the
// slow-consumer chaos tests' dead weight. The small read buffer bounds how
// much the kernel absorbs on the stalled connection's behalf.
func dialStalled(t testing.TB, addr, login, topic, subID string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial stalled: %v", err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	br := bufio.NewReader(conn)
	connect := stomp.NewFrame(stomp.CmdConnect)
	connect.SetHeader(stomp.HdrLogin, login)
	if err := new(stomp.Encoder).Encode(conn, connect); err != nil {
		t.Fatalf("stalled CONNECT: %v", err)
	}
	f, err := stomp.NewDecoder(br).Decode()
	if err != nil || f.Command != stomp.CmdConnected {
		t.Fatalf("stalled handshake: frame %v, err %v", f, err)
	}
	sub := stomp.NewFrame(stomp.CmdSubscribe)
	sub.SetHeader(stomp.HdrID, subID)
	sub.SetHeader(stomp.HdrDestination, topic)
	sub.SetHeader(stomp.HdrReceipt, "r-sub")
	if err := new(stomp.Encoder).Encode(conn, sub); err != nil {
		t.Fatalf("stalled SUBSCRIBE: %v", err)
	}
	for {
		f, err := stomp.NewDecoder(br).Decode()
		if err != nil {
			t.Fatalf("stalled waiting for SUBSCRIBE receipt: %v", err)
		}
		if f.Command == stomp.CmdReceipt {
			return conn
		}
	}
}

// TestChaosSlowConsumers drives the networked broker with one session
// that stops reading mid-stream plus healthy engine subscriptions and
// concurrent publishers, under each non-blocking overflow policy.
//
// The invariants: healthy subscriptions receive every published event
// exactly once (the stalled session absorbs its own loss); publishes stay
// bounded (never wedged behind the dead peer); the policy acts on the
// stalled session — drop-newest keeps dropping its incoming deliveries,
// disconnect evicts the whole session — and every suppressed delivery is
// counted in OverflowDrops and reported through OnDeliveryError with
// ErrSlowConsumer. Under -race it doubles as the data-race check for the
// overflow paths (EnqueueTry, eviction racing concurrent publishers).
func TestChaosSlowConsumers(t *testing.T) {
	const (
		healthySubs = 3
		publishers  = 2
		perBatch    = 8 // per publisher; 2*8*healthySubs = 48 frames/batch < queueLen
		queueLen    = 64
		maxEvents   = 2000
	)

	run := func(t *testing.T, overflow broker.OverflowPolicy, stop func(broker.ServerStats) bool) {
		policy := label.NewPolicy()
		policy.Grant("consumer", label.Clearance, label.MustParsePattern("label:conf:slow.test/*"))
		policy.Grant("stalled", label.Clearance, label.MustParsePattern("label:conf:slow.test/*"))
		br := broker.New(policy)
		defer br.Close()

		var slowDrops, otherDrops atomic.Uint64
		var dropMu sync.Mutex
		dropSessions := make(map[uint64]bool)
		srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{
			Logf:          t.Logf,
			Overflow:      overflow,
			WriteQueueLen: queueLen,
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

		// Healthy consumers: one engine with healthySubs subscriptions.
		var seenMu sync.Mutex
		seen := make([]map[int]int, healthySubs)
		for i := range seen {
			seen[i] = make(map[int]int)
		}
		var seenTotal atomic.Int64
		eng, err := engine.New(engine.Config{
			Policy: policy,
			Bus: func(principal string) (broker.Bus, error) {
				return broker.DialBus(srv.Addr(), broker.ClientConfig{
					Login: principal,
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
			for i := 0; i < healthySubs; i++ {
				i := i
				if err := ctx.Subscribe("/slow/out", "", func(_ *engine.Context, ev *event.Event) error {
					seq, err := strconv.Atoi(ev.Attr("seq"))
					if err != nil {
						return fmt.Errorf("bad seq attr %q: %v", ev.Attr("seq"), err)
					}
					seenMu.Lock()
					seen[i][seq]++
					seenMu.Unlock()
					seenTotal.Add(1)
					return nil
				}); err != nil {
					return err
				}
			}
			return nil
		}})
		if err != nil {
			t.Fatalf("AddUnit: %v", err)
		}

		// The slow consumer: subscribes, then never reads again.
		conn := dialStalled(t, srv.Addr(), "stalled", "/slow/out", "s-0")
		defer conn.Close()
		var stalledID uint64
		for _, ss := range srv.SessionStats() {
			if ss.Login == "stalled" {
				stalledID = ss.ID
			}
		}
		if stalledID == 0 {
			t.Fatal("stalled session not found")
		}

		// Publishers: paced batches of labelled events with 16KB bodies —
		// big enough that the stalled connection's kernel buffers fill and
		// the policy has to act. Between batches the healthy subscriptions
		// are allowed to catch up, so their queues never overflow and the
		// exactly-once invariant below really tests the policy's
		// selectivity, not the pacing.
		body := make([]byte, 16*1024)
		lbl := label.Conf("slow.test/records")
		var seq atomic.Int64
		var maxPublish atomic.Int64 // ns
		published := 0
		deadline := time.Now().Add(2 * time.Minute)
		for !stop(srv.Stats()) {
			if published >= maxEvents {
				t.Fatalf("published %d events without the overflow policy acting: stats %+v",
					published, srv.Stats())
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out after %d events: stats %+v", published, srv.Stats())
			}
			var wg sync.WaitGroup
			for p := 0; p < publishers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; n < perBatch; n++ {
						s := seq.Add(1) - 1
						ev := event.New("/slow/out",
							map[string]string{"seq": strconv.FormatInt(s, 10)}, lbl)
						ev.Body = body
						start := time.Now()
						err := br.Publish("consumer", ev)
						el := int64(time.Since(start))
						for {
							cur := maxPublish.Load()
							if el <= cur || maxPublish.CompareAndSwap(cur, el) {
								break
							}
						}
						if err != nil {
							t.Errorf("Publish seq %d: %v", s, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			published = int(seq.Load())
			// Healthy catch-up barrier: their queues drain fully before the
			// next batch.
			for seenTotal.Load() < int64(published*healthySubs) {
				if time.Now().After(deadline) {
					t.Fatalf("healthy consumers stalled: %d of %d deliveries after %d events (lost to the policy?)",
						seenTotal.Load(), published*healthySubs, published)
				}
				time.Sleep(time.Millisecond)
			}
		}

		// No publish may have wedged behind the dead peer: with a
		// non-blocking policy the enqueue path never waits on the stalled
		// session's writer.
		if max := time.Duration(maxPublish.Load()); max > 5*time.Second {
			t.Errorf("slowest Publish took %v; want bounded (never wedged on the stalled session)", max)
		}

		// Exactly-once for every healthy subscription, across everything
		// published.
		seenMu.Lock()
		for i := 0; i < healthySubs; i++ {
			if len(seen[i]) != published {
				t.Errorf("subscription %d: %d distinct events, want %d", i, len(seen[i]), published)
			}
			for s, n := range seen[i] {
				if n != 1 {
					t.Errorf("subscription %d: seq %d delivered %d times, want exactly once", i, s, n)
				}
			}
		}
		seenMu.Unlock()

		// Accounting consistency: every suppressed delivery was both
		// counted and hooked, and only the stalled session was touched.
		stats := srv.Stats()
		if stats.OverflowDrops == 0 {
			t.Error("no overflow drops recorded")
		}
		if got := slowDrops.Load(); got != stats.OverflowDrops {
			t.Errorf("ErrSlowConsumer hooks %d != Stats().OverflowDrops %d", got, stats.OverflowDrops)
		}
		if got := otherDrops.Load(); got != stats.DroppedDeliveries {
			t.Errorf("non-overflow drop hooks %d != Stats().DroppedDeliveries %d", got, stats.DroppedDeliveries)
		}
		if stats.QueueHighWater != queueLen {
			t.Errorf("QueueHighWater = %d, want %d (the stalled queue filled)", stats.QueueHighWater, queueLen)
		}
		dropMu.Lock()
		for id := range dropSessions {
			if id != stalledID {
				t.Errorf("delivery dropped for session %d; only the stalled session %d may lose deliveries", id, stalledID)
			}
		}
		dropMu.Unlock()
		// Per session, every overflow drop is the stalled session's.
		for _, ss := range srv.SessionStats() {
			switch {
			case ss.ID == stalledID && ss.OverflowDrops != stats.OverflowDrops:
				t.Errorf("stalled session OverflowDrops = %d, want the server's %d", ss.OverflowDrops, stats.OverflowDrops)
			case ss.ID != stalledID && ss.OverflowDrops != 0:
				t.Errorf("session %d (%s) OverflowDrops = %d; only the stalled session may overflow", ss.ID, ss.Login, ss.OverflowDrops)
			}
		}
		switch {
		case overflow != broker.OverflowDisconnect && stats.SlowConsumerEvictions != 0:
			t.Errorf("SlowConsumerEvictions = %d under %v, which never evicts", stats.SlowConsumerEvictions, overflow)
		case stats.SlowConsumerEvictions > 1:
			t.Errorf("SlowConsumerEvictions = %d; one stalled session is evicted once", stats.SlowConsumerEvictions)
		case stats.SlowConsumerEvictions == 1:
			// The eviction must really tear the session down: the read
			// loop observes the killed connection and the disconnect path
			// removes the session (and its subscriptions) from the server.
			evictDeadline := time.Now().Add(10 * time.Second)
			for {
				gone := true
				for _, ss := range srv.SessionStats() {
					if ss.ID == stalledID {
						gone = false
					}
				}
				if gone {
					break
				}
				if time.Now().After(evictDeadline) {
					t.Error("stalled session still registered after eviction")
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	t.Run("drop-newest", func(t *testing.T) {
		run(t, broker.OverflowDropNewest, func(st broker.ServerStats) bool {
			return st.OverflowDrops >= 20
		})
	})

	t.Run("disconnect", func(t *testing.T) {
		var evicted atomic.Bool
		run(t, broker.OverflowDisconnect, func(st broker.ServerStats) bool {
			if st.SlowConsumerEvictions > 0 {
				evicted.Store(true)
				return true
			}
			return false
		})
		if !evicted.Load() {
			t.Fatal("stalled session never evicted")
		}
	})
}
