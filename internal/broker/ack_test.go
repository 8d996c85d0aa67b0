package broker

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// ackCountingProxy forwards every connection it accepts to upstream,
// decoding the client's frames on the way to count its ACKs: every ACK,
// and those carrying an offset header.
type ackCountingProxy struct {
	addr          string
	acks, offsets atomic.Int64
}

func newAckCountingProxy(t *testing.T, upstream string) *ackCountingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	p := &ackCountingProxy{addr: ln.Addr().String()}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				_ = down.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, down, up)
			mu.Unlock()
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(down, up)
				_ = down.Close()
			}()
			go func() {
				defer wg.Done()
				defer up.Close()
				dec := stomp.NewDecoder(bufio.NewReader(down))
				var enc stomp.Encoder
				for {
					f, err := dec.Decode()
					if err != nil {
						return
					}
					if f.Command == stomp.CmdAck {
						p.acks.Add(1)
						if f.Header(stomp.HdrOffset) != "" {
							p.offsets.Add(1)
						}
					}
					if enc.Encode(up, f) != nil {
						return
					}
				}
			}()
		}
	}()
	return p
}

// TestDurableAnonymousSendsNoOffsetAck: a durable subscription without a
// group has no progress for the broker to persist, so its client sends no
// offset ack — no ACK at all without a credit window, and credit grants
// alone with one. A grouped subscription through the same proxy is the
// control: its offset acks are counted.
func TestDurableAnonymousSendsNoOffsetAck(t *testing.T) {
	const (
		topic = "/d/anon"
		n     = 20
	)
	_, srv := startDurableBroker(t, testPolicy(), t.TempDir(), topic)
	producer := dialBus(t, srv.Addr(), "producer")
	for seq := 0; seq < n; seq++ {
		publishDurableSeq(t, producer, topic, seq)
	}
	waitFor(t, "journal appends", func() bool { return srv.Stats().DurableAppends == n })

	for _, tc := range []struct {
		name          string
		group         string
		credit        int
		acks, offsets bool
	}{
		{"anonymous", "", 0, false, false},
		{"anonymous credited", "", 4, true, false},
		{"grouped", "g", 0, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proxy := newAckCountingProxy(t, srv.Addr())
			c := dialDurable(t, proxy.addr, "consumer", tc.group, "earliest", tc.credit)
			h, seqs := seqCollector(t, func(int) bool { return true })
			if _, err := c.Subscribe(topic, "", h); err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			waitFor(t, "replay", func() bool { return len(seqs()) == n })
			// Every release is done; its ACK, if any, is queued ahead of
			// the Sync receipt Flush waits for.
			if err := c.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			acks, offsets := proxy.acks.Load(), proxy.offsets.Load()
			if (acks > 0) != tc.acks || (offsets > 0) != tc.offsets {
				t.Errorf("%d ACK frames reached the broker, %d with an offset; want ACKs %v, offset acks %v",
					acks, offsets, tc.acks, tc.offsets)
			}
			if got := srv.Stats().UnhandledFrames; got != 0 {
				t.Errorf("UnhandledFrames = %d, want 0", got)
			}
		})
	}
}

// TestDurableTailAckNotStranded: once a burst stops, the group's
// persisted ack reaches one past the last offset with no further traffic
// — the last releases' frontier is never held back waiting for more.
func TestDurableTailAckNotStranded(t *testing.T) {
	const (
		topic = "/d/tail"
		n     = 300
	)
	for _, credit := range []int{0, 16} {
		t.Run("credit="+strconv.Itoa(credit), func(t *testing.T) {
			_, srv := startDurableBroker(t, testPolicy(), t.TempDir(), topic)
			j, err := srv.journals.open(topic)
			if err != nil {
				t.Fatalf("journal: %v", err)
			}
			c := dialDurable(t, srv.Addr(), "consumer", "g", "", credit)
			h, seqs := seqCollector(t, func(int) bool { return true })
			if _, err := c.Subscribe(topic, "", h); err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			producer := dialBus(t, srv.Addr(), "producer")
			for seq := 0; seq < n; seq++ {
				publishDurableSeq(t, producer, topic, seq)
			}
			waitFor(t, "every delivery", func() bool { return len(seqs()) == n })
			waitFor(t, "the tail ack", func() bool { return j.Acked("g") == n })
		})
	}
}

// ackCount sends an ACK of the subscription's first k deliveries and
// reads frames up to its receipt, keeping them on the tap.
func ackCount(c *tapConn, sub string, k int) {
	c.t.Helper()
	c.send(stomp.CmdAck, stomp.HdrSubscription, sub, stomp.HdrOffset, strconv.Itoa(k), stomp.HdrReceipt, "ack-"+strconv.Itoa(k))
	c.next(stomp.CmdReceipt)
}

// publishRecords publishes n events with seq attributes from..from+n-1
// and the given labels, in process.
func publishRecords(t *testing.T, b *Broker, topic string, from, n int, labels ...label.Label) {
	t.Helper()
	for seq := from; seq < from+n; seq++ {
		ev := event.New(topic, map[string]string{"seq": strconv.Itoa(seq)}, labels...)
		if err := b.Publish("producer", ev); err != nil {
			t.Fatalf("Publish seq %d: %v", seq, err)
		}
	}
}

// readSeqs reads n MESSAGE frames and returns their seq attributes.
func readSeqs(c *tapConn, n int) []int {
	c.t.Helper()
	seqs := make([]int, n)
	for i := range seqs {
		f := c.next(stomp.CmdMessage)
		seq, err := strconv.Atoi(f.Header("seq"))
		if err != nil {
			c.t.Fatalf("MESSAGE without numeric seq: %v", f)
		}
		seqs[i] = seq
	}
	return seqs
}

// feedUnacked reports how many deliveries the replay feed of subscription
// sub has sent and not seen acked, and the slots its ring holds.
func feedUnacked(srv *Server, sub string) (n int64, slots int) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, ss := range srv.sessions {
		if ws := ss.subs[sub]; ws != nil && ws.replay != nil {
			f := ws.replay
			f.mu.Lock()
			n, slots = f.sent-f.acked, len(f.offs)
			f.mu.Unlock()
		}
	}
	return n, slots
}

// feedWaiting reports whether a replay feed is parked waiting for its
// window.
func feedWaiting() bool { return windowSite.Parked() > 0 }

// TestDurableAckCountNoOps: an ACK of zero deliveries, a stale count and a
// repeated one change nothing and are not errors.
func TestDurableAckCountNoOps(t *testing.T) {
	const topic = "/d/noop"
	b, srv := startDurableBroker(t, testPolicy(), t.TempDir(), topic)
	j, err := srv.journals.open(topic)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	publishRecords(t, b, topic, 0, 3)
	c := dialTap(t, srv.Addr(), "consumer")
	c.send(stomp.CmdSubscribe, stomp.HdrID, "d-0", stomp.HdrDestination, topic, stomp.HdrGroup, "g")
	readSeqs(c, 3)

	ackCount(c, "d-0", 0)
	if got := j.Acked("g"); got != 0 {
		t.Fatalf("after offset:0 Acked = %d, want 0", got)
	}
	ackCount(c, "d-0", 2)
	if got := j.Acked("g"); got != 2 {
		t.Fatalf("after offset:2 Acked = %d, want 2", got)
	}
	for _, k := range []int{1, 2, 0} {
		ackCount(c, "d-0", k)
		if got := j.Acked("g"); got != 2 {
			t.Fatalf("after stale offset:%d Acked = %d, want 2", k, got)
		}
	}
	ackCount(c, "d-0", 3)
	if got := j.Acked("g"); got != 3 {
		t.Fatalf("after offset:3 Acked = %d, want 3", got)
	}
	if got := srv.Stats().UnhandledFrames; got != 0 {
		t.Errorf("UnhandledFrames = %d, want 0", got)
	}
}

// TestDurableAckCountAboveDelivered: an ACK of more deliveries than the
// subscription was sent is refused with an ERROR, counted, and moves no
// mark — a credit grant on the same frame included.
func TestDurableAckCountAboveDelivered(t *testing.T) {
	const topic = "/d/above"
	b, srv := startDurableBroker(t, testPolicy(), t.TempDir(), topic)
	j, err := srv.journals.open(topic)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	publishRecords(t, b, topic, 0, 5)
	c := dialTap(t, srv.Addr(), "consumer")
	c.send(stomp.CmdSubscribe, stomp.HdrID, "d-0", stomp.HdrDestination, topic, stomp.HdrGroup, "g", stomp.HdrCredit, "3")
	readSeqs(c, 3)
	ackCount(c, "d-0", 1)

	c.send(stomp.CmdAck, stomp.HdrSubscription, "d-0", stomp.HdrOffset, "4", stomp.HdrCredit, "5")
	c.next(stomp.CmdError)
	if got := srv.Stats().UnhandledFrames; got != 1 {
		t.Errorf("UnhandledFrames = %d, want 1", got)
	}
	if got := j.Acked("g"); got != 1 {
		t.Errorf("Acked = %d, want 1 (the refused frame moves no mark)", got)
	}
	if got := srv.Stats().ReplayDeliveries; got != 3 {
		t.Errorf("ReplayDeliveries = %d, want 3 (the refused frame grants no credit)", got)
	}
}

// TestDurableAckCountKeepsWithheld: a record withheld between visible
// deliveries #k and #k+1 stays above the mark an ack of k persists, so a
// clearance granted before the group resumes delivers it.
func TestDurableAckCountKeepsWithheld(t *testing.T) {
	const topic = "/d/withheld"
	p := testPolicy()
	b, srv := startDurableBroker(t, p, t.TempDir(), topic)
	j, err := srv.journals.open(topic)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	mdt9 := label.Conf("ecric.org.uk/mdt/9")
	publishRecords(t, b, topic, 0, 2)
	publishRecords(t, b, topic, 2, 1, mdt9)
	publishRecords(t, b, topic, 3, 1)

	first := dialTap(t, srv.Addr(), "cleared")
	first.send(stomp.CmdSubscribe, stomp.HdrID, "d-0", stomp.HdrDestination, topic, stomp.HdrGroup, "g")
	if got := readSeqs(first, 3); !sameSeqs(got, []int{0, 1, 3}) {
		t.Fatalf("first deliveries = %v, want [0 1 3]", got)
	}
	ackCount(first, "d-0", 2)
	if got := j.Acked("g"); got != 2 {
		t.Fatalf("Acked = %d, want 2: one past delivery #2, below the withheld record", got)
	}
	_ = first.conn.Close()

	p.Grant("cleared", label.Clearance, label.MustParsePattern("label:conf:ecric.org.uk/mdt/9"))
	resumed := dialTap(t, srv.Addr(), "cleared")
	resumed.send(stomp.CmdSubscribe, stomp.HdrID, "d-0", stomp.HdrDestination, topic, stomp.HdrGroup, "g")
	if got := readSeqs(resumed, 2); !sameSeqs(got, []int{2, 3}) {
		t.Fatalf("resumed deliveries = %v, want [2 3]: the record withheld before is cleared now", got)
	}
}

// TestDurableUnackedWindow: a grouped feed waits once maxUnackedReplay of
// its deliveries are unacked. A raw consumer that never acks receives
// exactly that many; each ack lets as many more through as it acked, and
// persists the exact mark, because the feed still knows every unacked
// delivery's offset.
func TestDurableUnackedWindow(t *testing.T) {
	const (
		topic   = "/d/window"
		records = maxUnackedReplay + 10
	)
	b, srv := startDurableBroker(t, testPolicy(), t.TempDir(), topic)
	j, err := srv.journals.open(topic)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	publishRecords(t, b, topic, 0, records)
	c := dialTap(t, srv.Addr(), "consumer")
	c.send(stomp.CmdSubscribe, stomp.HdrID, "d-0", stomp.HdrDestination, topic, stomp.HdrGroup, "g")

	// parked waits for the feed to park in its window wait having queued
	// sent deliveries, then checks that nothing beyond them reached the
	// consumer.
	parked := func(sent int) {
		t.Helper()
		waitFor(t, "the feed to wait for its window", feedWaiting)
		if got := srv.Stats().ReplayDeliveries; got != uint64(sent) {
			t.Fatalf("ReplayDeliveries = %d with the feed waiting, want %d", got, sent)
		}
		before := len(c.frames)
		c.sync()
		if extra := len(c.frames) - before - 1; extra != 0 {
			t.Fatalf("%d frames arrived beyond the window of %d deliveries", extra, sent)
		}
		if got, slots := feedUnacked(srv, "d-0"); got > maxUnackedReplay || slots > maxUnackedReplay {
			t.Fatalf("feed holds %d unacked deliveries in %d slots, want at most %d in at most %d", got, slots, maxUnackedReplay, maxUnackedReplay)
		}
	}

	if got := readSeqs(c, maxUnackedReplay); got[len(got)-1] != maxUnackedReplay-1 {
		t.Fatalf("delivery #%d carries seq %d", maxUnackedReplay, got[len(got)-1])
	}
	parked(maxUnackedReplay)

	// An ack of 5 persists exactly 5 and opens the window by 5.
	c.send(stomp.CmdAck, stomp.HdrSubscription, "d-0", stomp.HdrOffset, "5")
	if got := readSeqs(c, 5); !sameSeqs(got, []int{4096, 4097, 4098, 4099, 4100}) {
		t.Fatalf("after an ack of 5: seqs %v, want 4096..4100", got)
	}
	parked(maxUnackedReplay + 5)
	if got := j.Acked("g"); got != 5 {
		t.Fatalf("after an ack of 5: Acked = %d, want 5", got)
	}

	c.send(stomp.CmdAck, stomp.HdrSubscription, "d-0", stomp.HdrOffset, strconv.Itoa(maxUnackedReplay+5))
	readSeqs(c, 5)
	waitFor(t, "every record queued", func() bool { return srv.Stats().ReplayDeliveries == records })
	ackCount(c, "d-0", records)
	if got := j.Acked("g"); got != records {
		t.Fatalf("after the full ack: Acked = %d, want %d", got, records)
	}
	if got, _ := feedUnacked(srv, "d-0"); got != 0 {
		t.Errorf("feed holds %d unacked deliveries after the full ack, want 0", got)
	}
}

// TestDurableAckFrontierRandomOrder: a grouped client that releases its
// deliveries in random order acks, each time, the longest released
// prefix — never a delivery behind an unreleased one.
func TestDurableAckFrontierRandomOrder(t *testing.T) {
	const n = 64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	// A stand-in broker answers the handshake and the subscription, then
	// records the highest offset ack the client sends.
	var acked atomic.Int64
	accepted, served := make(chan net.Conn, 1), make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := stomp.NewDecoder(bufio.NewReader(conn))
		var enc stomp.Encoder
		for _, reply := range []string{stomp.CmdConnected, stomp.CmdReceipt} {
			f, err := dec.Decode()
			if err != nil {
				return
			}
			r := stomp.NewFrame(reply)
			if id := f.Header(stomp.HdrReceipt); id != "" {
				r.SetHeader(stomp.HdrReceiptID, id)
			}
			if enc.Encode(conn, r) != nil {
				return
			}
		}
		accepted <- conn
		for {
			f, err := dec.Decode()
			if err != nil {
				return
			}
			if off, err := strconv.ParseInt(f.Header(stomp.HdrOffset), 10, 64); err == nil && f.Command == stomp.CmdAck {
				acked.Store(max(acked.Load(), off))
			}
		}
	}()

	c, err := DialBus(ln.Addr().String(), ClientConfig{Login: "consumer", DurableGroup: "g"})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	defer func() {
		c.AbruptClose()
		_ = ln.Close()
		<-served
	}()
	held := make(chan *event.Event, n)
	sub, err := c.Subscribe("/d/order", "", func(ev *event.Event) {
		held <- ev //lint:ignore noretain a bare client recycles a delivery only at Release, which the test calls later in its own order
	})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	conn := <-accepted
	var buf bytes.Buffer
	var enc stomp.Encoder
	for i := 0; i < n; i++ {
		f := stomp.NewFrame(stomp.CmdMessage)
		f.SetHeader(stomp.HdrDestination, "/d/order")
		f.SetHeader(stomp.HdrSubscription, sub)
		f.SetHeader(stomp.HdrMessageID, "m-"+strconv.Itoa(i))
		f.SetHeader("seq", strconv.Itoa(i))
		if err := enc.Encode(&buf, f); err != nil {
			t.Fatalf("Encode: %v", err)
		}
	}
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatalf("write: %v", err)
	}
	evs := make([]*event.Event, n)
	for range evs {
		ev := <-held
		seq, _ := strconv.Atoi(ev.Attr("seq"))
		evs[seq] = ev
	}

	released := make([]bool, n)
	prefix := 0
	for _, i := range rand.New(rand.NewSource(7)).Perm(n) {
		evs[i].Release()
		released[i] = true
		for prefix < n && released[prefix] {
			prefix++
		}
		deadline := time.Now().Add(5 * time.Second)
		for acked.Load() != int64(prefix) {
			if got := acked.Load(); got > int64(prefix) || time.Now().After(deadline) {
				t.Fatalf("after releasing %d: acked %d, want the released prefix %d", i, got, prefix)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
