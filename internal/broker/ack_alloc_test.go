//go:build !race

// The race detector drops pooled events at random, so allocation counts
// are only exact without it.

package broker

import (
	"bufio"
	"bytes"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// TestDurableDeliveryAllocs pins what a durable credited consumer's
// steady-state delivery allocates on the client, from the read loop's
// decode to the release that acks it: the body alone. The delivery's
// number is a counter on the read loop that the pooled event keeps for its
// release hook, the frontier needs no FIFO, and the ACK is the slot the
// connection writer encodes from its scratch buffer. With an empty body
// the decode allocates nothing, so the delivery and its release cost 0. A
// stand-in broker answers the handshake and the subscription, then only
// discards what the client sends, so every allocation counted is the
// client's.
func TestDurableDeliveryAllocs(t *testing.T) {
	t.Run("unlabelled", func(t *testing.T) { testDurableDeliveryAllocs(t, nil, "payload", 1) })
	t.Run("unlabelled, empty body", func(t *testing.T) { testDurableDeliveryAllocs(t, nil, "", 0) })
	// A reader's label memo holds every header of a topic that draws on a
	// few sets, so none is parsed twice.
	headers := make([]string, 32)
	for i := range headers {
		headers[i] = label.NewSet(label.Conf("ecric.org.uk/mdt/"+strconv.Itoa(i)), label.Conf("ecric.org.uk/patient/"+strconv.Itoa(30000000+i))).String()
	}
	t.Run("32 rotating label headers", func(t *testing.T) { testDurableDeliveryAllocs(t, headers, "payload", 1) })
}

// testDurableDeliveryAllocs runs TestDurableDeliveryAllocs with MESSAGEs
// that carry the given label headers in turn, or none, and body, and
// allows want allocations per delivery.
func testDurableDeliveryAllocs(t *testing.T, headers []string, body string, want float64) {
	const (
		warm  = 512
		count = 4096
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	accepted, served := make(chan net.Conn, 1), make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		dec := stomp.NewDecoder(br)
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
		buf := make([]byte, 64<<10)
		for {
			if _, err := br.Read(buf); err != nil {
				return
			}
		}
	}()

	c, err := DialBus(ln.Addr().String(), ClientConfig{Login: "consumer", DurableGroup: "g", SubscribeCredit: 64})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	defer func() {
		c.AbruptClose()
		_ = ln.Close()
		<-served
	}()
	var handled atomic.Int64
	warmed, done := make(chan struct{}), make(chan struct{})
	sub, err := c.Subscribe("/d/allocs", "", func(ev *event.Event) {
		ev.Release()
		switch handled.Add(1) {
		case warm:
			close(warmed)
		case warm + count:
			close(done)
		}
	})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	conn := <-accepted
	messages := func(from, to int) []byte {
		var buf bytes.Buffer
		var enc stomp.Encoder
		for off := from; off < to; off++ {
			f := stomp.NewFrame(stomp.CmdMessage)
			f.SetHeader(stomp.HdrDestination, "/d/allocs")
			f.SetHeader(stomp.HdrSubscription, sub)
			f.SetHeader(stomp.HdrMessageID, "m-"+strconv.Itoa(off))
			if len(headers) > 0 {
				f.SetHeader(event.HeaderLabels, headers[off%len(headers)])
			}
			f.Body = []byte(body)
			if err := enc.Encode(&buf, f); err != nil {
				t.Fatalf("Encode: %v", err)
			}
		}
		return buf.Bytes()
	}
	if _, err := conn.Write(messages(0, warm)); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-warmed
	batch := messages(warm, warm+count)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write(batch); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-done
	runtime.ReadMemStats(&after)
	perDelivery := float64(after.Mallocs-before.Mallocs) / count
	t.Logf("%.3f allocs per delivery", perDelivery)
	if perDelivery > want+0.05 {
		t.Errorf("%.3f allocs per delivery, want %g", perDelivery, want)
	}
}

// TestDurableReplayAllocs pins what a replay feed allocates on the server
// per replayed record: nothing of its own, only a share of what each run
// of up to 64 records costs — the buffer the run is read into and the
// slab of images that alias it, about 2/64 per record. The feed's label
// memo holds every header of a topic that draws on a few sets, so each is
// parsed once, and a run hands back the memo's own header strings, so
// none is copied out of the run buffer, whatever order the sets come in.
// A raw consumer discards what it reads, so every allocation counted is
// the server's.
func TestDurableReplayAllocs(t *testing.T) {
	sets := make([]label.Set, 32)
	for i := range sets {
		sets[i] = label.NewSet(label.Conf("ecric.org.uk/mdt/"+strconv.Itoa(i)), label.Conf("ecric.org.uk/patient/"+strconv.Itoa(30000000+i)))
	}
	t.Run("32 label sets in rotation", func(t *testing.T) {
		testDurableReplayAllocs(t, func(i int) label.Set { return sets[i%len(sets)] }, 0.1)
	})
	rnd := rand.New(rand.NewSource(1))
	t.Run("32 label sets drawn at random", func(t *testing.T) {
		testDurableReplayAllocs(t, func(int) label.Set { return sets[rnd.Intn(len(sets))] }, 0.1)
	})
}

func testDurableReplayAllocs(t *testing.T, setOf func(i int) label.Set, bound float64) {
	const (
		topic = "/d/replay-allocs"
		warm  = 512
		count = 8192
	)
	b, srv := startDurableBroker(t, testPolicy(), t.TempDir(), topic)
	for i := 0; i < warm+count; i++ {
		ev := event.New(topic, map[string]string{"seq": strconv.Itoa(i)})
		ev.Labels = setOf(i)
		if err := b.Publish("producer", ev); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
	conn, rd := rawDurableConn(t, srv.Addr(), "wild")
	rawSubscribe(t, conn, rd, topic, "d-0", map[string]string{
		stomp.HdrCredit: strconv.Itoa(warm),
		stomp.HdrOffset: "earliest",
	})
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := rd.Read(buf); err != nil {
				return
			}
		}
	}()
	delivered := func(n uint64) func() bool {
		return func() bool { return srv.Stats().ReplayDeliveries == n }
	}
	waitFor(t, "the warm-up deliveries", delivered(warm))
	waitFor(t, "the feed to wait for credit", feedWaiting)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rawAck(t, conn, "d-0", strconv.Itoa(warm+count), "")
	waitFor(t, "the replay", delivered(warm+count))
	runtime.ReadMemStats(&after)
	if st := srv.Stats(); st.ReplayFiltered != 0 {
		t.Fatalf("ReplayFiltered = %d, want 0", st.ReplayFiltered)
	}
	perRecord := float64(after.Mallocs-before.Mallocs) / count
	t.Logf("%.3f allocs per replayed record", perRecord)
	if perRecord > bound {
		t.Errorf("%.3f allocs per replayed record, want at most %.2f", perRecord, bound)
	}
}
