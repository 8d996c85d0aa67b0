package stomp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// receiptOracle is the RECEIPT the server sent before it queued bare ids:
// a Frame, its one header in a map, the reference encoder.
func receiptOracle(t *testing.T, id string) []byte {
	t.Helper()
	f := NewFrame(CmdReceipt)
	f.SetHeader(HdrReceiptID, id)
	var buf bytes.Buffer
	var enc Encoder
	if err := enc.Encode(&buf, f); err != nil {
		t.Fatalf("reference Encode: %v", err)
	}
	return buf.Bytes()
}

// receiptIDs are receipt ids a client may choose, the ones needing header
// escaping included. The canonical decimals (1 to 19 digits, no leading
// zero) are queued as numbers, every other id as its string.
var receiptIDs = []string{
	"rcpt-1", "rcpt-18446744073709551615", "a:b", "line\nbreak", `back\slash`, "cr\rlf\n", "::", "é", "x",
	"1", "42", "9999999999999999999", "18446744073709551615", "0", "007", "-1", "abc",
}

// TestReceiptBytesMatchEncoder: a RECEIPT that Server.ack queues — as its
// number or as its bare id — reaches the wire, through the connection
// writer, as the bytes Encoder.Encode gives for the frame it replaced, and
// reaches it at once: the writer flushes when it has drained its queue.
func TestReceiptBytesMatchEncoder(t *testing.T) {
	var srv Server
	queue, _ := stalledWriter(t, 1)
	fillQueue(t, queue, 0)
	for _, id := range receiptIDs {
		srv.ack(&Session{fw: queue}, receiptView(t, id))
		of := <-queue.ch
		if numbered := strings.Trim(id, "0123456789") == "" && id[0] != '0' && len(id) <= 19; numbered != (of.receiptNo != 0) {
			t.Errorf("receipt %q queued as %+v, want numbered %v", id, of, numbered)
		}
		var direct bytes.Buffer
		var enc Encoder
		if err := enc.encodeReceipt(&direct, of.receipt, of.receiptNo); err != nil {
			t.Fatalf("encodeReceipt(%q): %v", id, err)
		}
		want := receiptOracle(t, id)
		if !bytes.Equal(direct.Bytes(), want) {
			t.Errorf("receipt %q: encoder bytes differ from Encode of the frame:\n got %q\nwant %q", id, direct.Bytes(), want)
		}

		server, client := net.Pipe()
		fw := newFrameWriter(server, 4, 0, nil)
		if err := fw.send(of); err != nil {
			t.Fatalf("send receipt %q: %v", id, err)
		}
		got := make([]byte, len(want))
		_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(client, got); err != nil {
			t.Fatalf("receipt %q never reached the peer: %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("receipt %q: wire bytes differ:\n got %q\nwant %q", id, got, want)
		}
		f, err := NewDecoder(bytes.NewReader(got)).Decode()
		if err != nil || f.Command != CmdReceipt || f.Header(HdrReceiptID) != id {
			t.Errorf("receipt %q decodes to %v, %v", id, f, err)
		}
		_ = client.Close()
		_ = fw.close()
		_ = server.Close()
	}
	var enc Encoder
	if got := testing.AllocsPerRun(100, func() { _ = enc.encodeReceipt(io.Discard, "rcpt-123456", 0) }); got != 0 {
		t.Errorf("encodeReceipt allocs/op = %v, want 0", got)
	}
}

// receiptView decodes a SEND asking for the given receipt, as the server's
// read loop would see it.
func receiptView(t *testing.T, receipt string) *FrameView {
	t.Helper()
	f := NewFrame(CmdSend)
	f.SetHeader(HdrDestination, "/t")
	if receipt != "" {
		f.SetHeader(HdrReceipt, receipt)
	}
	var buf bytes.Buffer
	var enc Encoder
	if err := enc.Encode(&buf, f); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	v, err := NewDecoder(&buf).DecodeView()
	if err != nil {
		t.Fatalf("DecodeView: %v", err)
	}
	return v
}

// TestReceiptAckQueuesTheID: Server.ack answers a receipt-tracked frame
// with one queued id — no Frame, no image — answers
// nothing when no receipt was asked for, refuses on a closed session like
// Session.Send, and costs the id string alone.
func TestReceiptAckQueuesTheID(t *testing.T) {
	fw, _ := stalledWriter(t, 8)
	fillQueue(t, fw, 0)
	sess := &Session{fw: fw}
	var srv Server

	srv.ack(sess, receiptView(t, ""))
	if len(fw.ch) != 0 {
		t.Fatal("a frame without a receipt header was acknowledged")
	}
	srv.ack(sess, receiptView(t, "rcpt:7"))
	if len(fw.ch) != 1 {
		t.Fatalf("queue depth %d after ack, want 1", len(fw.ch))
	}
	if of := <-fw.ch; of.f != nil || of.img != nil || of.receipt != "rcpt:7" || of.route.Subscription != "" {
		t.Errorf("queued %+v, want the bare id, unrouted", of)
	}

	v := receiptView(t, "rcpt-123456")
	if got := testing.AllocsPerRun(100, func() {
		srv.ack(sess, v)
		<-fw.ch
	}); got > 1 {
		t.Errorf("ack allocs/op = %v, want <= 1 (the id; the Frame and its map took 3 more)", got)
	}

	sess.closed.Store(true)
	srv.ack(sess, v)
	if len(fw.ch) != 0 {
		t.Error("a closed session queued a receipt")
	}
	if err := sess.Send(NewFrame(CmdReceipt)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Send on a closed session = %v, want net.ErrClosed", err)
	}
}

// dialPeer connects a Client to a hand-driven broker end: it answers
// CONNECT and then does what the test tells it to on the returned
// connection and reader.
func dialPeer(t *testing.T, cfg ClientConfig) (*Client, net.Conn, *bufio.Reader) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	type peer struct {
		conn net.Conn
		br   *bufio.Reader
	}
	accepted := make(chan peer, 1)
	go func() {
		defer close(accepted)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(conn)
		if _, err := br.ReadBytes(0); err != nil {
			return
		}
		if _, err := conn.Write([]byte("CONNECTED\nversion:1.1\ncontent-length:0\n\n\x00")); err != nil {
			return
		}
		accepted <- peer{conn, br}
	}()
	c, err := Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	p, ok := <-accepted
	if !ok {
		t.Fatal("the peer never completed the handshake")
	}
	t.Cleanup(func() {
		_ = c.Close()
		_ = p.conn.Close()
	})
	return c, p.conn, p.br
}

// appendReceipt appends the RECEIPT frame confirming id.
func appendReceipt(b []byte, id []byte) []byte {
	b = append(b, CmdReceipt+"\n"+HdrReceiptID+":"...)
	b = append(b, id...)
	return append(b, "\n"+HdrContentLength+":0\n\n\x00"...)
}

// TestSendNumberedBytesMatchEncoder: a SEND image with receipt number n
// reaches the wire as Encoder.Encode's bytes for the same frame with
// receipt:<n> in its header map, wherever "receipt" sorts among the
// image's headers.
func TestSendNumberedBytesMatchEncoder(t *testing.T) {
	for _, headers := range []map[string]string{nil, {"a": "1"}, {"seq": "7", "zz": "z"}, {"rec": "x", "receipts": "y"}} {
		for _, n := range []uint64{1, 9, 10, 4711, 1<<64 - 1} {
			f := NewFrame(CmdSend)
			f.SetHeader(HdrDestination, "/t")
			for k, v := range headers {
				f.SetHeader(k, v)
			}
			f.Body = []byte("body")
			img := sendImage("/t", headers, f.Body)
			f.SetHeader(HdrReceipt, strconv.FormatUint(n, 10))
			var got bytes.Buffer
			if err := new(Encoder).encodeSend(&got, img, "", n); err != nil {
				t.Fatalf("encodeSend: %v", err)
			}
			if want := encodeFrame(t, f); !bytes.Equal(got.Bytes(), want) {
				t.Errorf("receipt %d, headers %v:\n got %q\nwant %q", n, headers, got.Bytes(), want)
			}
		}
	}
}

// TestReceiptCountCumulative: RECEIPT n confirms every number up to n; a
// later, lower one changes nothing; an id that is not a number this
// connection sent is ignored; a wait times out naming its number; and a
// dead connection fails every wait it has not already answered.
func TestReceiptCountCumulative(t *testing.T) {
	errs := make(chan error, 16)
	c, peer, br := dialPeer(t, ClientConfig{Login: "u", OnError: func(err error) { errs <- err }})
	dec := NewDecoder(br)
	img := sendImage("/t", nil, nil)
	send := func(want uint64) {
		t.Helper()
		n, err := c.SendImageAsync(img)
		if err != nil || n != want {
			t.Fatalf("SendImageAsync = %d, %v; want %d", n, err, want)
		}
		f, err := dec.Decode()
		if err != nil || f.Header(HdrReceipt) != strconv.FormatUint(n, 10) {
			t.Fatalf("the peer read %v, %v; want a SEND with receipt %d", f, err, n)
		}
	}
	reply := func(ids ...string) {
		t.Helper()
		var b []byte
		for _, id := range ids {
			b = appendReceipt(b, []byte(id))
		}
		// An ERROR frame reaches OnError on the read loop after the
		// RECEIPTs ahead of it: a barrier.
		b = append(b, CmdError+"\nmessage:barrier\ncontent-length:0\n\n\x00"...)
		if _, err := peer.Write(b); err != nil {
			t.Fatalf("peer write: %v", err)
		}
		select {
		case <-errs:
		case <-time.After(5 * time.Second):
			t.Fatal("the read loop never reached the barrier")
		}
	}
	wait := func(n uint64, timeout time.Duration) error { return c.WaitReceipt(n, timeout) }

	for n := uint64(1); n <= 3; n++ {
		send(n)
	}
	reply("2")
	for _, n := range []uint64{0, 1, 2} {
		if err := wait(n, time.Nanosecond); err != nil {
			t.Errorf("receipt 2 confirmed, yet WaitReceipt(%d) = %v", n, err)
		}
	}
	reply("rcpt-3", "", "x3", "03", "+3", "-3", "3 ", "4", "18446744073709551618", "2", "1")
	if got := c.confirmed.Load(); got != 2 {
		t.Fatalf("confirmed = %d after a lower id, non-numbers and ids above the last sent, want 2", got)
	}
	err := wait(3, 20*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "receipt 3 ") {
		t.Errorf("WaitReceipt(3) = %v, want a timeout naming receipt 3", err)
	}
	send(4) // RECEIPT 4 arrived before 4 was sent: it must not count now
	if err := wait(4, 20*time.Millisecond); err == nil {
		t.Error("WaitReceipt(4) returned on a RECEIPT that came before receipt 4 was sent")
	}
	reply("4")
	if err := wait(3, time.Second); err != nil {
		t.Errorf("receipt 4 confirmed, yet WaitReceipt(3) = %v", err)
	}

	send(5)
	waited := make(chan error, 1)
	go func() { waited <- wait(5, 5*time.Second) }()
	_ = peer.Close()
	if err := <-waited; !errors.Is(err, net.ErrClosed) {
		t.Errorf("WaitReceipt(5) on a dead connection = %v, want net.ErrClosed", err)
	}
	if err := wait(4, 5*time.Second); err != nil {
		t.Errorf("WaitReceipt(4), confirmed before the connection died, = %v", err)
	}
	if err := wait(6, 5*time.Second); !errors.Is(err, net.ErrClosed) {
		t.Errorf("WaitReceipt(6) on a dead connection = %v, want net.ErrClosed", err)
	}
}

// TestReceiptsConcurrent: receipt-tracked sends from several goroutines
// on one connection each wait for their own number, and the count ends
// with every number taken confirmed.
func TestReceiptsConcurrent(t *testing.T) {
	const workers, each = 8, 50
	client, err := Dial(startEchoServer(t, nil).Addr(), ClientConfig{Login: "u"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	img := sendImage("/t", nil, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := client.SendImageReceipt(img, 5*time.Second); err != nil {
					t.Errorf("SendImageReceipt: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if last, confirmed := client.last.Load(), client.confirmed.Load(); last != workers*each || confirmed != last {
		t.Errorf("last = %d, confirmed = %d; want both %d", last, confirmed, workers*each)
	}
}

// TestWindowedPublishReceiptAllocs: a steady-state windowed publish — its
// number taken, the number encoded into the SEND, the RECEIPT decoded and
// confirmed, and the window's wait answered at once — allocates nothing.
func TestWindowedPublishReceiptAllocs(t *testing.T) {
	const window = 8
	c, peer, br := dialPeer(t, ClientConfig{Login: "u"})
	// The peer answers every SEND with its RECEIPT, allocating nothing.
	go func() {
		var out []byte
		for {
			frame, err := br.ReadSlice(0)
			if err != nil {
				return
			}
			i := bytes.Index(frame, []byte("\n"+HdrReceipt+":"))
			if i < 0 {
				continue
			}
			id := frame[i+len(HdrReceipt)+2:]
			id = id[:bytes.IndexByte(id, '\n')]
			out = appendReceipt(out[:0], id)
			if _, err := peer.Write(out); err != nil {
				return
			}
		}
	}()
	img := sendImage("/t", map[string]string{"k": "v"}, []byte("x"))
	publish := func() {
		n, err := c.SendImageAsync(img)
		if err != nil {
			t.Fatalf("SendImageAsync: %v", err)
		}
		if n <= window {
			return
		}
		for c.confirmed.Load() < n-window {
			time.Sleep(10 * time.Microsecond) // idles the P, so the read loop runs
		}
		if err := c.WaitReceipt(n-window, time.Second); err != nil {
			t.Fatalf("WaitReceipt: %v", err)
		}
	}
	for i := 0; i < 4*window; i++ {
		publish()
	}
	if got := testing.AllocsPerRun(500, publish); got != 0 {
		t.Errorf("windowed publish allocs/op = %v, want 0", got)
	}
}

// countingConn counts Write calls, and holds every one while gate is
// locked.
type countingConn struct {
	net.Conn
	gate   sync.RWMutex
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.gate.RLock()
	c.gate.RUnlock()
	return c.Conn.Write(p)
}

// frameCounter is a SessionHandler that signals when the nth frame
// arrives.
type frameCounter struct {
	n    int
	seen int
	done chan struct{}
}

func (h *frameCounter) OnConnect(*Session, string) error { return nil }
func (h *frameCounter) OnFrameView(*Session, *FrameView) error {
	if h.seen++; h.seen == h.n {
		close(h.done)
	}
	return nil
}
func (h *frameCounter) OnDisconnect(*Session) {}

// TestReceiptsCoalesce: RECEIPTs queued behind a busy session writer
// leave together. With the writer wedged in a write, a client's 64
// receipt-tracked SENDs queue 64 RECEIPTs; once it unwedges, they reach
// the client in at most two writes — the one that was wedged, and the
// batch behind it.
func TestReceiptsCoalesce(t *testing.T) {
	const n = 64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	h := &frameCounter{n: n + 1, done: make(chan struct{})}
	srv := &Server{cfg: ServerConfig{Handler: h, Logf: t.Logf}, sessions: make(map[uint64]*Session)}
	cc := &countingConn{}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		cc.Conn = conn
		sess := &Session{id: 1, conn: cc}
		sess.fw = newFrameWriter(cc, 2*n, 0, func(error) { _ = conn.Close() })
		srv.wg.Add(1)
		srv.serveSession(sess)
	}()
	t.Cleanup(srv.wg.Wait)
	c, err := Dial(ln.Addr().String(), ClientConfig{Login: "u"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	cc.gate.Lock()
	cc.writes.Store(0)
	img := sendImage("/t", nil, nil)
	var last uint64
	for i := 0; i < n; i++ {
		if last, err = c.SendImageAsync(img); err != nil {
			t.Fatalf("SendImageAsync: %v", err)
		}
	}
	// The session acks a frame before it reads the next, so once the
	// handler sees this one every RECEIPT is queued.
	if err := c.SendImage(img); err != nil {
		t.Fatalf("SendImage: %v", err)
	}
	select {
	case <-h.done:
	case <-time.After(5 * time.Second):
		t.Fatal("the session never read the burst")
	}
	cc.gate.Unlock()
	if err := c.WaitReceipt(last, 5*time.Second); err != nil {
		t.Fatalf("WaitReceipt(%d): %v", last, err)
	}
	if got := cc.writes.Load(); got > 2 {
		t.Errorf("%d RECEIPTs took %d writes, want at most 2", n, got)
	}
}
