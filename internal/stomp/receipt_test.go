package stomp

import (
	"bytes"
	"errors"
	"io"
	"net"
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
// escaping included.
var receiptIDs = []string{
	"rcpt-1", "rcpt-18446744073709551615", "a:b", "line\nbreak", `back\slash`, "cr\rlf\n", "::", "é", "x",
}

// TestReceiptBytesMatchEncoder: a RECEIPT queued as its bare id reaches
// the wire, through the connection writer, as the bytes Encoder.Encode
// gives for the frame it replaced — and reaches it at once, on its own
// flush, with nothing queued behind it to force one.
func TestReceiptBytesMatchEncoder(t *testing.T) {
	for _, id := range receiptIDs {
		var direct bytes.Buffer
		var enc Encoder
		if err := enc.encodeReceipt(&direct, id); err != nil {
			t.Fatalf("encodeReceipt(%q): %v", id, err)
		}
		want := receiptOracle(t, id)
		if !bytes.Equal(direct.Bytes(), want) {
			t.Errorf("receipt %q: encoder bytes differ from Encode of the frame:\n got %q\nwant %q", id, direct.Bytes(), want)
		}

		server, client := net.Pipe()
		fw := newFrameWriter(server, 4, 0, nil)
		if err := fw.send(outFrame{receipt: id, flush: true}); err != nil {
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
	if got := testing.AllocsPerRun(100, func() { _ = enc.encodeReceipt(io.Discard, "rcpt-123456") }); got != 0 {
		t.Errorf("encodeReceipt allocs/op = %v, want 0", got)
	}
}

// TestReceiptIsControlFrame: an id-only RECEIPT names no subscription, so
// the drop-oldest overflow policy treats it as the control frame it is —
// re-queued, never evicted — exactly as it treated the Frame.
func TestReceiptIsControlFrame(t *testing.T) {
	const queueLen = 2
	fw, _ := stalledWriter(t, queueLen)
	evicted := 0
	fw.onEvict = func(outFrame) { evicted++ }
	fillQueue(t, fw, 0) // wedge the writer on a first delivery
	if err := fw.send(outFrame{receipt: "r1", flush: true}); err != nil {
		t.Fatalf("send receipt: %v", err)
	}
	if err := fw.send(delivery("b", "B")); err != nil {
		t.Fatalf("send B: %v", err)
	}
	if ok, err := fw.enqueue(delivery("c", "C"), EnqueueEvict); !ok || err != nil {
		t.Fatalf("EnqueueEvict = %v, %v", ok, err)
	}
	if evicted != 1 {
		t.Errorf("%d deliveries evicted, want 1", evicted)
	}
	kept := map[string]bool{}
	for len(fw.ch) > 0 {
		of := <-fw.ch
		if of.f == nil && of.img == nil {
			kept["receipt "+of.receipt] = of.flush
		} else if s, ok := of.payload.(string); ok {
			kept[s] = true
		}
	}
	if !kept["receipt r1"] || !kept["C"] || kept["B"] {
		t.Errorf("queue after drop-oldest holds %v, want the receipt (still flushing) and C", kept)
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
// with one queued id — no Frame, no image, flushed at once — answers
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
	if of := <-fw.ch; of.f != nil || of.img != nil || of.receipt != "rcpt:7" || !of.flush || of.route.Subscription != "" {
		t.Errorf("queued %+v, want the bare id, flushing, unrouted", of)
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

// TestReceiptRegisterAllocs: minting a receipt id is the id string and the
// wait channel — the number is formatted in place, not concatenated.
func TestReceiptRegisterAllocs(t *testing.T) {
	c := &Client{receipts: make(map[string]chan struct{})}
	rid, _, err := c.registerReceipt()
	if err != nil || rid != "rcpt-1" {
		t.Fatalf("registerReceipt = %q, %v", rid, err)
	}
	c.nextID = 1<<64 - 2
	if rid, _, _ := c.registerReceipt(); rid != "rcpt-18446744073709551615" {
		t.Errorf("largest receipt id = %q", rid)
	}
	c.nextID = 1000
	if got := testing.AllocsPerRun(200, func() {
		rid, _, _ := c.registerReceipt()
		c.dropReceipt(rid)
	}); got > 2 {
		t.Errorf("registerReceipt allocs/op = %v, want <= 2 (id and channel)", got)
	}
}
