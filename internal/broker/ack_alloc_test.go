//go:build !race

// The race detector drops pooled events at random, so allocation counts
// are only exact without it.

package broker

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"safeweb/internal/event"
	"safeweb/internal/stomp"
)

// TestDurableDeliveryAllocs pins what a durable credited consumer's
// steady-state delivery allocates on the client, from the read loop's
// decode to the release that acks it: the body, and the NotifyRelease
// closure that carries the delivery's number. The number is a counter on
// the read loop, the frontier needs no FIFO, and the ACK is the slot the
// connection writer encodes from its scratch buffer. A stand-in broker
// answers the handshake and the subscription, then only discards what the
// client sends, so every allocation counted is the client's.
func TestDurableDeliveryAllocs(t *testing.T) {
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
			f.Body = []byte("payload")
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
	if perDelivery > 2.05 {
		t.Errorf("%.3f allocs per delivery, want 2 (the body and the NotifyRelease closure)", perDelivery)
	}
}
