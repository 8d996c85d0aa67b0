package stomp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"
)

// offsetAckFrame and creditGrantFrame are the ACK frames a client built
// for every release before acks went through an AckSlot
// (Client.SendOffsetAck and Client.SendCreditGrant): the oracle for the
// slot's bytes.
func offsetAckFrame(subscription string, offset, credit int64) *Frame {
	f := NewFrame(CmdAck)
	f.SetHeader(HdrSubscription, subscription)
	f.SetHeader(HdrOffset, strconv.FormatInt(offset, 10))
	if credit > 0 {
		f.SetHeader(HdrCredit, strconv.FormatInt(credit, 10))
	}
	return f
}

func creditGrantFrame(subscription string, grant int64) *Frame {
	f := NewFrame(CmdAck)
	f.SetHeader(HdrSubscription, subscription)
	f.SetHeader(HdrCredit, strconv.FormatInt(grant, 10))
	return f
}

func encodeFrame(t *testing.T, f *Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := new(Encoder).Encode(&buf, f); err != nil {
		t.Fatalf("reference Encode: %v", err)
	}
	return buf.Bytes()
}

// ackCases pair slot values with the frame the client used to send for
// them: a credit grant alone, an offset ack alone, both on one frame, and
// a subscription id that needs header escaping.
var ackCases = []struct {
	name           string
	sub            string
	offset, credit int64
	oracle         *Frame
}{
	{"credit only", "sub-1", 0, 12, creditGrantFrame("sub-1", 12)},
	{"offset only", "sub-2", 7, 0, offsetAckFrame("sub-2", 7, 0)},
	{"both", "sub-18446744073709551615", 1 << 40, 512, offsetAckFrame("sub-18446744073709551615", 1<<40, 512)},
	{"escaped id", "a:b\nc\\d\re", 3, 9, offsetAckFrame("a:b\nc\\d\re", 3, 9)},
}

// TestAckBytesMatchEncoder: an ack slot reaches the wire, through the
// connection writer, as the bytes Encoder.Encode gives for the ACK frame
// the client built per release before — and the slot encoder allocates
// nothing.
func TestAckBytesMatchEncoder(t *testing.T) {
	for _, tc := range ackCases {
		t.Run(tc.name, func(t *testing.T) {
			want := encodeFrame(t, tc.oracle)
			s := &AckSlot{sub: tc.sub}
			s.offset.Store(tc.offset)
			s.credit.Store(tc.credit)
			s.queued.Store(true)
			var direct bytes.Buffer
			if err := new(Encoder).encodeAck(&direct, s); err != nil {
				t.Fatalf("encodeAck: %v", err)
			}
			if !bytes.Equal(direct.Bytes(), want) {
				t.Errorf("encoder bytes differ from Encode of the frame:\n got %q\nwant %q", direct.Bytes(), want)
			}
			if s.queued.Load() {
				t.Error("encodeAck left the slot queued")
			}

			server, client := net.Pipe()
			defer client.Close()
			fw := newFrameWriter(server, 4, 0, nil)
			defer fw.close()
			slot := (&Client{fw: fw}).AckSlot(tc.sub)
			if err := slot.Ack(tc.offset, tc.credit); err != nil {
				t.Fatalf("Ack: %v", err)
			}
			got := make([]byte, len(want))
			_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.ReadFull(client, got); err != nil {
				t.Fatalf("ACK never reached the peer: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire bytes differ:\n got %q\nwant %q", got, want)
			}
			f, err := NewDecoder(bytes.NewReader(got)).Decode()
			if err != nil || f.Command != CmdAck || f.Header(HdrSubscription) != tc.sub {
				t.Errorf("ACK decodes to %v, %v", f, err)
			}
		})
	}
	s := &AckSlot{sub: "sub-123"}
	s.offset.Store(123456)
	s.credit.Store(123968)
	var enc Encoder
	if got := testing.AllocsPerRun(100, func() { _ = enc.encodeAck(io.Discard, s) }); got != 0 {
		t.Errorf("encodeAck allocs/op = %v, want 0", got)
	}
}

// TestDurableAcksCoalesce: while the connection writer is stalled, any
// number of releases, from several goroutines, queue exactly one ACK, and
// that frame carries the final frontier and grant. Once the writer has
// encoded it, the next release queues a frame of its own.
func TestDurableAcksCoalesce(t *testing.T) {
	const (
		window  = 64
		workers = 4
		each    = 250
	)
	server, client := net.Pipe()
	defer client.Close()
	// Room for a frame per release, so a slot that did not coalesce would
	// fail the count below rather than block.
	fw := newFrameWriter(server, workers*each, 0, nil)
	defer fw.close()

	// Wedge the writer in the write of a first delivery, larger than its
	// buffer: nobody reads the pipe yet.
	if err := fw.send(wedge()); err != nil {
		t.Fatalf("send: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(fw.ch) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up the first frame")
		}
	}

	slot := (&Client{fw: fw}).AckSlot("sub-1")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				n := int64(i*workers + w + 1)
				if err := slot.Ack(n, window+n); err != nil {
					t.Errorf("Ack: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if got := len(fw.ch); got != 1 {
		t.Fatalf("%d frames queued after %d releases, want 1", got, workers*each)
	}

	br := bufio.NewReader(client)
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := NewDecoder(br).Decode(); err != nil || f.Command != CmdMessage {
		t.Fatalf("first frame = %v, %v; want the wedged delivery", f, err)
	}
	const last = workers * each
	readAck := func(want []byte) {
		t.Helper()
		got := make([]byte, len(want))
		_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(br, got); err != nil {
			t.Fatalf("ACK never arrived: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("ACK bytes:\n got %q\nwant %q", got, want)
		}
	}
	readAck(encodeFrame(t, offsetAckFrame("sub-1", last, window+last)))
	_ = client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := br.ReadByte(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a second frame followed the coalesced ACK: %q, %v", n, err)
	}

	// A stale value changes nothing and queues nothing; a new frontier
	// queues a fresh frame, which still restates the grant.
	if err := slot.Ack(last-1, window); err != nil || len(fw.ch) != 0 {
		t.Fatalf("stale Ack = %v with %d frames queued, want nil and none", err, len(fw.ch))
	}
	if err := slot.Ack(last+1, 0); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	readAck(encodeFrame(t, offsetAckFrame("sub-1", last+1, window+last)))
}
