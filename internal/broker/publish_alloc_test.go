package broker

import (
	"bufio"
	"io"
	"net"
	"testing"

	"safeweb/internal/event"
	"safeweb/internal/label"
)

// discardBroker is a minimal STOMP endpoint for publish-side allocation
// measurements: it completes the CONNECT handshake and then discards all
// inbound bytes. Running the real server here would add its own decode
// and routing allocations to the process-wide counters AllocsPerRun
// reads, hiding what the client costs.
func discardBroker(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := br.ReadBytes(0); err != nil { // CONNECT frame
					return
				}
				if _, err := conn.Write([]byte("CONNECTED\nsession:1\nversion:1.1\ncontent-length:0\n\n\x00")); err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, br)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// benchEvent builds the publish-path regression shape: a labelled,
// attr-carrying event with a small body.
func benchEvent() *event.Event {
	ev := event.New("/patient_report",
		map[string]string{"patient_id": "33812769", "type": "cancer"},
		label.Conf("ecric.org.uk/mdt/7"))
	ev.Body = []byte(`{"summary": "report", "mdt": 7}`)
	return ev
}

// TestClientPublishAllocs pins the publish path's allocation budget in
// the style of the DecodeView/EncodeImage tests: once an event's SEND
// image is memoised, republishing it must not allocate at all (budget
// ≤ 1 alloc/op guards against regression, steady state is 0), and a
// cold event pays only for its image — the memo-free refusal of a
// transport-named attribute included.
func TestClientPublishAllocs(t *testing.T) {
	c, err := DialBus(discardBroker(t), ClientConfig{Login: "producer"})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	defer func() { _ = c.conn.Close() }() // no DISCONNECT: the sink never replies

	ev := benchEvent()
	if err := c.Publish(ev); err != nil { // freeze + warm the image memo
		t.Fatalf("Publish: %v", err)
	}
	steady := testing.AllocsPerRun(500, func() {
		if err := c.Publish(ev); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	})
	if steady > 1 {
		t.Errorf("steady-state Publish allocs/op = %g, want <= 1", steady)
	}

	// Cold events build their image on first publish: the image struct
	// and its buffer, nothing else — no header map, no frame.
	events := make([]*event.Event, 600)
	for i := range events {
		events[i] = benchEvent()
	}
	i := 0
	cold := testing.AllocsPerRun(500, func() {
		if err := c.Publish(events[i]); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		i++
	})
	t.Logf("Publish allocs/op: steady-state %g, cold %g", steady, cold)
	if cold > 3 {
		t.Errorf("cold-event Publish allocs/op = %g, want <= 3 (label header, image, buffer)", cold)
	}
}

// TestClientPublishDraftAllocs pins the producer-side draft pool: a
// producer that builds each publish with NewDraft and recycles it with
// ReleasePublished after the publish completes pays only for the SEND
// image itself — the Event struct and its attribute map come from the
// pool — so the per-publish cost drops below the cold-event fast path
// (which allocates a fresh event and map every time) and stays within a
// fixed small budget.
func TestClientPublishDraftAllocs(t *testing.T) {
	c, err := DialBus(discardBroker(t), ClientConfig{Login: "producer"})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	defer func() { _ = c.conn.Close() }() // no DISCONNECT: the sink never replies

	body := []byte(`{"summary": "report", "mdt": 7}`)
	publishDraft := func() {
		ev := event.NewDraft("/patient_report")
		if err := ev.Set("patient_id", "33812769"); err != nil {
			t.Fatalf("Set: %v", err)
		}
		if err := ev.Set("type", "cancer"); err != nil {
			t.Fatalf("Set: %v", err)
		}
		ev.Body = body
		if err := c.Publish(ev); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		ev.ReleasePublished()
	}
	// Warm the pool: the first drafts allocate their structs and maps,
	// which then recycle for the measured runs.
	for i := 0; i < 8; i++ {
		publishDraft()
	}

	draft := testing.AllocsPerRun(500, publishDraft)

	// The same publish with a fresh New event every time — the cold path
	// the draft pool exists to undercut.
	cold := testing.AllocsPerRun(500, func() {
		ev := event.New("/patient_report",
			map[string]string{"patient_id": "33812769", "type": "cancer"})
		ev.Body = body
		if err := c.Publish(ev); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	})
	t.Logf("Publish allocs/op: draft %g, cold new-event %g", draft, cold)
	if draft > 2 {
		t.Errorf("draft Publish allocs/op = %g, want <= 2 (image memo and buffer only)", draft)
	}
	if draft >= cold {
		t.Errorf("draft = %g allocs/op, cold new-event = %g: pooling must undercut", draft, cold)
	}
}
