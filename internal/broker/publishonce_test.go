package broker

import (
	"testing"

	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// TestWireImageMarshalOncePerPublish is the publish-once acceptance
// assertion: an event fanned out to subscriptions on several sessions
// (two consumer connections here) is marshalled into its MESSAGE wire
// form exactly once per publish — the wire image is shared across every
// session instead of re-encoded per session. The
// event carries attributes, the case the old per-session memo could not
// share even within one session.
func TestWireImageMarshalOncePerPublish(t *testing.T) {
	_, srv := startNetBroker(t)

	received := make(chan string, 64)
	subscribe := func(c *Client, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := c.Subscribe("/patient_report", "", func(ev *event.Event) {
				received <- ev.Attr("patient_id")
			}); err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
		}
	}
	one := dialBus(t, srv.Addr(), "cleared")
	subscribe(one, 2)
	subscribe(dialBus(t, srv.Addr(), "cleared"), 2)

	producer := dialBus(t, srv.Addr(), "producer")
	const publishes = 3
	before := event.WireImageBuilds()
	for i := 0; i < publishes; i++ {
		ev := event.New("/patient_report",
			map[string]string{"patient_id": "1", "type": "cancer"},
			label.Conf("ecric.org.uk/mdt/7"))
		ev.Body = []byte(`{"summary": "report"}`)
		if err := producer.Publish(ev); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	waitFor(t, "fan-out deliveries", func() bool { return len(received) == 4*publishes })
	if got := event.WireImageBuilds() - before; got != publishes {
		t.Errorf("wire image builds = %d for %d publishes across 2 consumer connections, want %d",
			got, publishes, publishes)
	}
}

// TestDeliveryDropAccounted pins the audit trail for the "cannot happen"
// marshal failure on the delivery path: a matched event that cannot be
// marshalled must bump the server's dropped-delivery counter and reach
// the OnDeliveryError hook instead of vanishing.
func TestDeliveryDropAccounted(t *testing.T) {
	b := New(testPolicy())
	defer b.Close()
	type drop struct {
		sub string
		err error
	}
	drops := make(chan drop, 1)
	srv, err := NewServer("127.0.0.1:0", b, ServerConfig{
		Logf: t.Logf,
		OnDeliveryError: func(_ uint64, sub string, _ *event.Event, err error) {
			drops <- drop{sub: sub, err: err}
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	// Publish-time validation makes an unmarshalable event unreachable
	// through the public API, so inject one directly into the delivery
	// path: a reserved attribute fails MarshalHeaders.
	bad := &event.Event{
		Topic: "/t",
		Attrs: map[string]string{event.ReservedPrefix + "labels": "forged"},
	}
	bad.Freeze()
	ss := &serverSession{sess: &stomp.Session{}}
	srv.deliver(ss, &wireSub{}, "sub-9", bad)

	select {
	case d := <-drops:
		if d.sub != "sub-9" || d.err == nil {
			t.Errorf("drop = %+v", d)
		}
	default:
		t.Fatal("dropped delivery did not reach OnDeliveryError")
	}
	if got := srv.Stats().DroppedDeliveries; got != 1 {
		t.Errorf("DroppedDeliveries = %d, want 1", got)
	}
}

// TestWireSubscriptionSharesEvent documents the wire-delivery contract
// the image sharing relies on: a wire subscription receives the frozen
// published event itself even when it carries attributes, while a normal
// subscription receives an isolated copy.
func TestWireSubscriptionSharesEvent(t *testing.T) {
	b := New(nil)
	defer b.Close()
	var viaWire, viaNormal *event.Event
	if _, err := b.SubscribeWire("s", "/t", "", func(ev *event.Event) { viaWire = ev }); err != nil {
		t.Fatalf("SubscribeWire: %v", err)
	}
	if _, err := b.Subscribe("s", "/t", "", func(ev *event.Event) { viaNormal = ev }); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	ev := event.New("/t", map[string]string{"k": "v"})
	if err := b.Publish("p", ev); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if viaWire != ev {
		t.Error("wire subscription did not receive the frozen original")
	}
	if viaNormal == ev {
		t.Error("normal subscription shared the attr-carrying original")
	}
}
