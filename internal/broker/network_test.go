package broker

import (
	"errors"
	"testing"
	"time"

	"safeweb/internal/event"
	"safeweb/internal/label"
)

// startNetBroker runs a broker with a STOMP front on a loopback port.
func startNetBroker(t *testing.T) (*Broker, *Server) {
	t.Helper()
	b := New(testPolicy())
	srv, err := NewServer("127.0.0.1:0", b, ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		b.Close()
	})
	return b, srv
}

func dialBus(t *testing.T, addr, login string) *Client {
	t.Helper()
	c, err := DialBus(addr, ClientConfig{
		Login:         login,
		PublishWindow: 8,
		SendTimeout:   5 * time.Second,
		OnError:       func(err error) { t.Logf("bus error: %v", err) },
	})
	if err != nil {
		t.Fatalf("DialBus(%s): %v", login, err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// waitFor polls until fn returns true or the deadline passes.
func waitFor(t *testing.T, what string, fn func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if fn() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestNetworkPublishSubscribe(t *testing.T) {
	_, srv := startNetBroker(t)

	consumer := dialBus(t, srv.Addr(), "cleared")
	producer := dialBus(t, srv.Addr(), "producer")

	received := make(chan *event.Event, 10)
	if _, err := consumer.Subscribe("/patient_report", "type = 'cancer'", func(ev *event.Event) {
		received <- ev //lint:ignore noretain test collector retains the delivery; it is asserted on and never Released, so the pool cannot reclaim it
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	ev := event.New("/patient_report",
		map[string]string{"patient_id": "1", "type": "cancer"},
		label.Conf("ecric.org.uk/mdt/7"))
	ev.Body = []byte(`{"summary": "report"}`)
	if err := producer.Publish(ev); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	// Non-matching selector value: filtered at the broker.
	if err := producer.Publish(event.New("/patient_report", map[string]string{"type": "screening"})); err != nil {
		t.Fatalf("Publish 2: %v", err)
	}

	select {
	case got := <-received:
		if got.Attr("patient_id") != "1" {
			t.Errorf("attrs = %v", got.Attrs)
		}
		if string(got.Body) != `{"summary": "report"}` {
			t.Errorf("body = %q", got.Body)
		}
		if !got.Labels.Contains(label.Conf("ecric.org.uk/mdt/7")) {
			t.Errorf("labels = %v", got.Labels)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event received")
	}
	select {
	case ev := <-received:
		t.Fatalf("unexpected second event: %v", ev)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestNetworkLabelFiltering(t *testing.T) {
	_, srv := startNetBroker(t)

	uncleared := dialBus(t, srv.Addr(), "uncleared")
	producer := dialBus(t, srv.Addr(), "producer")

	received := make(chan *event.Event, 10)
	if _, err := uncleared.Subscribe("/t", "", func(ev *event.Event) {
		received <- ev //lint:ignore noretain test collector retains the delivery; it is asserted on and never Released, so the pool cannot reclaim it
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	if err := producer.Publish(event.New("/t", nil, label.Conf("ecric.org.uk/mdt/7"))); err != nil {
		t.Fatalf("Publish labelled: %v", err)
	}
	if err := producer.Publish(event.New("/t", map[string]string{"public": "yes"})); err != nil {
		t.Fatalf("Publish public: %v", err)
	}

	select {
	case got := <-received:
		if got.Attr("public") != "yes" {
			t.Fatalf("uncleared client received labelled event: %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("public event not received")
	}
}

func TestNetworkEndorsementRejection(t *testing.T) {
	_, srv := startNetBroker(t)

	// The broker answers the windowed publish with an ERROR frame and
	// closes the connection per STOMP semantics, so the receipt never
	// arrives: the Flush barrier reports the rejection. The channel is
	// buffered generously because the read loop reports both the ERROR
	// frame and the subsequent EOF.
	errs := make(chan error, 16)
	producer, err := DialBus(srv.Addr(), ClientConfig{
		Login:         "producer",
		PublishWindow: 1,
		SendTimeout:   500 * time.Millisecond,
		OnError:       func(e error) { errs <- e },
	})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	defer producer.AbruptClose() // the window is failed; no graceful barrier

	if err := producer.Publish(event.New("/t", nil, label.Int("ecric.org.uk/mdt"))); err != nil {
		t.Logf("Publish returned synchronously: %v", err)
	}
	if err := producer.Flush(); err == nil {
		t.Fatal("unendorsed integrity publish not rejected")
	}
	select {
	case <-errs:
	case <-time.After(5 * time.Second):
		t.Fatal("rejection not reported through OnError")
	}
}

func TestNetworkUnsubscribe(t *testing.T) {
	b, srv := startNetBroker(t)

	consumer := dialBus(t, srv.Addr(), "wild")
	producer := dialBus(t, srv.Addr(), "producer")

	received := make(chan *event.Event, 10)
	id, err := consumer.Subscribe("/t", "", func(ev *event.Event) {
		received <- ev //lint:ignore noretain test collector retains the delivery; it is asserted on and never Released, so the pool cannot reclaim it
	})
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	waitFor(t, "subscription registration", func() bool {
		return len(b.subsSnapshot()) == 1
	})
	if err := consumer.Unsubscribe(id); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	waitFor(t, "subscription removal", func() bool {
		return len(b.subsSnapshot()) == 0
	})
	if err := producer.Publish(event.New("/t", nil)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	select {
	case ev := <-received:
		t.Fatalf("event after unsubscribe: %v", ev)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestNetworkDisconnectCleansSubscriptions(t *testing.T) {
	b, srv := startNetBroker(t)

	consumer := dialBus(t, srv.Addr(), "wild")
	if _, err := consumer.Subscribe("/t", "", func(*event.Event) {}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	waitFor(t, "subscription registration", func() bool {
		return len(b.subsSnapshot()) == 1
	})
	if err := consumer.Close(); err != nil && !errors.Is(err, errors.New("")) {
		t.Logf("close: %v", err)
	}
	waitFor(t, "subscription cleanup on disconnect", func() bool {
		return len(b.subsSnapshot()) == 0
	})
}
