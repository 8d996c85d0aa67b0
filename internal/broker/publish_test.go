package broker

import (
	"errors"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"safeweb/internal/event"
	"safeweb/internal/label"
)

// TestPublishWindowedOrderingAndFlush: a windowed producer pipelines
// receipt-tracked publishes; the Flush barrier confirms them all, and the
// subscriber observes every event in publish order.
func TestPublishWindowedOrderingAndFlush(t *testing.T) {
	_, srv := startNetBroker(t)
	consumer := dialBus(t, srv.Addr(), "cleared")

	producer, err := DialBus(srv.Addr(), ClientConfig{
		Login:         "producer",
		PublishWindow: 8,
		SendTimeout:   5 * time.Second,
		OnError:       func(err error) { t.Logf("producer error: %v", err) },
	})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	t.Cleanup(func() { _ = producer.Close() })

	var mu sync.Mutex
	var seqs []int
	if _, err := consumer.Subscribe("/win/out", "", func(ev *event.Event) {
		n, _ := strconv.Atoi(ev.Attr("seq"))
		mu.Lock()
		seqs = append(seqs, n)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	const total = 200
	for i := 0; i < total; i++ {
		ev := event.New("/win/out", map[string]string{"seq": strconv.Itoa(i)},
			label.Conf("ecric.org.uk/mdt/7"))
		if err := producer.Publish(ev); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
	if err := producer.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	waitFor(t, "all windowed publishes delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs) == total
	})
	mu.Lock()
	defer mu.Unlock()
	for i, n := range seqs {
		if n != i {
			t.Fatalf("delivery %d carries seq %d; want publish order preserved", i, n)
		}
	}
}

// TestPublishWindowSurfacesBrokerError: a broker rejection mid-window
// (here an integrity label the principal may not endorse, which makes the
// server error the connection) must surface through the Flush barrier and
// make later publishes fail fast — never be swallowed.
func TestPublishWindowSurfacesBrokerError(t *testing.T) {
	_, srv := startNetBroker(t)
	producer, err := DialBus(srv.Addr(), ClientConfig{
		Login:         "producer", // has no endorsement privilege
		PublishWindow: 4,
		SendTimeout:   2 * time.Second,
		OnError:       func(err error) { t.Logf("producer error: %v", err) },
	})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	t.Cleanup(func() { producer.AbruptClose() }) // the window is failed; no graceful barrier

	forged := event.New("/t", nil, label.Int("ecric.org.uk/mdt"))
	if err := producer.Publish(forged); err != nil {
		// Accepted asynchronously or refused already — both are fine, as
		// long as the failure is reported by the barrier below.
		t.Logf("Publish returned synchronously: %v", err)
	}
	if err := producer.Flush(); err == nil {
		t.Fatal("Flush swallowed the broker rejection; want an error")
	}
	rejected := event.New("/t", nil)
	if err := producer.Publish(rejected); err == nil {
		t.Fatal("Publish after window failure succeeded; want sticky fail-fast error")
	}
	// The fail-fast rejection proved the event never reached the wire, so
	// it must stay mutable for annotation and republish elsewhere.
	//lint:ignore frozenmutate the fail-fast rejection left the event unfrozen; staying mutable is the property under test
	if err := rejected.Set("retry", "1"); err != nil {
		t.Errorf("fail-fast-rejected event is frozen: %v", err)
	}
	if err := producer.Flush(); err == nil {
		t.Fatal("second Flush lost the sticky error")
	}
}

// TestPublishWindowBoundedInflight: a continuously publishing window never
// has more than its size in flight — when a publish returns, every
// publish but the newest size of them is confirmed.
func TestPublishWindowBoundedInflight(t *testing.T) {
	_, srv := startNetBroker(t)
	producer, err := DialBus(srv.Addr(), ClientConfig{
		Login:         "producer",
		PublishWindow: 8,
		SendTimeout:   5 * time.Second,
		OnError:       func(err error) { t.Logf("producer error: %v", err) },
	})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	t.Cleanup(func() { _ = producer.Close() })

	win := producer.win
	for i := 0; i < 500; i++ { // no Flush: steady-state pipelining
		if err := producer.Publish(event.New("/bounded", nil)); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
		win.mu.Lock()
		last := win.last
		win.mu.Unlock()
		// Confirmed counts only grow, so a publish that returned with more
		// than size outstanding fails this wait.
		if last > win.size {
			if err := win.conn.WaitReceipt(last-win.size, time.Nanosecond); err != nil {
				t.Fatalf("after publish %d, receipt %d of %d unconfirmed: more than %d in flight: %v",
					i, last-win.size, last, win.size, err)
			}
		}
	}
	if err := producer.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// TestPublishFreezeNoMutation pins the publish-side aliasing contract:
// Publish freezes the caller's event but must not otherwise mutate any
// caller-visible state — no attribute map rewrite, no body copy, no
// transport headers leaking into Attrs.
func TestPublishFreezeNoMutation(t *testing.T) {
	_, srv := startNetBroker(t)
	producer := dialBus(t, srv.Addr(), "producer")

	check := func(name string, ev *event.Event) {
		t.Helper()
		attrsBefore := make(map[string]string, len(ev.Attrs))
		for k, v := range ev.Attrs {
			attrsBefore[k] = v
		}
		attrsPtr := reflect.ValueOf(ev.Attrs).Pointer()
		bodyBefore := ev.Body
		labelsBefore := ev.Labels

		if err := producer.Publish(ev); err != nil {
			t.Fatalf("%s: Publish: %v", name, err)
		}
		//lint:ignore frozenmutate probing the freeze contract: Set after Publish must fail with ErrFrozen
		if err := ev.Set("late", "write"); !errors.Is(err, event.ErrFrozen) {
			t.Errorf("%s: Set after Publish = %v, want ErrFrozen", name, err)
		}
		if reflect.ValueOf(ev.Attrs).Pointer() != attrsPtr {
			t.Errorf("%s: Publish replaced the attribute map", name)
		}
		if !reflect.DeepEqual(ev.Attrs, attrsBefore) {
			t.Errorf("%s: Publish mutated attrs: %v, want %v", name, ev.Attrs, attrsBefore)
		}
		if len(bodyBefore) > 0 && &ev.Body[0] != &bodyBefore[0] {
			t.Errorf("%s: Publish replaced the body", name)
		}
		if !ev.Labels.Equal(labelsBefore) {
			t.Errorf("%s: Publish changed the label set", name)
		}
	}

	fast := event.New("/patient_report",
		map[string]string{"patient_id": "1", "type": "cancer"},
		label.Conf("ecric.org.uk/mdt/7"))
	fast.Body = []byte(`{"summary": "report"}`)
	check("labelled with attrs", fast)
}

// transportAttrNames are the STOMP transport header names an application
// can set as attribute names (event.Validate already refuses the reserved
// x-safeweb- ones): on the wire each would be stripped by the receiving
// side or steer the frame.
var transportAttrNames = []string{
	"destination", "receipt", "receipt-id", "subscription", "message-id",
	"content-length", "id", "ack", "selector", "transaction",
}

// TestPublishTransportAttrRejected: in every publish mode, an event with
// an attribute named like a transport header fails closed with
// event.ErrTransportAttr before anything happens — nothing reaches the
// broker, the event stays mutable, the window's sticky error is not
// tripped, and the repaired event then publishes on the same connection.
func TestPublishTransportAttrRejected(t *testing.T) {
	b, srv := startNetBroker(t)
	modes := map[string]ClientConfig{
		"fire-and-forget": {},
		"window":          {PublishWindow: 4, SendTimeout: 5 * time.Second},
	}
	for mode, cfg := range modes {
		cfg.Login = "producer"
		cfg.OnError = func(err error) { t.Logf("%s: producer error: %v", mode, err) }
		producer, err := DialBus(srv.Addr(), cfg)
		if err != nil {
			t.Fatalf("%s: DialBus: %v", mode, err)
		}
		t.Cleanup(func() { _ = producer.Close() })

		for _, name := range transportAttrNames {
			before := b.Stats().Published
			ev := event.New("/t", map[string]string{name: "app-data", "k": "v"},
				label.Conf("ecric.org.uk/mdt/7"))
			if err := producer.Publish(ev); !errors.Is(err, event.ErrTransportAttr) {
				t.Fatalf("%s: Publish with %q attr = %v, want ErrTransportAttr", mode, name, err)
			}
			//lint:ignore frozenmutate the refused publish left the event unfrozen; staying mutable is the property under test
			if err := ev.Set("retry", "1"); err != nil {
				t.Errorf("%s: event refused for %q is frozen: %v", mode, name, err)
			}
			// Repair and republish the same event on the same connection:
			// the refusal memoised nothing and tripped no sticky error.
			//lint:ignore frozenmutate the event was never published; repairing it is the property under test
			delete(ev.Attrs, name)
			if err := producer.Publish(ev); err != nil {
				t.Fatalf("%s: Publish after repairing %q: %v", mode, name, err)
			}
			if err := producer.Flush(); err != nil {
				t.Fatalf("%s: Flush after %q: %v", mode, name, err)
			}
			// A connection's frames are processed in order, so once the
			// repaired publish is counted, a stray SEND from the refused
			// one would have been counted ahead of it.
			waitFor(t, "repaired publish accepted", func() bool { return b.Stats().Published > before })
			if got := b.Stats().Published; got != before+1 {
				t.Errorf("%s: %q: broker accepted %d publishes, want only the repaired one", mode, name, got-before)
			}
		}
	}
	if got := srv.Stats().UnhandledFrames; got != 0 {
		t.Errorf("UnhandledFrames = %d, want 0", got)
	}
}

// TestPublishEncodeOnce: fan-in republish of one event must reuse the
// memoised SEND image — one encode, three deliveries.
func TestPublishEncodeOnce(t *testing.T) {
	_, srv := startNetBroker(t)
	consumer := dialBus(t, srv.Addr(), "cleared")
	producer := dialBus(t, srv.Addr(), "producer")

	received := make(chan *event.Event, 8)
	if _, err := consumer.Subscribe("/once", "", func(ev *event.Event) {
		received <- ev //lint:ignore noretain test collector retains the delivery; it is asserted on and never Released, so the pool cannot reclaim it
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	ev := event.New("/once", map[string]string{"k": "v"}, label.Conf("ecric.org.uk/mdt/7"))
	before := event.SendImageBuilds()
	for i := 0; i < 3; i++ {
		if err := producer.Publish(ev); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
	if got := event.SendImageBuilds() - before; got != 1 {
		t.Errorf("SendImageBuilds delta = %d over 3 publishes of one event, want 1", got)
	}
	for i := 0; i < 3; i++ {
		select {
		case <-received:
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery %d never arrived", i)
		}
	}
}
