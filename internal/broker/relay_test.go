package broker_test

import (
	"testing"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/label"
)

// TestRelayUnitDrainsBacklog: a relay unit — one publish from its
// callback per event it receives — drains a backlog far deeper than its
// engine queue, on either publish discipline. While the queue is full the
// subscription connection's read loop blocks, so nothing a callback waits
// for may travel on that connection: a receipt-confirmed publish there
// waits behind MESSAGE frames the blocked loop cannot take, and every
// callback times out instead of relaying.
func TestRelayUnitDrainsBacklog(t *testing.T) {
	const events = 2000
	for name, cfg := range map[string]broker.ClientConfig{
		"fire-and-forget": {SendTimeout: time.Second},
		"window":          {PublishWindow: 8, SendTimeout: time.Second},
	} {
		t.Run(name, func(t *testing.T) {
			policy := label.NewPolicy()
			br := broker.New(policy)
			defer br.Close()
			srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{Logf: t.Logf})
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			defer srv.Close()
			eng, err := engine.New(engine.Config{
				Policy: policy,
				Bus: func(principal string) (broker.Bus, error) {
					cfg := cfg
					cfg.Login = principal
					cfg.OnError = func(err error) { t.Logf("bus error: %v", err) }
					return broker.DialBus(srv.Addr(), cfg)
				},
				Logf: t.Logf,
			})
			if err != nil {
				t.Fatalf("engine.New: %v", err)
			}
			defer eng.Stop()
			err = eng.AddUnit(chaosUnit{name: "relay", init: func(ctx *engine.InitContext) error {
				return ctx.Subscribe("/relay/in", "", func(ctx *engine.Context, ev *event.Event) error {
					return ctx.Publish("/relay/out", nil, ev.Body)
				})
			}})
			if err != nil {
				t.Fatalf("AddUnit: %v", err)
			}

			// The in-process publisher outruns the relay by far, so the
			// backlog piles up on the relay's connection.
			published := make(chan error, 1)
			go func() {
				for i := 0; i < events; i++ {
					if err := br.Publish("producer", event.New("/relay/in", nil)); err != nil {
						published <- err
						return
					}
				}
				published <- nil
			}()

			deadline := time.Now().Add(5 * time.Second)
			for eng.Stats().EventsProcessed < events {
				if time.Now().After(deadline) {
					st := eng.Stats()
					t.Fatalf("relayed %d of %d events in 5s, %d callback errors", st.EventsProcessed, events, st.CallbackErrors)
				}
				time.Sleep(time.Millisecond)
			}
			if err := <-published; err != nil {
				t.Fatalf("Publish: %v", err)
			}
			if got := eng.Stats().CallbackErrors; got != 0 {
				t.Errorf("%d callback errors, want 0", got)
			}
		})
	}
}
