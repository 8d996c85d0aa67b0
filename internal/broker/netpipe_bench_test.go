package broker_test

import (
	"fmt"
	"testing"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/journal"
	"safeweb/internal/label"
)

// pipeUnit adapts a name and init function to engine.Unit without pulling
// the engine test helpers into this external test package.
type pipeUnit struct {
	name string
	init func(ctx *engine.InitContext) error
}

func (u pipeUnit) Name() string                       { return u.name }
func (u pipeUnit) Init(ctx *engine.InitContext) error { return u.init(ctx) }

// BenchmarkNetworkPipeline measures the full networked hop an event takes
// between two engines (paper §4.2–4.3, E3/E6): a trigger reaches the
// producer engine over TCP STOMP, its callback publishes one labelled
// event back through the broker, and the consumer engine receives it on
// each of its fan-out subscriptions. Per trigger the wire carries one
// MESSAGE to the producer, one SEND from it, and fanout MESSAGE frames to
// the consumer, so the benchmark exercises STOMP framing, per-connection
// writes and engine dispatch — everything between two networked units.
func BenchmarkNetworkPipeline(b *testing.B) {
	for _, bc := range []struct {
		fanout, window                        int
		stalled, credited, durable, batchSync bool
	}{
		{fanout: 1}, {fanout: 1, window: 64}, {fanout: 10},
		{fanout: 100}, {fanout: 100, stalled: true},
		{fanout: 100, credited: true}, {fanout: 100, durable: true},
		{fanout: 100, durable: true, batchSync: true},
	} {
		fanout, window, stalled, credited, durable, batchSync :=
			bc.fanout, bc.window, bc.stalled, bc.credited, bc.durable, bc.batchSync
		name := fmt.Sprintf("fanout=%d", fanout)
		if window > 0 {
			// The windowed variant publishes through receipt-tracked
			// pipelined SENDs; window=0 keeps the historical
			// fire-and-forget series comparable.
			name += fmt.Sprintf("/window=%d", window)
		}
		if stalled {
			// The stalled variant adds one subscriber that completes the
			// handshake and then never reads — the slow-consumer case. The
			// write deadline bounds the one-time stall while its buffers
			// fill; after the deadline fires the dead session's writer
			// fails sticky and the fan-out must run at full speed, so this
			// series guards against reintroducing unbounded blocking on a
			// dead peer (CI asserts it stays within 1.5x of the healthy
			// fanout=100 series).
			name += "/stalled"
		}
		if credited {
			// The credited variant runs the consumer's subscriptions under
			// credit-based flow control with a window large enough that a
			// healthy consumer never stalls; it measures the steady-state
			// overhead of the credit fast path (one claim per delivery,
			// batched ACK grants on release) against the uncredited
			// fanout=100 series (CI asserts it stays within 1.15x).
			name += "/credited"
		}
		if durable {
			// The durable variant journals every published /bench/out event
			// (publish-tap append of the already-encoded wire image, default
			// no-fsync policy); the consumer subscriptions stay live, so the
			// series isolates what journaling adds to the publish path on
			// top of the healthy fanout=100 series (CI asserts it stays
			// within 1.5x and at the same per-trigger allocation budget).
			name += "/durable"
			if batchSync {
				// The batched-sync variant runs the same journaled publish
				// path under journal.SyncBatch: fsyncs group-committed by the
				// journal's syncer, with records published only once their
				// batch is synced. It prices the durability upgrade against the
				// no-fsync durable series (CI holds it to the same 1.5x ns/op
				// and per-trigger allocation budgets as the durable series).
				name += "-batched-sync"
			}
		}
		b.Run(name, func(b *testing.B) {
			policy := label.NewPolicy()
			policy.Grant("consumer", label.Clearance,
				label.MustParsePattern("label:conf:ecric.org.uk/*"))
			policy.Grant("producer", label.Clearance,
				label.MustParsePattern("label:conf:ecric.org.uk/*"))
			scfg := broker.ServerConfig{Logf: b.Logf}
			if durable {
				scfg.Durable = []string{"/bench/out"}
				scfg.JournalDir = b.TempDir()
				if batchSync {
					scfg.JournalSync = journal.SyncBatch
				}
			}
			if stalled {
				policy.Grant("stalled", label.Clearance,
					label.MustParsePattern("label:conf:ecric.org.uk/*"))
				scfg.WriteTimeout = 50 * time.Millisecond
				// The dead session's post-deadline deliveries all fail;
				// don't let their per-drop log lines become the benchmark.
				scfg.OnDeliveryError = func(uint64, string, *event.Event, error) {}
			}
			br := broker.New(policy)
			defer br.Close()
			srv, err := broker.NewServer("127.0.0.1:0", br, scfg)
			if err != nil {
				b.Fatalf("NewServer: %v", err)
			}
			defer srv.Close()
			if stalled {
				conn := dialStalled(b, srv.Addr(), "stalled", "/bench/out", "s-0")
				defer conn.Close()
			}

			newEngine := func(credit int) *engine.Engine {
				e, err := engine.New(engine.Config{
					Policy: policy,
					Bus: func(principal string) (broker.Bus, error) {
						cfg := broker.ClientConfig{
							Login:           principal,
							SubscribeCredit: credit,
							OnError:         func(err error) { b.Logf("bus error: %v", err) },
						}
						if window > 0 {
							cfg.PublishWindow = window
							cfg.SendTimeout = 10 * time.Second
						}
						return broker.DialBus(srv.Addr(), cfg)
					},
					Logf: b.Logf,
				})
				if err != nil {
					b.Fatalf("engine.New: %v", err)
				}
				return e
			}
			producer := newEngine(0)
			defer producer.Stop()
			consumerCredit := 0
			if credited {
				// Large enough that the engine queue, not the credit window,
				// is the backpressure bound for a healthy consumer.
				consumerCredit = 512
			}
			consumer := newEngine(consumerCredit)
			defer consumer.Stop()

			payload := []byte(`{"patient_id": 33812769, "type": "cancer", "summary": "report"}`)
			mdt := label.Conf("ecric.org.uk/mdt/7")
			err = producer.AddUnit(pipeUnit{name: "producer", init: func(ctx *engine.InitContext) error {
				return ctx.Subscribe("/bench/trigger", "", func(ctx *engine.Context, ev *event.Event) error {
					return ctx.Publish("/bench/out", nil, payload, engine.WithAdd(mdt))
				})
			}})
			if err != nil {
				b.Fatalf("AddUnit producer: %v", err)
			}
			err = consumer.AddUnit(pipeUnit{name: "consumer", init: func(ctx *engine.InitContext) error {
				for i := 0; i < fanout; i++ {
					if err := ctx.Subscribe("/bench/out", "", func(ctx *engine.Context, ev *event.Event) error {
						return nil
					}); err != nil {
						return err
					}
				}
				return nil
			}})
			if err != nil {
				b.Fatalf("AddUnit consumer: %v", err)
			}

			trigger := event.New("/bench/trigger", nil)
			want := uint64(b.N * fanout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := br.Publish("driver", trigger); err != nil {
					b.Fatalf("Publish: %v", err)
				}
			}
			deadline := time.Now().Add(2 * time.Minute)
			for consumer.Stats().EventsProcessed < want {
				if time.Now().After(deadline) {
					b.Fatalf("processed %d of %d events", consumer.Stats().EventsProcessed, want)
				}
				time.Sleep(100 * time.Microsecond)
			}
			b.StopTimer()
			b.ReportMetric(float64(want)/b.Elapsed().Seconds(), "events/s")
			if got := consumer.Stats().CallbackErrors + producer.Stats().CallbackErrors; got != 0 {
				b.Fatalf("%d callback errors", got)
			}
		})
	}
}
