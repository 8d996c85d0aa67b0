package broker_test

import (
	"strconv"
	"testing"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/event"
	"safeweb/internal/label"
)

// BenchmarkClientPublish measures the producer-bound half of the wire in
// isolation: one networked client publishing labelled, attr-carrying
// events into the broker's STOMP front (no subscribers — the fan-out side
// has its own benchmarks). Modes compare the two publish disciplines:
// window pipelines receipt-tracked publishes through the coalescing
// writer, fireforget sends without receipts. All modes wait for the broker to have accepted every publish
// before the clock stops, so events/s is ingest throughput, not enqueue
// rate. The rotating-labels series is the repository benchmark's pipeline
// shape: four attributes and three labels drawn from 1,024 distinct sets
// in turn, so every label memo on the path misses and each publish pays
// for rendering its label set (once) and parsing it (once).
func BenchmarkClientPublish(b *testing.B) {
	for _, bc := range []struct {
		name     string
		window   int
		rotating bool
	}{
		{name: "window=64", window: 64},
		{name: "window=64/rotating-labels", window: 64, rotating: true},
		{name: "fireforget"},
	} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			policy := label.NewPolicy()
			policy.Grant("producer", label.Endorse, label.MustParsePattern("label:int:ecric.org.uk/mdt"))
			br := broker.New(policy)
			defer br.Close()
			srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{Logf: b.Logf})
			if err != nil {
				b.Fatalf("NewServer: %v", err)
			}
			defer srv.Close()

			cl, err := broker.DialBus(srv.Addr(), broker.ClientConfig{
				Login:         "producer",
				PublishWindow: bc.window,
				SendTimeout:   5 * time.Second,
				OnError:       func(err error) { b.Logf("bus error: %v", err) },
			})
			if err != nil {
				b.Fatalf("DialBus: %v", err)
			}
			defer cl.Close()

			payload := []byte(`{"patient_id": 33812769, "type": "cancer", "summary": "report"}`)
			mdt := label.Conf("ecric.org.uk/mdt/7")
			attrs := map[string]string{"type": "cancer"}
			var rotation [1024][3]label.Label
			if bc.rotating {
				attrs = map[string]string{"type": "cancer", "mdt": "7", "site": "C50.9", "stage": "2"}
				for i := range rotation {
					rotation[i] = [3]label.Label{
						label.Conf("ecric.org.uk/mdt/" + strconv.Itoa(i%16)),
						label.Conf("ecric.org.uk/patient/" + strconv.Itoa(i/16)),
						label.Int("ecric.org.uk/mdt"),
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := event.New("/bench/ingest", attrs, mdt)
				if bc.rotating {
					ev = event.New("/bench/ingest", attrs, rotation[i%len(rotation)][:]...)
				}
				ev.Body = payload
				if err := cl.Publish(ev); err != nil {
					b.Fatalf("Publish: %v", err)
				}
			}
			if err := cl.Flush(); err != nil {
				b.Fatalf("Flush: %v", err)
			}
			deadline := time.Now().Add(2 * time.Minute)
			for br.Stats().Published < uint64(b.N) {
				if time.Now().After(deadline) {
					b.Fatalf("broker accepted %d of %d publishes", br.Stats().Published, b.N)
				}
				time.Sleep(100 * time.Microsecond)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
