package engine

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/event"
	"safeweb/internal/faultnet"
	"safeweb/internal/label"
)

// latencyProxy forwards every connection it accepts to upstream over a
// faultnet connection that sleeps readLatency before each read, so
// everything the broker sends a client — deliveries and receipts — spends
// at least that long on the wire.
func latencyProxy(t *testing.T, upstream string, readLatency time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := faultnet.Dial("tcp", upstream, faultnet.Plan{ReadLatency: readLatency})
			if err != nil {
				_ = down.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, down, up)
			mu.Unlock()
			pipe := func(dst, src net.Conn) {
				defer wg.Done()
				_, _ = io.Copy(dst, src)
				_ = dst.Close()
				_ = src.Close()
			}
			wg.Add(2)
			go pipe(up, down)
			go pipe(down, up)
		}
	}()
	return ln.Addr().String()
}

// TestDrainWaitsForWire: Drain returns only once nothing is left on the
// wire. A relay unit and a sink unit reach a real broker front through a
// proxy that holds every server-to-client read for 20 ms; after each
// round of 50 in-process publishes, Drain must leave the sink at exactly
// 50 more events — fire-and-forget, windowed, with a credit window far
// smaller than the burst (deliveries park at the broker until a grant
// releases them), and windowed with credit.
func TestDrainWaitsForWire(t *testing.T) {
	const (
		rounds = 5
		burst  = 50
	)
	for _, tc := range []struct {
		name string
		cfg  broker.ClientConfig
	}{
		{"fire-and-forget", broker.ClientConfig{}},
		{"window", broker.ClientConfig{PublishWindow: 8}},
		{"credit-parked", broker.ClientConfig{SubscribeCredit: 4}},
		{"window+credit", broker.ClientConfig{PublishWindow: 8, SubscribeCredit: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			policy := label.NewPolicy()
			br := broker.New(policy)
			t.Cleanup(br.Close)
			srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{Logf: t.Logf})
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			addr := latencyProxy(t, srv.Addr(), 20*time.Millisecond)

			e, err := New(Config{
				Policy: policy,
				Bus: func(principal string) (broker.Bus, error) {
					cfg := tc.cfg
					cfg.Login = principal
					cfg.OnError = func(err error) { t.Errorf("bus %s: %v", principal, err) }
					return broker.DialBus(addr, cfg)
				},
				Logf: t.Logf,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			t.Cleanup(e.Stop)

			var sunk atomic.Int64
			err = e.AddUnit(&FuncUnit{UnitName: "relay", InitFunc: func(ctx *InitContext) error {
				return ctx.Subscribe("/in", "", func(ctx *Context, ev *event.Event) error {
					return ctx.Publish("/out", nil, ev.Body)
				})
			}})
			if err != nil {
				t.Fatalf("AddUnit relay: %v", err)
			}
			err = e.AddUnit(&FuncUnit{UnitName: "sink", InitFunc: func(ctx *InitContext) error {
				return ctx.Subscribe("/out", "", func(*Context, *event.Event) error {
					sunk.Add(1)
					return nil
				})
			}})
			if err != nil {
				t.Fatalf("AddUnit sink: %v", err)
			}

			for r := 1; r <= rounds; r++ {
				for i := 0; i < burst; i++ {
					if err := br.Publish("producer", event.New("/in", nil)); err != nil {
						t.Fatalf("Publish: %v", err)
					}
				}
				e.Drain()
				if got, want := sunk.Load(), int64(r*burst); got != want {
					t.Fatalf("round %d: sink at %d after Drain, want %d", r, got, want)
				}
			}
		})
	}
}

// heldBus is the least a bus may do under the broker.Bus.Flush contract:
// a publish waits in the bus's outbox, and a delivery in its inbox, until
// the bus is flushed, which hands the outbox to the broker and then the
// inbox to the handlers.
type heldBus struct {
	net    *heldNet
	outbox []*event.Event            // guarded by net.mu
	inbox  []func()                  // guarded by net.mu
	subs   map[string]broker.Handler // by topic; guarded by net.mu
}

// heldNet is the broker between heldBuses.
type heldNet struct {
	mu    sync.Mutex
	buses []*heldBus
}

func (n *heldNet) bus(string) (broker.Bus, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b := &heldBus{net: n, subs: make(map[string]broker.Handler)}
	n.buses = append(n.buses, b)
	return b, nil
}

// routeLocked queues ev for every bus subscribed to its topic.
func (n *heldNet) routeLocked(ev *event.Event) {
	for _, b := range n.buses {
		if h := b.subs[ev.Topic]; h != nil {
			b.inbox = append(b.inbox, func() { h(ev) })
		}
	}
}

func (b *heldBus) Publish(ev *event.Event) error {
	b.net.mu.Lock()
	b.outbox = append(b.outbox, ev)
	b.net.mu.Unlock()
	return nil
}

func (b *heldBus) Subscribe(topic, _ string, h broker.Handler) (string, error) {
	b.net.mu.Lock()
	b.subs[topic] = h
	b.net.mu.Unlock()
	return topic, nil
}

func (b *heldBus) Flush() error {
	b.net.mu.Lock()
	for _, ev := range b.outbox {
		b.net.routeLocked(ev)
	}
	b.outbox = nil
	inbox := b.inbox
	b.inbox = nil
	b.net.mu.Unlock()
	for _, deliver := range inbox {
		deliver()
	}
	return nil
}

func (b *heldBus) Unsubscribe(string) error { return nil }
func (b *heldBus) Close() error             { return nil }

// TestDrainBusContract: Drain is exact on any bus that keeps the Flush
// contract and no more. Buses flush in no fixed order, so a round's first
// pass may reach the sink before the relay's publishes reach the broker;
// the second pass delivers them, and the marker behind them makes the
// round count.
func TestDrainBusContract(t *testing.T) {
	const burst = 20
	var n heldNet
	e, err := New(Config{Policy: label.NewPolicy(), Bus: n.bus, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(e.Stop)
	var sunk atomic.Int64
	err = e.AddUnit(&FuncUnit{UnitName: "relay", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/in", "", func(ctx *Context, ev *event.Event) error {
			return ctx.Publish("/out", nil, nil)
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit relay: %v", err)
	}
	err = e.AddUnit(&FuncUnit{UnitName: "sink", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/out", "", func(*Context, *event.Event) error {
			sunk.Add(1)
			return nil
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit sink: %v", err)
	}
	for r := 1; r <= 50; r++ {
		n.mu.Lock()
		for i := 0; i < burst; i++ {
			n.routeLocked(event.New("/in", nil))
		}
		n.mu.Unlock()
		e.Drain()
		if got, want := sunk.Load(), int64(r*burst); got != want {
			t.Fatalf("round %d: sink at %d after Drain, want %d", r, got, want)
		}
	}
}
