package broker_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// TestChaosConsumers hammers the networked broker with everything the
// consumer path must survive at once: a consumer engine with several
// subscriptions on its connection, concurrent publishers, subscription
// churn from short-lived clients, and mid-stream connection drops (both
// abrupt TCP closes and graceful disconnects). Under -race it doubles as
// the data-race check for the connection read loop feeding the engine's
// value-typed queues.
//
// The invariant: every subscription that survives the chaos — here, the
// engine's subscriptions, whose connections are never dropped — receives
// every published event exactly once, in per-subscription order, and the
// engine then tears down cleanly.
func TestChaosConsumers(t *testing.T) {
	const (
		fanout     = 6
		publishers = 4
		perPub     = 250
		churners   = 3
	)
	total := publishers * perPub

	policy := label.NewPolicy()
	policy.Grant("consumer", label.Clearance, label.MustParsePattern("label:conf:chaos.test/*"))
	policy.Grant("churn", label.Clearance, label.MustParsePattern("label:conf:chaos.test/*"))
	br := broker.New(policy)
	defer br.Close()
	srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	// onError tolerates the errors churn naturally produces — connection
	// drops racing in-flight frames. Anything else fails the test.
	onError := func(err error) {
		var pe *stomp.ProtocolError
		if errors.Is(err, net.ErrClosed) || errors.As(err, &pe) {
			t.Errorf("unexpected bus error: %v", err)
			return
		}
		// read EOF / reset-by-peer after a drop: expected background noise
	}

	eng, err := engine.New(engine.Config{
		Policy: policy,
		Bus: func(principal string) (broker.Bus, error) {
			return broker.DialBus(srv.Addr(), broker.ClientConfig{
				Login:   principal,
				OnError: onError,
			})
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}

	// Each surviving subscription records the sequence numbers it sees.
	// Subscriptions run sequentially on their own engine worker, so the
	// slices need no locks; engine.Stop's wait establishes the
	// happens-before for the final read.
	seen := make([][]int, fanout)
	for i := range seen {
		seen[i] = make([]int, 0, total)
	}
	err = eng.AddUnit(chaosUnit{name: "consumer", init: func(ctx *engine.InitContext) error {
		for i := 0; i < fanout; i++ {
			i := i
			if err := ctx.Subscribe("/chaos/out", "", func(_ *engine.Context, ev *event.Event) error {
				seq, err := strconv.Atoi(ev.Attr("seq"))
				if err != nil {
					return fmt.Errorf("bad seq attr %q: %v", ev.Attr("seq"), err)
				}
				seen[i] = append(seen[i], seq)
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("AddUnit: %v", err)
	}

	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup

	// Churners: short-lived clients that subscribe, receive a little,
	// unsubscribe or vanish. Odd iterations drop the TCP connection
	// abruptly (stomp.Client.Close sends no DISCONNECT); even ones
	// disconnect gracefully mid-stream.
	for c := 0; c < churners; c++ {
		chaosWG.Add(1)
		go func(c int) {
			defer chaosWG.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for iter := 0; ; iter++ {
				select {
				case <-stopChaos:
					return
				default:
				}
				cl, err := broker.DialBus(srv.Addr(), broker.ClientConfig{
					Login:   "churn",
					OnError: onError,
				})
				if err != nil {
					t.Errorf("churner %d dial: %v", c, err)
					return
				}
				var ids []string
				for s := 0; s < 1+rng.Intn(3); s++ {
					id, err := cl.Subscribe("/chaos/out", "", func(*event.Event) {})
					if err != nil {
						// The broker may be shutting the churner's conn
						// down already; only a pre-drop failure is a bug.
						break
					}
					ids = append(ids, id)
				}
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				if iter%2 == 0 {
					for _, id := range ids {
						_ = cl.Unsubscribe(id)
					}
					_ = cl.Close() // graceful DISCONNECT mid-stream
				} else {
					// Abrupt mid-stream connection drop: subscriptions die
					// with the TCP connections; the server must clean up.
					abruptClose(cl)
				}
			}
		}(c)
	}

	// Publishers: concurrent labelled publishes with globally unique
	// sequence numbers.
	var seq atomic.Int64
	lbl := label.Conf("chaos.test/records")
	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			for n := 0; n < perPub; n++ {
				s := seq.Add(1) - 1
				ev := event.New("/chaos/out", map[string]string{"seq": strconv.FormatInt(s, 10)}, lbl)
				if err := br.Publish("consumer", ev); err != nil {
					t.Errorf("Publish seq %d: %v", s, err)
					return
				}
			}
		}()
	}
	pubWG.Wait()

	// Everything is published; wait for the surviving subscriptions to
	// drain the wire, then stop the chaos and the engine.
	deadline := time.Now().Add(2 * time.Minute)
	for eng.Stats().EventsProcessed < uint64(total*fanout) {
		if time.Now().After(deadline) {
			t.Fatalf("processed %d of %d events", eng.Stats().EventsProcessed, total*fanout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stopChaos)
	chaosWG.Wait()
	eng.Stop() // clean teardown: closes the conn, drains queues, joins workers

	if got := eng.Stats().CallbackErrors; got != 0 {
		t.Errorf("%d callback errors", got)
	}
	if eng.Stats().EventsProcessed != uint64(total*fanout) {
		t.Errorf("processed %d events after Stop, want exactly %d (duplicates?)",
			eng.Stats().EventsProcessed, total*fanout)
	}
	for i, got := range seen {
		if len(got) != total {
			t.Errorf("subscription %d: %d deliveries, want %d", i, len(got), total)
			continue
		}
		counts := make(map[int]int, total)
		for _, s := range got {
			counts[s]++
		}
		for s := 0; s < total; s++ {
			if counts[s] != 1 {
				t.Errorf("subscription %d: seq %d delivered %d times, want exactly once", i, s, counts[s])
			}
		}
	}
}

// abruptClose tears down a client's TCP connections without a DISCONNECT
// handshake, simulating a crash mid-stream.
func abruptClose(cl *broker.Client) { cl.AbruptClose() }

// TestChaosWindowedPublishers extends the chaos suite to the producer
// fast path: windowed asynchronous publishers pipeline receipt-tracked
// SENDs at a consumer engine while their connections are abruptly dropped
// mid-batch. Under -race it
// doubles as the data-race check for the publish window.
//
// The invariants: a batch whose Flush succeeded is receipt-confirmed end
// to end, so every surviving subscription must receive each of its events
// exactly once; a mid-batch drop must surface through Publish or Flush
// (never be swallowed) and leave the client failing fast; and no event —
// confirmed or not — is ever duplicated.
func TestChaosWindowedPublishers(t *testing.T) {
	const (
		fanout       = 4
		publishers   = 3
		batch        = 20
		confirmGoal  = 200 // confirmed events per publisher
		dropInterval = 3   // abrupt drop every Nth batch
	)

	policy := label.NewPolicy()
	policy.Grant("consumer", label.Clearance, label.MustParsePattern("label:conf:chaos.test/*"))
	br := broker.New(policy)
	defer br.Close()
	srv, err := broker.NewServer("127.0.0.1:0", br, broker.ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	onError := func(err error) {
		var pe *stomp.ProtocolError
		if errors.As(err, &pe) {
			t.Errorf("unexpected protocol error: %v", err)
		}
		// Everything else — read EOFs, resets, receipt failures after a
		// drop — is the chaos this test injects.
	}

	eng, err := engine.New(engine.Config{
		Policy: policy,
		Bus: func(principal string) (broker.Bus, error) {
			return broker.DialBus(srv.Addr(), broker.ClientConfig{
				Login:   principal,
				OnError: onError,
			})
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}

	// seen[i] counts deliveries per sequence number for subscription i;
	// the handlers run sequentially per subscription worker, but the
	// final check polls concurrently, so a mutex guards the maps.
	var seenMu sync.Mutex
	seen := make([]map[int]int, fanout)
	for i := range seen {
		seen[i] = make(map[int]int)
	}
	err = eng.AddUnit(chaosUnit{name: "consumer", init: func(ctx *engine.InitContext) error {
		for i := 0; i < fanout; i++ {
			i := i
			if err := ctx.Subscribe("/chaos/win", "", func(_ *engine.Context, ev *event.Event) error {
				seq, err := strconv.Atoi(ev.Attr("seq"))
				if err != nil {
					return fmt.Errorf("bad seq attr %q: %v", ev.Attr("seq"), err)
				}
				seenMu.Lock()
				seen[i][seq]++
				seenMu.Unlock()
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("AddUnit: %v", err)
	}

	// confirmed collects the sequence numbers of every batch whose Flush
	// barrier succeeded: those publishes are broker-acknowledged and must
	// reach every surviving subscription.
	var confirmedMu sync.Mutex
	confirmed := make(map[int]struct{})
	var seq atomic.Int64
	lbl := label.Conf("chaos.test/records")

	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			dial := func() *broker.Client {
				cl, err := broker.DialBus(srv.Addr(), broker.ClientConfig{
					Login:         "pub-" + strconv.Itoa(p),
					PublishWindow: 8,
					SendTimeout:   5 * time.Second,
					OnError:       onError,
				})
				if err != nil {
					t.Errorf("publisher %d dial: %v", p, err)
					return nil
				}
				return cl
			}
			cl := dial()
			if cl == nil {
				return
			}
			defer func() { _ = cl.Close() }()

			done := 0
			for iter := 0; done < confirmGoal; iter++ {
				drop := iter%dropInterval == dropInterval-1
				seqs := make([]int, 0, batch)
				failed := false
				for n := 0; n < batch; n++ {
					if drop && n == batch/2 {
						// Mid-batch crash: every connection dies with
						// receipts still in flight.
						abruptClose(cl)
					}
					s := int(seq.Add(1) - 1)
					ev := event.New("/chaos/win",
						map[string]string{"seq": strconv.Itoa(s)}, lbl)
					if err := cl.Publish(ev); err != nil {
						failed = true
						break
					}
					seqs = append(seqs, s)
				}
				flushErr := cl.Flush()
				switch {
				case drop:
					// The drop must be reported by Publish or Flush, and
					// the window must stay failed afterwards.
					if !failed && flushErr == nil {
						t.Errorf("publisher %d: dropped batch reported no error", p)
					}
					if err := cl.Publish(event.New("/chaos/win", nil, lbl)); err == nil {
						t.Errorf("publisher %d: Publish after drop succeeded; want sticky error", p)
					}
					cl = dial()
					if cl == nil {
						return
					}
				case failed || flushErr != nil:
					// Collateral damage from a previous drop racing the
					// redial; retry on a fresh connection.
					_ = cl.Close()
					cl = dial()
					if cl == nil {
						return
					}
				default:
					confirmedMu.Lock()
					for _, s := range seqs {
						confirmed[s] = struct{}{}
					}
					confirmedMu.Unlock()
					done += len(seqs)
				}
			}
		}(p)
	}
	pubWG.Wait()

	confirmedMu.Lock()
	want := make([]int, 0, len(confirmed))
	for s := range confirmed {
		want = append(want, s)
	}
	confirmedMu.Unlock()
	if len(want) < publishers*confirmGoal {
		t.Fatalf("only %d confirmed publishes, want >= %d", len(want), publishers*confirmGoal)
	}

	// Every confirmed publish must reach every subscription.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		missing := 0
		seenMu.Lock()
		for i := 0; i < fanout; i++ {
			for _, s := range want {
				if seen[i][s] == 0 {
					missing++
				}
			}
		}
		seenMu.Unlock()
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d confirmed deliveries still missing", missing)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Settle, then check nothing was delivered twice — confirmed or not.
	time.Sleep(100 * time.Millisecond)
	eng.Stop()

	seenMu.Lock()
	defer seenMu.Unlock()
	for i := 0; i < fanout; i++ {
		for s, n := range seen[i] {
			if n != 1 {
				t.Errorf("subscription %d: seq %d delivered %d times, want exactly once", i, s, n)
			}
		}
	}
}

// chaosUnit adapts a name and init function to engine.Unit.
type chaosUnit struct {
	name string
	init func(ctx *engine.InitContext) error
}

func (u chaosUnit) Name() string                       { return u.name }
func (u chaosUnit) Init(ctx *engine.InitContext) error { return u.init(ctx) }
