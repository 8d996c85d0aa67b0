package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/event"
	"safeweb/internal/label"
)

// TestQuickPipelineConfPreservation is the system-level IFC safety
// property: random events pushed through a random chain of relay units
// never lose a confidentiality label, whatever the relays' attribute
// transformations.
func TestQuickPipelineConfPreservation(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	universe := []label.Label{
		label.Conf("a"), label.Conf("b"), label.Conf("c"), label.Conf("d"),
	}

	policy := label.NewPolicy()
	all := label.MustParsePattern("label:conf:*")
	policy.SetPrincipal("source", label.NewPrivileges().Grant(label.Clearance, all), true)
	b, e := newTestRig(t, policy)

	// A chain of 4 relays, each republishing to the next topic with a
	// fixed extra confidentiality label per relay (adding is always
	// allowed). The per-relay label is chosen up front: callbacks run on
	// worker goroutines and must not share the test's rand.Rand.
	const chainLen = 4
	var mu sync.Mutex
	got := make(map[string]label.Set) // event id -> final labels
	for i := 0; i < chainLen; i++ {
		name := fmt.Sprintf("relay-%d", i)
		policy.Grant(name, label.Clearance, all)
		idx := i
		extra := universe[rnd.Intn(len(universe))]
		err := e.AddUnit(&FuncUnit{UnitName: name, InitFunc: func(ctx *InitContext) error {
			return ctx.Subscribe(fmt.Sprintf("/hop/%d", idx), "", func(ctx *Context, ev *event.Event) error {
				return ctx.Publish(fmt.Sprintf("/hop/%d", idx+1),
					map[string]string{"id": ev.Attr("id")}, nil,
					WithAdd(extra))
			})
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	policy.Grant("sink", label.Clearance, all)
	err := e.AddUnit(&FuncUnit{UnitName: "sink", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe(fmt.Sprintf("/hop/%d", chainLen), "", func(ctx *Context, ev *event.Event) error {
			mu.Lock()
			got[ev.Attr("id")] = ev.Labels
			mu.Unlock()
			return nil
		})
	}})
	if err != nil {
		t.Fatal(err)
	}

	want := make(map[string]label.Set)
	for i := 0; i < 100; i++ {
		id := fmt.Sprint(i)
		set := make(label.Set)
		for _, l := range universe {
			if rnd.Intn(2) == 0 {
				set[l] = struct{}{}
			}
		}
		want[id] = set
		ev := event.New("/hop/0", map[string]string{"id": id})
		ev.Labels = set
		if err := b.Publish("source", ev); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 100 {
		t.Fatalf("sink saw %d events, want 100", len(got))
	}
	for id, inSet := range want {
		outSet := got[id]
		if !inSet.SubsetOf(outSet) {
			t.Fatalf("event %s lost labels: in %v, out %v", id, inSet, outSet)
		}
	}
}

// TestBackPressureSmallQueues: a burst larger than the per-subscription
// queue still processes completely — publishers block rather than drop.
func TestBackPressureSmallQueues(t *testing.T) {
	policy := mdtPolicy()
	b := broker.New(policy)
	e, err := New(Config{
		Policy: policy,
		Bus: func(p string) (broker.Bus, error) {
			return b.Endpoint(p), nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		e.Stop()
		b.Close()
	})

	const burst = 2 * queueSize
	var processed sync.WaitGroup
	processed.Add(burst)
	err = e.AddUnit(&FuncUnit{UnitName: "aggregator", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/in", "", func(ctx *Context, ev *event.Event) error {
			time.Sleep(100 * time.Microsecond) // slow consumer
			processed.Done()
			return nil
		})
	}})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		for i := 0; i < burst; i++ {
			_ = b.Publish("producer", event.New("/in", nil))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("publisher deadlocked")
	}
	waitDone := make(chan struct{})
	go func() {
		processed.Wait()
		close(waitDone)
	}()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatal("events lost under back-pressure")
	}
}

// TestPolicyReloadMidStream: tightening the policy applies to in-flight
// subscriptions because the broker consults the policy at delivery time.
func TestPolicyReloadMidStream(t *testing.T) {
	policy := mdtPolicy()
	b, e := newTestRig(t, policy)

	patient := label.Conf("ecric.org.uk/patient/1")
	var mu sync.Mutex
	count := 0
	err := e.AddUnit(&FuncUnit{UnitName: "aggregator", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/in", "", func(ctx *Context, ev *event.Event) error {
			mu.Lock()
			count++
			mu.Unlock()
			return nil
		})
	}})
	if err != nil {
		t.Fatal(err)
	}

	if err := b.Publish("producer", event.New("/in", nil, patient)); err != nil {
		t.Fatal(err)
	}
	e.Drain()

	// Revoke the aggregator's clearance: the same event no longer
	// reaches it.
	policy.SetPrincipal("aggregator", label.NewPrivileges(), false)
	if err := b.Publish("producer", event.New("/in", nil, patient)); err != nil {
		t.Fatal(err)
	}
	e.Drain()

	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (revocation did not apply)", count)
	}
}

// TestConcurrentUnitStores: different subscriptions of one unit share the
// labelled store safely under concurrency.
func TestConcurrentUnitStores(t *testing.T) {
	policy := mdtPolicy()
	b, e := newTestRig(t, policy)

	err := e.AddUnit(&FuncUnit{UnitName: "aggregator", InitFunc: func(ctx *InitContext) error {
		for i := 0; i < 4; i++ {
			topic := fmt.Sprintf("/in/%d", i)
			if err := ctx.Subscribe(topic, "", func(ctx *Context, ev *event.Event) error {
				v, _ := ctx.Get("shared")
				return ctx.Set("shared", v+"x")
			}); err != nil {
				return err
			}
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 50; j++ {
			if err := b.Publish("producer", event.New(fmt.Sprintf("/in/%d", i), nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Drain()
	// No assertion on the value (lost updates are the app's concern);
	// the point is no race detected and no panic.
}
