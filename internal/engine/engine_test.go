package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/event"
	"safeweb/internal/label"
)

// newTestRig builds a broker + engine pair over the given policy.
func newTestRig(t *testing.T, policy *label.Policy) (*broker.Broker, *Engine) {
	t.Helper()
	b := broker.New(policy)
	e, err := New(Config{
		Policy: policy,
		Bus: func(principal string) (broker.Bus, error) {
			return b.Endpoint(principal), nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		e.Stop()
		b.Close()
	})
	return b, e
}

// mdtPolicy gives the units used in these tests privileges mirroring the
// MDT application: producer is privileged; aggregator has clearance over
// all patient labels; storage is privileged with clearance.
func mdtPolicy() *label.Policy {
	p := label.NewPolicy()
	all := label.MustParsePattern("label:conf:ecric.org.uk/*")
	p.Grant("aggregator", label.Clearance, all)
	p.Grant("storage", label.Clearance, all)
	p.SetPrincipal("producer", label.NewPrivileges().
		Grant(label.Clearance, all).
		Grant(label.Endorse, label.MustParsePattern("label:int:ecric.org.uk/*")), true)
	p.SetPrincipal("storage-priv", label.NewPrivileges().Grant(label.Clearance, all), true)
	return p
}

func TestLabelsPropagateThroughCallback(t *testing.T) {
	policy := mdtPolicy()
	b, e := newTestRig(t, policy)

	out := make(chan *event.Event, 1)
	// Aggregator republishes incoming events to /out without touching
	// labels.
	err := e.AddUnit(&FuncUnit{UnitName: "aggregator", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/in", "", func(ctx *Context, ev *event.Event) error {
			return ctx.Publish("/out", map[string]string{"from": "agg"}, nil)
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit: %v", err)
	}
	// Storage collects /out.
	err = e.AddUnit(&FuncUnit{UnitName: "storage", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/out", "", func(ctx *Context, ev *event.Event) error {
			// Delivered events are released to the pool after the
			// callback; Clone what outlives it.
			out <- ev.Clone()
			return nil
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit storage: %v", err)
	}

	patient := label.Conf("ecric.org.uk/patient/1")
	if err := b.Publish("producer", event.New("/in", nil, patient)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	e.Drain()

	select {
	case ev := <-out:
		if !ev.Labels.Contains(patient) {
			t.Errorf("label lost in propagation: %v", ev.Labels)
		}
	default:
		t.Fatal("no output event")
	}
}

func TestDeclassifyRequiresPrivilege(t *testing.T) {
	policy := mdtPolicy()
	b, e := newTestRig(t, policy)

	patient := label.Conf("ecric.org.uk/patient/1")
	cbErrs := make(chan error, 2)

	err := e.AddUnit(&FuncUnit{UnitName: "aggregator", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/in", "", func(ctx *Context, ev *event.Event) error {
			// Non-privileged unit attempts to strip the label.
			err := ctx.Publish("/out", nil, nil, WithRemove(patient))
			cbErrs <- err
			return nil
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit: %v", err)
	}
	if err := b.Publish("producer", event.New("/in", nil, patient)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	e.Drain()

	pubErr := <-cbErrs
	var fe *label.FlowError
	if !errors.As(pubErr, &fe) || fe.Op != "declassify" {
		t.Fatalf("declassify error = %v", pubErr)
	}
	if e.Stats().FlowViolations != 1 {
		t.Errorf("FlowViolations = %d", e.Stats().FlowViolations)
	}
}

func TestPrivilegedUnitDeclassifies(t *testing.T) {
	policy := mdtPolicy()
	b, e := newTestRig(t, policy)

	patient := label.Conf("ecric.org.uk/patient/1")
	out := make(chan *event.Event, 1)

	err := e.AddUnit(&FuncUnit{UnitName: "storage-priv", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/in", "", func(ctx *Context, ev *event.Event) error {
			return ctx.Publish("/out", nil, nil, WithRemoveAll())
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit: %v", err)
	}
	err = e.AddUnit(&FuncUnit{UnitName: "sink", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/out", "", func(ctx *Context, ev *event.Event) error {
			out <- ev.Clone() // events are pooled once the callback returns
			return nil
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit sink: %v", err)
	}

	if err := b.Publish("producer", event.New("/in", nil, patient)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	e.Drain()

	select {
	case ev := <-out:
		if !ev.Labels.IsEmpty() {
			t.Errorf("labels after privileged declassification: %v", ev.Labels)
		}
	default:
		t.Fatal("declassified event not delivered")
	}
}

// TestPaperListing1 reproduces the unit of Listing 1: it accumulates
// patient ids from /patient_report events in the store and publishes a
// daily report on /next_day with the patient-list label replacing the
// tracked labels.
func TestPaperListing1(t *testing.T) {
	policy := mdtPolicy()
	listLabel := label.Conf("ecric.org.uk/patient_list")
	// The reporter needs clearance (from mdtPolicy pattern) plus
	// declassify over patient labels and nothing else.
	policy.SetPrincipal("reporter", label.NewPrivileges().
		Grant(label.Clearance, label.MustParsePattern("label:conf:ecric.org.uk/*")).
		Grant(label.Declassify, label.MustParsePattern("label:conf:ecric.org.uk/patient/*")), false)
	policy.Grant("sink", label.Clearance, label.MustParsePattern("label:conf:ecric.org.uk/*"))

	b, e := newTestRig(t, policy)
	daily := make(chan *event.Event, 1)

	err := e.AddUnit(&FuncUnit{UnitName: "reporter", InitFunc: func(ctx *InitContext) error {
		if err := ctx.Subscribe("/patient_report", "type = 'cancer'", func(ctx *Context, ev *event.Event) error {
			list, _ := ctx.Get("patient_list")
			if list != "" {
				list += ","
			}
			list += ev.Attr("patient_id")
			return ctx.Set("patient_list", list)
		}); err != nil {
			return err
		}
		return ctx.Subscribe("/next_day", "", func(ctx *Context, ev *event.Event) error {
			list, _ := ctx.Get("patient_list")
			return ctx.Publish("/daily_report", map[string]string{"list": list}, nil,
				WithRemoveAll(), WithAdd(listLabel))
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit reporter: %v", err)
	}
	err = e.AddUnit(&FuncUnit{UnitName: "sink", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/daily_report", "", func(ctx *Context, ev *event.Event) error {
			daily <- ev.Clone() // events are pooled once the callback returns
			return nil
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit sink: %v", err)
	}

	p1 := label.Conf("ecric.org.uk/patient/1")
	p2 := label.Conf("ecric.org.uk/patient/2")
	pub := func(ev *event.Event) {
		t.Helper()
		if err := b.Publish("producer", ev); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	pub(event.New("/patient_report", map[string]string{"type": "cancer", "patient_id": "1"}, p1))
	pub(event.New("/patient_report", map[string]string{"type": "cancer", "patient_id": "2"}, p2))
	pub(event.New("/patient_report", map[string]string{"type": "screening", "patient_id": "3"}))
	e.Drain()
	pub(event.New("/next_day", nil))
	e.Drain()

	select {
	case ev := <-daily:
		if got := ev.Attr("list"); got != "1,2" {
			t.Errorf("daily list = %q, want \"1,2\"", got)
		}
		// The patient labels were declassified and replaced by the list
		// label — exactly Listing 1 lines 8-9.
		if !ev.Labels.Equal(label.NewSet(listLabel)) {
			t.Errorf("daily labels = %v, want only %v", ev.Labels, listLabel)
		}
	default:
		t.Fatal("no daily report")
	}
}

func TestStoreLabelFlow(t *testing.T) {
	policy := mdtPolicy()
	b, e := newTestRig(t, policy)

	p1 := label.Conf("ecric.org.uk/patient/1")
	p2 := label.Conf("ecric.org.uk/patient/2")
	results := make(chan label.Set, 1)

	err := e.AddUnit(&FuncUnit{UnitName: "aggregator", InitFunc: func(ctx *InitContext) error {
		if err := ctx.Subscribe("/write", "", func(ctx *Context, ev *event.Event) error {
			// Tracked labels (from the event) become the key's labels.
			return ctx.Set("state", ev.Attr("v"))
		}); err != nil {
			return err
		}
		return ctx.Subscribe("/read", "", func(ctx *Context, ev *event.Event) error {
			// Reading merges the key's labels into the tracked set.
			_, _ = ctx.Get("state")
			results <- ctx.Labels()
			return nil
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit: %v", err)
	}

	if err := b.Publish("producer", event.New("/write", map[string]string{"v": "x"}, p1)); err != nil {
		t.Fatalf("Publish write: %v", err)
	}
	e.Drain()
	if err := b.Publish("producer", event.New("/read", nil, p2)); err != nil {
		t.Fatalf("Publish read: %v", err)
	}
	e.Drain()

	got := <-results
	if !got.Contains(p1) || !got.Contains(p2) {
		t.Errorf("tracked labels after store read = %v, want both patients", got)
	}
}

func TestCallbackPanicContained(t *testing.T) {
	policy := mdtPolicy()
	b, e := newTestRig(t, policy)

	var mu sync.Mutex
	var reported []string
	e.cfg.OnCallbackError = func(unit string, ev *event.Event, err error) {
		mu.Lock()
		reported = append(reported, fmt.Sprintf("%s: %v", unit, err))
		mu.Unlock()
	}

	err := e.AddUnit(&FuncUnit{UnitName: "aggregator", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/in", "", func(ctx *Context, ev *event.Event) error {
			panic("unit bug")
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit: %v", err)
	}
	if err := b.Publish("producer", event.New("/in", nil)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	e.Drain()

	if e.Stats().CallbackErrors != 1 {
		t.Errorf("CallbackErrors = %d", e.Stats().CallbackErrors)
	}
	mu.Lock()
	firstReported := append([]string(nil), reported...)
	mu.Unlock() // must not hold mu across the next Drain: the error hook locks it
	if len(firstReported) != 1 || !strings.Contains(firstReported[0], "unit bug") {
		t.Errorf("reported = %v", firstReported)
	}

	// A second event still processes: the engine survived the panic.
	if err := b.Publish("producer", event.New("/in", nil)); err != nil {
		t.Fatalf("Publish 2: %v", err)
	}
	e.Drain()
	if e.Stats().EventsProcessed != 2 {
		t.Errorf("EventsProcessed = %d", e.Stats().EventsProcessed)
	}
}

func TestJailDeniesIOForNonPrivileged(t *testing.T) {
	policy := mdtPolicy()
	b, e := newTestRig(t, policy)

	ioErrs := make(chan error, 1)
	err := e.AddUnit(&FuncUnit{UnitName: "aggregator", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/in", "", func(ctx *Context, ev *event.Event) error {
			// Buggy logging code tries to write patient data to disk
			// (the paper's §3.1 example of a bug IFC contains).
			_, err := ctx.Jail().FS().Create("/tmp/leak.log")
			ioErrs <- err
			return nil
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit: %v", err)
	}
	if err := b.Publish("producer", event.New("/in", nil)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	e.Drain()

	if err := <-ioErrs; err == nil {
		t.Fatal("jailed unit performed I/O")
	}
	if e.Audit().Len() != 1 {
		t.Errorf("audit len = %d", e.Audit().Len())
	}
}

func TestSubscriptionOrderPreserved(t *testing.T) {
	policy := mdtPolicy()
	b, e := newTestRig(t, policy)

	var mu sync.Mutex
	var order []string
	err := e.AddUnit(&FuncUnit{UnitName: "aggregator", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/in", "", func(ctx *Context, ev *event.Event) error {
			mu.Lock()
			order = append(order, ev.Attr("n"))
			mu.Unlock()
			return nil
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit: %v", err)
	}
	for i := 0; i < 50; i++ {
		if err := b.Publish("producer", event.New("/in", map[string]string{"n": fmt.Sprint(i)})); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	e.Drain()
	mu.Lock()
	defer mu.Unlock()
	for i, n := range order {
		if n != fmt.Sprint(i) {
			t.Fatalf("order[%d] = %s", i, n)
		}
	}
}

func TestAddUnitValidation(t *testing.T) {
	policy := mdtPolicy()
	_, e := newTestRig(t, policy)

	if err := e.AddUnit(&FuncUnit{UnitName: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if err := e.AddUnit(&FuncUnit{UnitName: "u"}); err != nil {
		t.Fatalf("AddUnit: %v", err)
	}
	if err := e.AddUnit(&FuncUnit{UnitName: "u"}); err == nil {
		t.Error("duplicate unit accepted")
	}
	failing := &FuncUnit{UnitName: "bad", InitFunc: func(*InitContext) error {
		return errors.New("boom")
	}}
	if err := e.AddUnit(failing); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("failing init: %v", err)
	}
}

func TestInitContextInvalidAfterInit(t *testing.T) {
	policy := mdtPolicy()
	_, e := newTestRig(t, policy)

	var leaked *InitContext
	if err := e.AddUnit(&FuncUnit{UnitName: "u", InitFunc: func(ctx *InitContext) error {
		leaked = ctx
		return nil
	}}); err != nil {
		t.Fatalf("AddUnit: %v", err)
	}
	if err := leaked.Subscribe("/t", "", func(*Context, *event.Event) error { return nil }); err == nil {
		t.Error("retained InitContext still subscribes")
	}
	if err := leaked.Publish("/t", nil, nil); err == nil {
		t.Error("retained InitContext still publishes")
	}
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing policy accepted")
	}
	if _, err := New(Config{Policy: label.NewPolicy()}); err == nil {
		t.Error("missing bus accepted")
	}
}

func TestIntegrityEndorsementInContext(t *testing.T) {
	policy := mdtPolicy()
	b, e := newTestRig(t, policy)

	mdtInt := label.Int("ecric.org.uk/mdt")
	errs := make(chan error, 2)

	err := e.AddUnit(&FuncUnit{UnitName: "aggregator", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/in", "", func(ctx *Context, ev *event.Event) error {
			errs <- ctx.AddLabels(mdtInt)                          // aggregator: no endorse privilege
			errs <- ctx.Publish("/out", nil, nil, WithAdd(mdtInt)) // also denied
			return nil
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit: %v", err)
	}
	if err := b.Publish("producer", event.New("/in", nil)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	e.Drain()

	for i := 0; i < 2; i++ {
		err := <-errs
		var fe *label.FlowError
		if !errors.As(err, &fe) || fe.Op != "endorse" {
			t.Errorf("endorse attempt %d: err = %v", i, err)
		}
	}
}

// TestStopConcurrentWithAddUnit races Stop against an AddUnit whose Init
// registers subscriptions. Whichever side wins, every subscription worker
// goroutine must be torn down — an AddUnit that loses the race used to
// leak its workers because Stop never saw the unit's queues.
func TestStopConcurrentWithAddUnit(t *testing.T) {
	policy := mdtPolicy()
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		b := broker.New(policy)
		e, err := New(Config{
			Policy: policy,
			Bus: func(principal string) (broker.Bus, error) {
				return b.Endpoint(principal), nil
			},
			Logf: t.Logf,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = e.AddUnit(&FuncUnit{UnitName: "aggregator", InitFunc: func(ctx *InitContext) error {
				for j := 0; j < 4; j++ {
					if err := ctx.Subscribe("/in", "", func(*Context, *event.Event) error {
						return nil
					}); err != nil {
						return err
					}
				}
				return nil
			}})
		}()
		go func() {
			defer wg.Done()
			e.Stop()
		}()
		wg.Wait()
		e.Stop()
		b.Close()
	}
	// Leaked subscription workers would accumulate across iterations; give
	// legitimately exiting goroutines a moment to unwind.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+5 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+5 {
		t.Errorf("goroutines grew from %d to %d; subscription workers leaked", before, n)
	}
}

// TestContextInvalidAfterCallback: the pooled per-worker Context is
// invalidated between callbacks, so a retained Context fails loudly
// instead of acting with a later event's tracked labels.
func TestContextInvalidAfterCallback(t *testing.T) {
	policy := mdtPolicy()
	b, e := newTestRig(t, policy)

	leaked := make(chan *Context, 1)
	err := e.AddUnit(&FuncUnit{UnitName: "aggregator", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/in", "", func(ctx *Context, ev *event.Event) error {
			select {
			case leaked <- ctx:
			default:
			}
			return nil
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit: %v", err)
	}
	if err := b.Publish("producer", event.New("/in", nil)); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	e.Drain()

	ctx := <-leaked
	if err := ctx.Publish("/out", nil, nil); !errors.Is(err, ErrContextInvalid) {
		t.Errorf("Publish on retained Context: err = %v, want ErrContextInvalid", err)
	}
	if err := ctx.Set("k", "v"); !errors.Is(err, ErrContextInvalid) {
		t.Errorf("Set on retained Context: err = %v, want ErrContextInvalid", err)
	}
	if err := ctx.AddLabels(label.Conf("ecric.org.uk/x")); !errors.Is(err, ErrContextInvalid) {
		t.Errorf("AddLabels on retained Context: err = %v, want ErrContextInvalid", err)
	}
	if _, ok := ctx.Get("k"); ok {
		t.Error("Get on retained Context succeeded")
	}
}

// TestSubQueuePushAfterClose: a delivery that lost the race against queue
// teardown (publisher routed through a pre-unsubscribe route-table
// snapshot) is dropped, not a send on a closed channel.
func TestSubQueuePushAfterClose(t *testing.T) {
	q := &subQueue{ch: make(chan queuedEvent, 1), stop: make(chan struct{})}
	if !q.push(queuedEvent{}) {
		t.Fatal("push on open queue rejected")
	}
	go func() {
		for range q.ch {
		}
	}()
	q.close()
	if q.push(queuedEvent{}) {
		t.Error("push on closed queue accepted")
	}
}

// TestEngineStopBlockedPublish: two units relay /ping ↔ /pong with no hop
// limit while a producer injects more events than both queues hold, so
// both workers and the producer end parked, each pushing to a full queue.
// Stop must still return: closing a queue refuses the pushes parked on
// it.
func TestEngineStopBlockedPublish(t *testing.T) {
	policy := label.NewPolicy()
	b := broker.New(policy)
	defer b.Close()
	var dropped atomic.Int64
	e, err := New(Config{
		Policy: policy,
		Bus:    func(principal string) (broker.Bus, error) { return b.Endpoint(principal), nil },
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "dropped") {
				dropped.Add(1)
			}
			t.Logf(format, args...)
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	relay := func(name, in, out string) Unit {
		return &FuncUnit{UnitName: name, InitFunc: func(ctx *InitContext) error {
			return ctx.Subscribe(in, "", func(ctx *Context, ev *event.Event) error {
				return ctx.Publish(out, nil, nil)
			})
		}}
	}
	for _, u := range []Unit{relay("a", "/ping", "/pong"), relay("b", "/pong", "/ping")} {
		if err := e.AddUnit(u); err != nil {
			t.Fatalf("AddUnit: %v", err)
		}
	}
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for range 2*queueSize + 64 {
			_ = b.Publish("producer", event.New("/ping", nil))
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for pushSite.Parked() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pushes parked, want both workers and the producer", pushSite.Parked())
		}
		time.Sleep(time.Millisecond)
	}

	stopped := make(chan struct{})
	go func() {
		e.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return within 5s of two workers parked on each other's full queues")
	}
	<-produced
	if n := pushSite.Parked(); n != 0 {
		t.Fatalf("%d pushes still parked after Stop, want 0", n)
	}
	// A parked push either found room before its queue closed or was
	// refused: every delivery ran or was logged, none was lost silently.
	delivered, ran := b.Stats().Delivered, e.Stats().EventsProcessed
	if n := uint64(dropped.Load()); delivered != ran+n {
		t.Fatalf("%d deliveries, %d callbacks run and %d drops logged; want every delivery run or logged", delivered, ran, n)
	}
}

func TestStopIdempotentAndDrains(t *testing.T) {
	policy := mdtPolicy()
	b, e := newTestRig(t, policy)

	processed := make(chan struct{}, 100)
	err := e.AddUnit(&FuncUnit{UnitName: "aggregator", InitFunc: func(ctx *InitContext) error {
		return ctx.Subscribe("/in", "", func(ctx *Context, ev *event.Event) error {
			processed <- struct{}{}
			return nil
		})
	}})
	if err != nil {
		t.Fatalf("AddUnit: %v", err)
	}
	for i := 0; i < 20; i++ {
		_ = b.Publish("producer", event.New("/in", nil))
	}
	e.Stop()
	e.Stop() // idempotent
	if len(processed) != 20 {
		t.Errorf("processed %d events before stop, want 20", len(processed))
	}
	if err := e.AddUnit(&FuncUnit{UnitName: "late"}); err == nil {
		t.Error("AddUnit after Stop accepted")
	}
}
