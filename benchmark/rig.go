package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/label"
)

// Principals and label names shared by the broker workloads. The authority
// is the benchmark's own, so nothing here can collide with a deployment's.
const (
	driverName = "driver" // the load generator's login; holds no privileges
	authority  = "bench"
)

func conf(name string) label.Label { return label.Conf(authority + "/" + name) }

func clearance(patterns ...string) *label.Privileges {
	p := label.NewPrivileges()
	for _, pat := range patterns {
		p.Grant(label.Clearance, label.MustParsePattern("label:conf:"+authority+"/"+pat))
	}
	return p
}

// unit adapts a name and an init function to engine.Unit.
type unit struct {
	name string
	init func(ctx *engine.InitContext) error
}

func (u unit) Name() string                       { return u.name }
func (u unit) Init(ctx *engine.InitContext) error { return u.init(ctx) }

// faults counts what the program reports through its error hooks while a
// run is live. Hooks fire on the program's own goroutines, so everything
// is atomic; closing marks the start of teardown, after which connection
// errors are the normal sound of sockets closing.
type faults struct {
	closing       atomic.Bool
	busErrors     atomic.Uint64
	deliveryDrops atomic.Uint64
	journalErrors atomic.Uint64
	callbackErrs  atomic.Uint64

	mu    sync.Mutex
	first string
}

func (f *faults) note(kind string, err error) {
	f.mu.Lock()
	if f.first == "" {
		f.first = kind + ": " + err.Error()
	}
	f.mu.Unlock()
}

func (f *faults) onBusError(err error) {
	if f.closing.Load() {
		return
	}
	f.busErrors.Add(1)
	f.note("bus", err)
}

func (f *faults) onDeliveryError(_ uint64, _ string, _ *event.Event, err error) {
	if f.closing.Load() {
		return
	}
	f.deliveryDrops.Add(1)
	f.note("delivery", err)
}

func (f *faults) onJournalError(_ string, err error) {
	f.journalErrors.Add(1)
	f.note("journal", err)
}

func (f *faults) onCallbackError(_ string, _ *event.Event, err error) {
	f.callbackErrs.Add(1)
	f.note("callback", err)
}

// check reports every hook that fired as a problem.
func (f *faults) check(rep *report) {
	for _, c := range []struct {
		n    uint64
		what string
	}{
		{f.busErrors.Load(), "bus errors"},
		{f.deliveryDrops.Load(), "dropped deliveries reported"},
		{f.journalErrors.Load(), "journal append errors reported"},
		{f.callbackErrs.Load(), "callback errors reported"},
	} {
		if c.n > 0 {
			rep.problem("%d %s (first: %s)", c.n, c.what, f.first)
		}
	}
}

func quiet(string, ...any) {}

// wire is what the three broker workloads share: a broker behind its
// network front on loopback, the driver's producer connection, and the
// program's error hooks.
type wire struct {
	f     faults
	br    *broker.Broker
	srv   *broker.Server
	prod  *broker.Client
	marks pubMarks
}

// listen starts the broker and its network front; mod adjusts the front's
// configuration.
func (w *wire) listen(policy *label.Policy, mod func(*broker.ServerConfig)) error {
	w.br = broker.New(policy)
	cfg := broker.ServerConfig{Logf: quiet, OnDeliveryError: w.f.onDeliveryError, OnJournalError: w.f.onJournalError}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := broker.NewServer("127.0.0.1:0", w.br, cfg)
	w.srv = srv
	return err
}

// connect dials the driver's producer connection; it is the last step of a
// set-up.
func (w *wire) connect() (err error) {
	w.prod, err = dial(w.srv.Addr(), driverName, &w.f, nil)
	return err
}

// publish sends one draft through the producer and recycles it, recording
// the generator-side spans when the op is traced.
func (w *wire) publish(env *runEnv, ev *event.Event, seq uint64, due int64) error {
	tr := env.tracer()
	if !tr.sampled(seq) {
		err := w.prod.Publish(ev)
		ev.ReleasePublished()
		return err
	}
	t0 := nowNs()
	w.marks.begin(tr, seq)
	err := w.prod.Publish(ev)
	t1 := nowNs()
	w.marks.end(tr, seq, t1)
	ev.ReleasePublished()
	if due != 0 {
		tr.add(seq, "gen.late", "", due, t0)
	}
	tr.add(seq, "client.publish", "", t0, t1)
	return err
}

func (w *wire) flush() {
	if err := w.prod.Flush(); err != nil {
		w.f.onBusError(err)
	}
}

// shutdown closes the producer, then whatever consumes (stop), then the
// front and the broker. It tolerates a set-up that failed half way.
func (w *wire) shutdown(stop func()) {
	w.f.closing.Store(true)
	if w.prod != nil {
		_ = w.prod.Close()
	}
	stop()
	if w.srv != nil {
		_ = w.srv.Close()
	}
	if w.br != nil {
		w.br.Close()
	}
}

// stopEngines stops the engines a set-up got as far as starting.
func stopEngines(engines ...*engine.Engine) {
	for _, e := range engines {
		if e != nil {
			e.Stop()
		}
	}
}

// publishWindow is the producer's receipt window: the bound on publishes in
// flight that makes the saturation phase a closed loop.
const publishWindow = 64

// dial connects one broker client the way every workload's producers do.
func dial(addr, login string, f *faults, mod func(*broker.ClientConfig)) (*broker.Client, error) {
	cfg := broker.ClientConfig{
		Login:         login,
		PublishWindow: publishWindow,
		SendTimeout:   drainDeadline,
		OnError:       f.onBusError,
	}
	if mod != nil {
		mod(&cfg)
	}
	return broker.DialBus(addr, cfg)
}

// newEngine starts an engine whose units reach the broker over the wire.
func newEngine(policy *label.Policy, addr string, f *faults) (*engine.Engine, error) {
	return engine.New(engine.Config{
		Policy: policy,
		Bus: func(principal string) (broker.Bus, error) {
			return dial(addr, principal, f, nil)
		},
		OnCallbackError: f.onCallbackError,
		Logf:            quiet,
	})
}

// scheduleLen is the period of a workload's seeded schedule: op seq takes
// its properties from entry seq mod scheduleLen. Long enough that no cache
// in the program can learn it, short enough to sit in L2.
const scheduleLen = 1 << 13

func newRand(seed int64, salt string) *rand.Rand {
	h := int64(0)
	for _, c := range salt {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1_000_003 + h))
}

// filler returns n seeded pseudo-random printable bytes: a body that does
// not compress to nothing and contains no frame terminator.
func filler(rnd *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rnd.Intn(26))
	}
	return b
}

func micros(ns float64) float64 { return ns / 1e3 }

func sinceNs(t0 int64) time.Duration { return time.Duration(nowNs() - t0) }

// pubMarks lets a callback learn when the publish call of a traced op
// returned: the generator marks the op's slot around Client.Publish and
// the callback reads it. A slot is reused len(slots) traced ops later, and
// the sequence tag keeps a callback from reading another op's times.
type pubMarks struct {
	slots [1024]struct {
		seq  atomic.Uint64
		done atomic.Int64
	}
}

func (m *pubMarks) begin(tr *tracer, seq uint64) {
	s := &m.slots[(seq/tr.every)%uint64(len(m.slots))]
	s.done.Store(0)
	s.seq.Store(seq)
}

func (m *pubMarks) end(tr *tracer, seq uint64, t int64) {
	m.slots[(seq/tr.every)%uint64(len(m.slots))].done.Store(t)
}

// returned is when op seq's publish call returned, clamped to now when the
// delivery overtook the return.
func (m *pubMarks) returned(tr *tracer, seq uint64, now int64) int64 {
	s := &m.slots[(seq/tr.every)%uint64(len(m.slots))]
	if s.seq.Load() != seq {
		return now
	}
	if t := s.done.Load(); t != 0 && t < now {
		return t
	}
	return now
}

// checkQuietServer asserts the network front dropped, stalled and rejected
// nothing: every workload is sized so that no operation fails.
func checkQuietServer(c *counterCheck, s broker.ServerStats) {
	c.equal("server.DroppedDeliveries", s.DroppedDeliveries, 0)
	c.equal("server.OverflowDrops", s.OverflowDrops, 0)
	c.equal("server.SlowConsumerEvictions", s.SlowConsumerEvictions, 0)
	c.equal("server.UnhandledFrames", s.UnhandledFrames, 0)
	c.equal("server.JournalAppendErrors", s.JournalAppendErrors, 0)
	c.equal("server.ClampedResumes", s.ClampedResumes, 0)
}

// brokerCounters copies the public broker and network-front counters into
// the per-layer metrics.
func brokerCounters(rep *report, b broker.Stats, s broker.ServerStats) {
	for name, v := range map[string]uint64{
		"broker.delivered":             b.Delivered,
		"broker.filtered_by_label":     b.FilteredByLabel,
		"broker.filtered_by_selector":  b.FilteredBySelector,
		"broker.rejected_publish":      b.RejectedPublish,
		"broker.queue_high_water":      uint64(s.QueueHighWater),
		"broker.overflow_drops":        s.OverflowDrops,
		"broker.dropped_deliveries":    s.DroppedDeliveries,
		"broker.credit_stalls":         s.CreditStalls,
		"broker.unhandled_frames":      s.UnhandledFrames,
		"broker.durable_appends":       s.DurableAppends,
		"broker.journal_append_errors": s.JournalAppendErrors,
		"broker.replay_deliveries":     s.ReplayDeliveries,
		"broker.replay_filtered":       s.ReplayFiltered,
		"broker.clamped_resumes":       s.ClampedResumes,
	} {
		rep.counters[name] = float64(v)
	}
}
