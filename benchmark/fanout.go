package main

import (
	"fmt"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/label"
)

// The fanout workload: live networked fan-out. One producer client
// publishes attribute-free 128-byte events to /bench/out through a
// broker.Server on loopback; two consumer engines hold 64 subscriptions
// between them. An op is one delivery reaching an engine callback.
//
// Why: per-delivery cost × 64 dominates — the shared wire image,
// Server.deliver, the coalescing writer, DecodeView and engine dispatch do
// nearly all the work; journal, selector, attribute copy and the web tier
// do none. Only two label sets ever occur, in long runs, so the one-entry
// label memo of the decode path always hits: the counterpart of pipeline,
// where it never does.
const (
	fanoutTopic     = "/bench/out"
	fanoutWardSubs  = 48 // exact-topic subscriptions, cleared for everything
	fanoutGuestSubs = 16 // prefix-route subscriptions, not cleared for class B
	fanoutBody      = 128
	fanoutRate      = 1500 // paced publishes per second (≈ 90 k deliveries/s)
)

type fanout struct {
	env *runEnv
	wire

	ward, guest *engine.Engine
	recv        []*receiver // ward's, then guest's

	// guestCleared is what the policy clears guest for. Tests widen it to
	// inject a clearance fault the checker must catch.
	guestCleared []string
	// classB marks the schedule entries published with label set B (a
	// quarter of them), which guest is not cleared for.
	classB [scheduleLen]bool
	sets   [2]label.Set
	body   []byte

	// Generator-owned tallies.
	nA, nB    uint64
	pubErrors uint64

	stats struct {
		broker      broker.Stats
		server      broker.ServerStats
		ward, guest engine.Stats
	}
}

func newFanout(env *runEnv) workload {
	w := &fanout{env: env, guestCleared: []string{"mdt/7", "patient/*"}}
	rnd := newRand(env.cfg.seed, "fanout")
	for i := range w.classB {
		w.classB[i] = rnd.Intn(4) == 0
	}
	patient := conf(fmt.Sprintf("patient/%d", 30000000+rnd.Intn(9999999)))
	w.sets[0] = label.NewSet(conf("mdt/7"), patient)
	w.sets[1] = label.NewSet(conf("mdt/9"), patient)
	w.body = filler(rnd, fanoutBody)
	return w
}

func (w *fanout) params() params {
	return params{
		clients:    1,
		rate:       fanoutRate,
		window:     500 * time.Millisecond,
		maxAhead:   256 * (fanoutWardSubs + fanoutGuestSubs),
		opsPerStep: fanoutWardSubs + 0.75*fanoutGuestSubs,
	}
}

func (w *fanout) setup() error {
	policy := label.NewPolicy()
	policy.SetPrincipal("ward", clearance("*"), false)
	policy.SetPrincipal("guest", clearance(w.guestCleared...), false)
	if err := w.listen(policy, nil); err != nil {
		return err
	}
	subscribe := func(name, topic string, n int, denied *[scheduleLen]bool) (*engine.Engine, error) {
		eng, err := newEngine(policy, w.srv.Addr(), &w.f)
		if err != nil {
			return nil, err
		}
		privs := policy.PrivilegesOf(name)
		return eng, eng.AddUnit(unit{name: name, init: func(ctx *engine.InitContext) error {
			for i := 0; i < n; i++ {
				r := newReceiver(fmt.Sprintf("%s#%d", name, i), privs, w.env.ph.windows)
				r.denied = denied
				w.recv = append(w.recv, r)
				if err := ctx.Subscribe(topic, "", w.callback(r)); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	var err error
	if w.ward, err = subscribe("ward", fanoutTopic, fanoutWardSubs, nil); err != nil {
		return err
	}
	if w.guest, err = subscribe("guest", "/bench/*", fanoutGuestSubs, &w.classB); err != nil {
		return err
	}
	return w.connect()
}

// callback times and checks one delivery. It copies the stamp out of the
// body and keeps nothing of the event.
func (w *fanout) callback(r *receiver) engine.Callback {
	return func(_ *engine.Context, ev *event.Event) error {
		now := nowNs()
		seq, _ := r.observe(w.env, ev.Body, ev.Labels, now)
		if tr := w.env.tracer(); tr.sampled(seq) {
			tr.add(seq, "wire", "client.publish", w.marks.returned(tr, seq, now), now)
			tr.add(seq, "callback", "wire", now, nowNs())
		}
		return nil
	}
}

func (w *fanout) issue(_ int, seq uint64, due int64) {
	class := 0
	if w.classB[seq%scheduleLen] {
		class = 1
	}
	// A draft is the producer-side pooled event: the publish copies the
	// body into the SEND image, so one body buffer serves every op.
	ev := event.NewDraft(fanoutTopic)
	putStamp(w.body, seq, due)
	ev.Body = w.body
	ev.Labels = w.sets[class]
	switch err := w.publish(w.env, ev, seq, due); {
	case err != nil:
		w.pubErrors++
	case class == 1:
		w.nB++
	default:
		w.nA++
	}
}

func (w *fanout) done() uint64 {
	var n uint64
	for _, r := range w.recv {
		n += r.count.Load()
	}
	return n
}

func (w *fanout) expected() uint64 {
	return (w.nA+w.nB)*fanoutWardSubs + w.nA*fanoutGuestSubs
}

func (w *fanout) tail(*report) {
	// An engine counts a callback after it returns, the receiver inside it:
	// let the last few catch up before the counters are read.
	waitFor(func() bool {
		return w.ward.Stats().EventsProcessed+w.guest.Stats().EventsProcessed >= w.expected()
	})
	w.stats.broker = w.br.Stats()
	w.stats.server = w.srv.Stats()
	w.stats.ward = w.ward.Stats()
	w.stats.guest = w.guest.Stats()
}

func (w *fanout) teardown() { w.shutdown(func() { stopEngines(w.ward, w.guest) }) }

func (w *fanout) verify(rep *report) {
	n := w.nA + w.nB
	rep.attempted = w.expected() + w.pubErrors*fanoutWardSubs
	rep.failed = w.pubErrors * fanoutWardSubs
	var lat []*windowed
	for i, r := range w.recv {
		want := n
		if i >= fanoutWardSubs {
			want = w.nA
		}
		failed, problems := r.settle(want)
		rep.failed += failed
		rep.problems = append(rep.problems, problems...)
		rep.violations = append(rep.violations, r.violations...)
		lat = append(lat, r.lat)
	}
	rep.lat = mergeWindows(lat)

	var c counterCheck
	b, s := w.stats.broker, w.stats.server
	c.equal("broker.Published", b.Published, n)
	c.equal("broker.Delivered", b.Delivered, w.expected())
	c.equal("broker.FilteredByLabel", b.FilteredByLabel, w.nB*fanoutGuestSubs)
	c.equal("broker.FilteredBySelector", b.FilteredBySelector, 0)
	c.equal("broker.RejectedPublish", b.RejectedPublish, 0)
	c.equal("ward EventsProcessed", w.stats.ward.EventsProcessed, n*fanoutWardSubs)
	c.equal("guest EventsProcessed", w.stats.guest.EventsProcessed, w.nA*fanoutGuestSubs)
	c.equal("engine CallbackErrors", w.stats.ward.CallbackErrors+w.stats.guest.CallbackErrors, 0)
	checkQuietServer(&c, s)
	rep.problems = append(rep.problems, c.mismatches...)
	if w.pubErrors > 0 {
		rep.problem("%d publishes failed", w.pubErrors)
	}
	w.f.check(rep)

	brokerCounters(rep, b, s)
	rep.counters["engine.events_processed"] = float64(w.stats.ward.EventsProcessed + w.stats.guest.EventsProcessed)
	rep.counters["engine.callback_errors"] = float64(w.stats.ward.CallbackErrors + w.stats.guest.CallbackErrors)
}
