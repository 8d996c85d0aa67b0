package main

import (
	"fmt"
	"strconv"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/label"
)

// The pipeline workload: the paper's producer → relay → storage shape
// (E3/E6) over the network broker. The driver publishes 1 KiB events with
// four attributes and three labels to 16 topics; a relay unit subscribed to
// /pipe/in/* with a selector reads and writes its labelled store and
// republishes to /pipe/out, where a sink unit receives. An op is one driver
// publish resolved: it reached the sink, or the broker correctly filtered
// it.
//
// Why: fan-out is 1, so per-event costs dominate instead of per-delivery
// ones — SEND decode, the UnmarshalView miss path, selector evaluation,
// Freeze → Set.String, ctx.Publish label derivation, two wire hops. The
// labels rotate over 16 MDTs × 64 patients so consecutive events never
// share a label header: the one-entry memos that fanout always hits never
// hit here.
const (
	pipeMDTs     = 16
	pipePatients = 64
	pipeBody     = 1024
	pipeRate     = 4000 // paced driver publishes per second
	pipeSelector = "type = 'cancer' AND stage >= 2"
	pipeOutTopic = "/pipe/out"
	// pipeMaxLabels bounds the labels on an event reaching the sink. The
	// relay stores under its own MDT's key before it reads a neighbour's,
	// so a stored set is always one event's three labels and an output
	// carries at most six. A relay that read before it wrote would fold
	// every label it ever saw into every output and the workload would
	// measure label.Set.Sorted instead of the pipeline.
	pipeMaxLabels = 6
)

// pipeKind is what the schedule decides about an op besides its labels.
type pipeKind uint8

const (
	pipePass       pipeKind = iota // reaches the sink
	pipeScreening                  // type = 'screening': filtered by the relay's selector (1/4)
	pipeRestricted                 // carries a label the relay lacks: filtered by label (1/16)
)

type pipeOp struct {
	kind    pipeKind
	mdt     uint8
	patient uint8
	stage   uint8
}

type pipeline struct {
	env *runEnv
	wire

	relay, sink *engine.Engine
	relayRecv   *receiver
	sinkRecv    *receiver

	sched      [scheduleLen]pipeOp
	restricted [scheduleLen]bool
	topics     [pipeMDTs]string
	mdtNames   [pipeMDTs]string
	storeKeys  [pipeMDTs]string
	stages     [5]string
	sets       [pipeMDTs][pipePatients]label.Set // labels of an unrestricted op
	setsR      [pipeMDTs][pipePatients]label.Set // labels of a restricted op
	body       []byte
	relayMarks pubMarks

	// Sink-owned: how many labels output events carried.
	outLabels, outLabelsMax uint64

	// Generator-owned tallies by kind.
	n         [3]uint64
	pubErrors uint64

	stats struct {
		broker      broker.Stats
		server      broker.ServerStats
		relay, sink engine.Stats
	}
}

func newPipeline(env *runEnv) workload {
	w := &pipeline{env: env}
	rnd := newRand(env.cfg.seed, "pipeline")
	// MDTs are visited in a seeded round-robin order, so two consecutive
	// events never share an MDT (or a label set) whatever the seed.
	order := rnd.Perm(pipeMDTs)
	for i := range w.sched {
		op := pipeOp{mdt: uint8(order[i%pipeMDTs]), patient: uint8(rnd.Intn(pipePatients)), stage: uint8(2 + rnd.Intn(3))}
		switch r := rnd.Intn(16); {
		case r == 0:
			op.kind = pipeRestricted
		case r <= 4:
			op.kind = pipeScreening
		}
		w.sched[i] = op
		w.restricted[i] = op.kind == pipeRestricted
	}
	for m := 0; m < pipeMDTs; m++ {
		w.mdtNames[m] = strconv.Itoa(m)
		w.topics[m] = "/pipe/in/" + w.mdtNames[m]
		w.storeKeys[m] = "latest/" + w.mdtNames[m]
		for p := 0; p < pipePatients; p++ {
			mdt, patient := conf("mdt/"+w.mdtNames[m]), conf(fmt.Sprintf("patient/%d-%d", m, p))
			w.sets[m][p] = label.NewSet(mdt, patient, conf("region/"+strconv.Itoa(m%4)))
			w.setsR[m][p] = label.NewSet(mdt, patient, conf("restricted/"+w.mdtNames[m]))
		}
	}
	for i := range w.stages {
		w.stages[i] = strconv.Itoa(i)
	}
	w.body = filler(rnd, pipeBody)
	return w
}

func (w *pipeline) params() params {
	return params{clients: 1, rate: pipeRate, window: 500 * time.Millisecond, maxAhead: 2048, opsPerStep: 1}
}

func (w *pipeline) setup() error {
	policy := label.NewPolicy()
	policy.SetPrincipal("relay", clearance("mdt/*", "patient/*", "region/*"), false)
	policy.SetPrincipal("sink", clearance("*"), false)
	if err := w.listen(policy, nil); err != nil {
		return err
	}
	w.relayRecv = newReceiver("relay", policy.PrivilegesOf("relay"), w.env.ph.windows)
	w.relayRecv.denied = &w.restricted
	w.sinkRecv = newReceiver("sink", policy.PrivilegesOf("sink"), w.env.ph.windows)
	var err error
	if w.relay, err = newEngine(policy, w.srv.Addr(), &w.f); err != nil {
		return err
	}
	if w.sink, err = newEngine(policy, w.srv.Addr(), &w.f); err != nil {
		return err
	}
	// The sink subscribes first, so the relay's first output finds it.
	err = w.sink.AddUnit(unit{name: "sink", init: func(ctx *engine.InitContext) error {
		return ctx.Subscribe(pipeOutTopic, "", w.onOutput)
	}})
	if err != nil {
		return err
	}
	err = w.relay.AddUnit(unit{name: "relay", init: func(ctx *engine.InitContext) error {
		return ctx.Subscribe("/pipe/in/*", pipeSelector, w.onInput)
	}})
	if err != nil {
		return err
	}
	return w.connect()
}

// onInput is the relay unit: ordinary application code of the kind the
// paper's aggregator is. It notes the event under its MDT's store key,
// reads the neighbouring MDT's latest note (which merges that note's labels
// into the tracked set) and republishes the payload.
func (w *pipeline) onInput(ctx *engine.Context, ev *event.Event) error {
	t0 := nowNs()
	seq, _ := w.relayRecv.observe(w.env, ev.Body, ev.Labels, t0)
	mdt, err := strconv.Atoi(ev.Attr("mdt"))
	if err != nil || mdt < 0 || mdt >= pipeMDTs {
		return fmt.Errorf("relay: bad mdt attribute %q", ev.Attr("mdt"))
	}
	if err := ctx.Set(w.storeKeys[mdt], ev.Attr("seq")); err != nil {
		return err
	}
	ctx.Get(w.storeKeys[(mdt+1)%pipeMDTs])
	t1 := nowNs()
	tr := w.env.tracer()
	if tr.sampled(seq) {
		w.relayMarks.begin(tr, seq)
	}
	err = ctx.Publish(pipeOutTopic, map[string]string{"mdt": w.mdtNames[mdt], "stage": ev.Attr("stage")}, ev.Body)
	if tr.sampled(seq) {
		t2 := nowNs()
		w.relayMarks.end(tr, seq, t2)
		tr.add(seq, "wire.in", "client.publish", w.marks.returned(tr, seq, t0), t0)
		tr.add(seq, "relay.callback", "wire.in", t0, t2)
		tr.add(seq, "ctx.store", "relay.callback", t0, t1)
		tr.add(seq, "ctx.publish", "relay.callback", t1, t2)
	}
	return err
}

// onOutput is the sink unit: it times the op and checks what arrived.
func (w *pipeline) onOutput(_ *engine.Context, ev *event.Event) error {
	now := nowNs()
	seq, _ := w.sinkRecv.observe(w.env, ev.Body, ev.Labels, now)
	n := uint64(len(ev.Labels))
	w.outLabels += n
	w.outLabelsMax = max(w.outLabelsMax, n)
	if tr := w.env.tracer(); tr.sampled(seq) {
		tr.add(seq, "wire.out", "ctx.publish", w.relayMarks.returned(tr, seq, now), now)
		tr.add(seq, "sink.callback", "wire.out", now, nowNs())
	}
	return nil
}

// pipeAttrs are the names of an input event's four attributes, in the
// order attrValues returns their values.
var pipeAttrs = [4]string{"type", "stage", "seq", "mdt"}

func (w *pipeline) attrValues(seq uint64) [4]string {
	op := w.sched[seq%scheduleLen]
	typ := "cancer"
	if op.kind == pipeScreening {
		typ = "screening"
	}
	return [4]string{typ, w.stages[op.stage], strconv.FormatUint(seq, 10), w.mdtNames[op.mdt]}
}

// attrs returns op seq's attributes as a map, for the probes.
func (w *pipeline) attrs(seq uint64) map[string]string {
	m := make(map[string]string, len(pipeAttrs))
	for i, v := range w.attrValues(seq) {
		m[pipeAttrs[i]] = v
	}
	return m
}

func (w *pipeline) issue(_ int, seq uint64, due int64) {
	op := w.sched[seq%scheduleLen]
	ev := event.NewDraft(w.topics[op.mdt])
	putStamp(w.body, seq, due)
	ev.Body = w.body
	ev.Labels = w.sets[op.mdt][op.patient]
	if op.kind == pipeRestricted {
		ev.Labels = w.setsR[op.mdt][op.patient]
	}
	for i, v := range w.attrValues(seq) {
		_ = ev.Set(pipeAttrs[i], v) // cannot fail on an unpublished draft with these names
	}
	if err := w.publish(w.env, ev, seq, due); err != nil {
		w.pubErrors++
		return
	}
	w.n[op.kind]++
}

// done counts resolved publishes: delivered to the sink, or filtered by the
// broker, which it counts the moment it decides.
func (w *pipeline) done() uint64 {
	s := w.br.Stats()
	return w.sinkRecv.count.Load() + s.FilteredByLabel + s.FilteredBySelector
}

func (w *pipeline) expected() uint64 { return w.n[pipePass] + w.n[pipeScreening] + w.n[pipeRestricted] }

func (w *pipeline) tail(*report) {
	// An engine counts a callback after it returns, the receiver inside it:
	// let the last one catch up before the counters are read.
	waitFor(func() bool {
		return w.relay.Stats().EventsProcessed+w.sink.Stats().EventsProcessed >= 2*w.n[pipePass]
	})
	w.stats.broker = w.br.Stats()
	w.stats.server = w.srv.Stats()
	w.stats.relay = w.relay.Stats()
	w.stats.sink = w.sink.Stats()
}

func (w *pipeline) teardown() { w.shutdown(func() { stopEngines(w.relay, w.sink) }) }

func (w *pipeline) verify(rep *report) {
	pass := w.n[pipePass]
	rep.attempted = w.expected() + w.pubErrors
	rep.failed = w.pubErrors
	for _, rc := range []*receiver{w.relayRecv, w.sinkRecv} {
		failed, problems := rc.settle(pass)
		rep.failed += failed
		rep.problems = append(rep.problems, problems...)
		rep.violations = append(rep.violations, rc.violations...)
	}
	// Only the sink's times are the op's latency; the relay's are a stage.
	rep.lat = mergeWindows([]*windowed{w.sinkRecv.lat})

	var c counterCheck
	b := w.stats.broker
	c.equal("broker.Published", b.Published, w.expected()+pass)
	c.equal("broker.Delivered", b.Delivered, 2*pass)
	c.equal("broker.FilteredByLabel", b.FilteredByLabel, w.n[pipeRestricted])
	c.equal("broker.FilteredBySelector", b.FilteredBySelector, w.n[pipeScreening])
	c.equal("broker.RejectedPublish", b.RejectedPublish, 0)
	c.equal("relay EventsProcessed", w.stats.relay.EventsProcessed, pass)
	c.equal("sink EventsProcessed", w.stats.sink.EventsProcessed, pass)
	c.equal("engine CallbackErrors", w.stats.relay.CallbackErrors+w.stats.sink.CallbackErrors, 0)
	c.equal("engine FlowViolations", w.stats.relay.FlowViolations+w.stats.sink.FlowViolations, 0)
	c.atMost("labels on an output event", w.outLabelsMax, pipeMaxLabels)
	checkQuietServer(&c, w.stats.server)
	rep.problems = append(rep.problems, c.mismatches...)
	if w.pubErrors > 0 {
		rep.problem("%d publishes failed", w.pubErrors)
	}
	w.f.check(rep)

	brokerCounters(rep, b, w.stats.server)
	rep.counters["engine.events_processed"] = float64(w.stats.relay.EventsProcessed + w.stats.sink.EventsProcessed)
	rep.counters["engine.callback_errors"] = float64(w.stats.relay.CallbackErrors + w.stats.sink.CallbackErrors)
	rep.counters["label.labels_per_out_event"] = float64(w.outLabels) / float64(max(pass, 1))
}
