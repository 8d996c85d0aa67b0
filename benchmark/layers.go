package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"safeweb/internal/broker"
	"safeweb/internal/docstore"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/journal"
	"safeweb/internal/label"
	"safeweb/internal/mdt"
	"safeweb/internal/selector"
	"safeweb/internal/stomp"
	"safeweb/internal/taint"
	"safeweb/internal/template"
)

// The per-layer metrics of the traced run, named <package>.<metric>. They
// come from three places, all outside the program:
//
//	(P) probes: one goroutine timing a loop around one public function, on
//	    inputs generated from the seed the way the workloads generate
//	    theirs, a fixed number of iterations, the median of five batches;
//	(S) spans: boundaries the benchmark can see, taken from small scenario
//	    runs of the pipeline, portal and durable workloads at a quarter of
//	    their paced rate with every op traced;
//	(C) counters: the program's public Stats(), exact, from the traced run
//	    of the workload itself — as are the proc.* metrics.
//
// Every traced run reports every name. (P) and (S) do not depend on the
// workload being traced: they are the same suite each time, so that each
// layer has a number in every run. A (C) metric of a layer the workload
// does not exercise is 0.
var perLayer = []metricDef{
	// label
	{name: "label.set_string_ns", unit: "ns"},
	{name: "label.set_parse_ns", unit: "ns"},
	{name: "label.clearance_ns", unit: "ns"},
	{name: "label.derive_ns", unit: "ns"},
	{name: "label.policy_lookup_ns", unit: "ns"},
	{name: "label.labels_per_out_event", unit: "count"},
	// selector
	{name: "selector.parse_ns", unit: "ns"},
	{name: "selector.match_ns", unit: "ns"},
	// event
	{name: "event.freeze_ns", unit: "ns"},
	{name: "event.wire_image_ns", unit: "ns"},
	{name: "event.send_image_ns", unit: "ns"},
	{name: "event.unmarshal_view_hit_ns", unit: "ns"},
	{name: "event.unmarshal_view_miss_ns", unit: "ns"},
	// stomp
	{name: "stomp.encode_image_ns", unit: "ns"},
	{name: "stomp.encode_send_ns", unit: "ns"},
	{name: "stomp.decode_view_ns", unit: "ns"},
	{name: "stomp.roundtrip_us", unit: "us"},
	{name: "stomp.wire_bytes_per_op", unit: "B"},
	// broker
	{name: "broker.publish_ns", unit: "ns"},
	{name: "broker.subscribe_64_us", unit: "us"},
	{name: "broker.subscribe_1024_us", unit: "us"},
	{name: "broker.client_publish_us", unit: "us"},
	{name: "broker.wire_us", unit: "us"},
	{name: "broker.replay_per_s", unit: "1/s", higher: true},
	{name: "broker.delivered", unit: "count", higher: true},
	{name: "broker.filtered_by_label", unit: "count", higher: true},
	{name: "broker.filtered_by_selector", unit: "count", higher: true},
	{name: "broker.rejected_publish", unit: "count"},
	{name: "broker.queue_high_water", unit: "count"},
	{name: "broker.overflow_drops", unit: "count"},
	{name: "broker.dropped_deliveries", unit: "count"},
	{name: "broker.credit_stalls", unit: "count"},
	{name: "broker.unhandled_frames", unit: "count"},
	{name: "broker.durable_appends", unit: "count", higher: true},
	{name: "broker.journal_append_errors", unit: "count"},
	{name: "broker.replay_deliveries", unit: "count", higher: true},
	{name: "broker.replay_filtered", unit: "count", higher: true},
	{name: "broker.clamped_resumes", unit: "count"},
	// engine
	{name: "engine.dispatch_ns", unit: "ns"},
	{name: "engine.callback_us", unit: "us"},
	{name: "engine.ctx_store_us", unit: "us"},
	{name: "engine.ctx_publish_us", unit: "us"},
	{name: "engine.events_processed", unit: "count", higher: true},
	{name: "engine.callback_errors", unit: "count"},
	// journal
	{name: "journal.append_never_ns", unit: "ns"},
	{name: "journal.append_batch_ns", unit: "ns"},
	{name: "journal.append_always_us", unit: "us"},
	{name: "journal.read_ns", unit: "ns"},
	{name: "journal.ack_ns", unit: "ns"},
	{name: "journal.open_ms", unit: "ms"},
	{name: "journal.compact_ms", unit: "ms"},
	{name: "journal.disk_bytes_per_event", unit: "B"},
	{name: "journal.segments", unit: "count"},
	// web tier
	{name: "webfront.auth_us", unit: "us"},
	{name: "webfront.priv_fetch_us", unit: "us"},
	{name: "webfront.handler_us", unit: "us"},
	{name: "webfront.label_check_us", unit: "us"},
	{name: "webfront.other_us", unit: "us"},
	{name: "webfront.denied", unit: "count", higher: true},
	{name: "webfront.violations", unit: "count"},
	{name: "webdb.authenticate_us", unit: "us"},
	{name: "webdb.privileges_of_us", unit: "us"},
	{name: "docstore.query_us", unit: "us"},
	{name: "docstore.get_us", unit: "us"},
	{name: "docstore.put_us", unit: "us"},
	{name: "taint.wrap_docs_us", unit: "us"},
	{name: "taint.to_json_us", unit: "us"},
	{name: "taint.concat_ns", unit: "ns"},
	{name: "template.render_us", unit: "us"},
	// process
	{name: "proc.peak_rss_mb", unit: "MiB"},
	{name: "proc.alloc_bytes_per_op", unit: "B"},
	{name: "proc.gc_cpu_share", unit: "ratio"},
	{name: "proc.goroutines", unit: "count"},
	{name: "proc.gen_late_p99_us", unit: "us"},
	{name: "proc.backlog_end", unit: "count"},
	{name: "proc.latency_p99_us", unit: "us"},
	{name: "proc.latency_p99_whole_us", unit: "us"},
	{name: "proc.latency_p999_us", unit: "us"},
	{name: "proc.failed_share", unit: "ratio"},
	{name: "proc.trace_overhead_share", unit: "ratio"},
}

func perLayerUnit(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return "count"
}

// perLayerMetrics assembles every per-layer metric, in the table's order,
// from the groups given: the suite's, the workload's counters, the process
// readings. A name nobody measured is reported as 0 with no samples.
func perLayerMetrics(groups ...[]metric) []metric {
	have := make(map[string]metric)
	for _, group := range groups {
		for _, m := range group {
			have[m.Name] = m
		}
	}
	out := make([]metric, 0, len(perLayer))
	for _, d := range perLayer {
		m, ok := have[d.name]
		if !ok {
			m = metric{Name: d.name}
		}
		m.Unit = d.unit
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		out = append(out, m)
	}
	return out
}

// probeBatches is how many timed batches a probe runs; it reports their
// median.
const probeBatches = 5

// suite runs the probes. It owns the inputs they share.
type suite struct {
	cfg runConfig
	out []metric
	err error

	// Inputs from the workloads' own generators: pipeline's rotating label
	// sets (consecutive entries never share one) and fanout's repeated one.
	rotating []label.Set
	headers  []string // rotating[i].String()
	repeated label.Set
	relay    *label.Privileges
}

// perOp times fn over probeBatches batches of iters calls and returns the
// median nanoseconds per call. fn receives a running index that never
// repeats, so a probe can prepare one input per call.
func (s *suite) perOp(iters int, fn func(i int)) float64 {
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		t0 := nowNs()
		for i := 0; i < iters; i++ {
			fn(b*iters + i)
		}
		per = append(per, float64(nowNs()-t0)/float64(iters))
	}
	return median(per)
}

func (s *suite) add(name string, value float64, samples int) {
	s.out = append(s.out, metric{Name: name, Unit: perLayerUnit(name), Value: value, Samples: int64(samples)})
}

// ns and us record a probe's result in the metric's unit.
func (s *suite) ns(name string, iters int, fn func(i int)) {
	s.add(name, s.perOp(iters, fn), probeBatches)
}

func (s *suite) us(name string, iters int, fn func(i int)) {
	s.add(name, micros(s.perOp(iters, fn)), probeBatches)
}

func (s *suite) fail(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink struct {
	s   string
	b   bool
	n   int
	set label.Set
	p   *label.Privileges
	any any
}

// runLayerSuite runs every probe and scenario and returns their metrics.
// Probe failures do not fail the workload run; they are reported as a
// problem and leave their metrics at 0.
func runLayerSuite(cfg runConfig, rep *report) []metric {
	s := &suite{cfg: cfg}
	env := &runEnv{cfg: cfg}
	pipe := newPipeline(env).(*pipeline)
	for i := 0; i < 512; i++ {
		op := pipe.sched[i]
		s.rotating = append(s.rotating, pipe.sets[op.mdt][op.patient])
		s.headers = append(s.headers, pipe.sets[op.mdt][op.patient].String())
	}
	s.repeated = newFanout(env).(*fanout).sets[0]
	s.relay = clearance("mdt/*", "patient/*", "region/*")

	s.labelProbes()
	s.selectorProbes(pipe)
	s.eventProbes(pipe)
	s.stompProbes(pipe)
	s.brokerProbes()
	s.engineProbe()
	s.journalProbes()
	s.webProbes()
	s.scenarios()
	if s.err != nil {
		rep.problem("layer suite: %v", s.err)
	}
	s.add("stomp.wire_bytes_per_op", wireBytesPerOp(cfg, env), 1)
	return s.out
}

func (s *suite) labelProbes() {
	n := len(s.rotating)
	s.ns("label.set_string_ns", 20000, func(i int) { sink.s = s.rotating[i%n].String() })
	s.ns("label.set_parse_ns", 20000, func(i int) { sink.set, _ = label.ParseSet(s.headers[i%n]) })
	s.ns("label.clearance_ns", 50000, func(i int) { sink.b = s.relay.HasAll(label.Clearance, s.rotating[i%n]) })
	s.ns("label.derive_ns", 20000, func(i int) { sink.set = label.Derive(s.rotating[i%n], s.rotating[(i+1)%n]) })
	policy := label.NewPolicy()
	policy.SetPrincipal("relay", s.relay, false)
	policy.SetPrincipal("sink", clearance("*"), false)
	s.ns("label.policy_lookup_ns", 50000, func(int) { sink.p = policy.PrivilegesOf("relay") })
}

func (s *suite) selectorProbes(pipe *pipeline) {
	s.ns("selector.parse_ns", 5000, func(int) {
		sel, err := selector.Parse(pipeSelector)
		s.fail(err)
		sink.any = sel
	})
	sel, err := selector.Parse(pipeSelector)
	if err != nil {
		s.fail(err)
		return
	}
	attrs := make([]map[string]string, 256)
	for i := range attrs {
		attrs[i] = pipe.attrs(uint64(i))
	}
	s.ns("selector.match_ns", 50000, func(i int) { sink.b = sel.MatchesAttrs(attrs[i%len(attrs)]) })
}

// pipelineEvents returns n fresh, unfrozen events of the pipeline's shape
// with rotating labels.
func (s *suite) pipelineEvents(pipe *pipeline, n int) []*event.Event {
	evs := make([]*event.Event, n)
	for i := range evs {
		op := pipe.sched[i%scheduleLen]
		ev := event.New(pipe.topics[op.mdt], pipe.attrs(uint64(i)))
		ev.Body = pipe.body
		ev.Labels = s.rotating[i%len(s.rotating)]
		evs[i] = ev
	}
	return evs
}

func (s *suite) eventProbes(pipe *pipeline) {
	const iters = 4000
	evs := s.pipelineEvents(pipe, iters*probeBatches)
	s.ns("event.freeze_ns", iters, func(i int) { evs[i].Freeze() })
	// Cold builds: every event is frozen and builds its image once.
	s.ns("event.wire_image_ns", iters, func(i int) {
		_, err := evs[i].WireImage()
		s.fail(err)
	})
	s.ns("event.send_image_ns", iters, func(i int) {
		_, err := evs[i].SendImage()
		s.fail(err)
	})

	// UnmarshalView on the consumer's path: the hit series repeats one
	// label header (fanout's), the miss series never repeats one
	// (pipeline's). Each timed call includes one clock read.
	hit := make([]*event.Event, 64)
	for i := range hit {
		hit[i] = event.New(fanoutTopic, nil)
		hit[i].Body = pipe.body[:fanoutBody]
		hit[i].Labels = s.repeated
		hit[i].Freeze()
	}
	s.unmarshalProbe("event.unmarshal_view_hit_ns", hit)
	s.unmarshalProbe("event.unmarshal_view_miss_ns", evs[:512])
}

// messageStream encodes the events' MESSAGE frames back to back, rounds
// times over, as a consumer connection would read them.
func messageStream(evs []*event.Event, rounds int) ([]byte, error) {
	var enc stomp.Encoder
	var buf bytes.Buffer
	seq := uint64(0)
	for r := 0; r < rounds; r++ {
		for _, ev := range evs {
			img, err := ev.WireImage()
			if err != nil {
				return nil, err
			}
			seq++
			if err := enc.EncodeImage(&buf, img, "sub-1", "m-1-", seq); err != nil {
				return nil, err
			}
		}
	}
	return buf.Bytes(), nil
}

func (s *suite) unmarshalProbe(name string, evs []*event.Event) {
	const iters = 8192
	stream, err := messageStream(evs, iters/len(evs))
	if err != nil {
		s.fail(err)
		return
	}
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		dec := stomp.NewDecoder(bytes.NewReader(stream))
		var cache event.DecodeCache
		var spent int64
		for i := 0; i < iters; i++ {
			v, err := dec.DecodeView()
			if err != nil {
				s.fail(fmt.Errorf("%s: %w", name, err))
				return
			}
			t0 := nowNs()
			ev, err := event.UnmarshalViewDelivery(&v.Headers, v.Body, &cache)
			spent += nowNs() - t0
			if err != nil {
				s.fail(fmt.Errorf("%s: %w", name, err))
				return
			}
			ev.Release()
		}
		per = append(per, float64(spent)/iters)
	}
	s.add(name, median(per), probeBatches)
}

func (s *suite) stompProbes(pipe *pipeline) {
	// The fanout delivery: one shared MESSAGE image, routing headers
	// spliced per delivery.
	msg := event.New(fanoutTopic, nil)
	msg.Body = pipe.body[:fanoutBody]
	msg.Labels = s.repeated
	msg.Freeze()
	img, err := msg.WireImage()
	if err != nil {
		s.fail(err)
		return
	}
	var enc stomp.Encoder
	s.ns("stomp.encode_image_ns", 50000, func(i int) {
		s.fail(enc.EncodeImage(io.Discard, img, "sub-17", "m-3-", uint64(i)))
	})
	// The pipeline publish: a SEND image with a receipt spliced in.
	send := s.pipelineEvents(pipe, 1)[0]
	send.Freeze()
	simg, err := send.SendImage()
	if err != nil {
		s.fail(err)
		return
	}
	s.ns("stomp.encode_send_ns", 50000, func(int) {
		s.fail(enc.EncodeSendImage(io.Discard, simg, "rcpt-123456"))
	})

	const iters = 8192
	stream, err := messageStream([]*event.Event{msg}, iters)
	if err != nil {
		s.fail(err)
		return
	}
	var dec *stomp.Decoder
	s.ns("stomp.decode_view_ns", iters, func(i int) {
		if i%iters == 0 {
			dec = stomp.NewDecoder(bytes.NewReader(stream))
		}
		v, err := dec.DecodeView()
		s.fail(err)
		sink.n = len(v.Body)
	})

	// The transport floor: a receipt round trip to a server that does
	// nothing with the frame.
	srv, err := stomp.NewServer("127.0.0.1:0", stomp.ServerConfig{Handler: idleHandler{}, Logf: quiet})
	if err != nil {
		s.fail(err)
		return
	}
	defer srv.Close()
	c, err := stomp.Dial(srv.Addr(), stomp.ClientConfig{Login: driverName})
	if err != nil {
		s.fail(err)
		return
	}
	defer c.Close()
	s.us("stomp.roundtrip_us", 500, func(int) { s.fail(c.SendImageReceipt(simg, drainDeadline)) })
}

// idleHandler accepts every session and ignores every frame.
type idleHandler struct{}

func (idleHandler) OnConnect(*stomp.Session, string) error             { return nil }
func (idleHandler) OnFrame(*stomp.Session, *stomp.Frame) error         { return nil }
func (idleHandler) OnDisconnect(*stomp.Session)                        {}
func (idleHandler) OnFrameView(*stomp.Session, *stomp.FrameView) error { return nil }

func (s *suite) brokerProbes() {
	// In-process publish at fanout's fan-out, with wire handlers that do
	// nothing: routing, clearance and the handler calls, no wire.
	policy := label.NewPolicy()
	policy.SetPrincipal("ward", clearance("*"), false)
	br := broker.New(policy)
	defer br.Close()
	for i := 0; i < fanoutWardSubs+fanoutGuestSubs; i++ {
		if _, err := br.SubscribeWire("ward", fanoutTopic, "", func(*event.Event) {}); err != nil {
			s.fail(err)
			return
		}
	}
	ev := event.New(fanoutTopic, nil)
	ev.Labels = s.repeated
	s.ns("broker.publish_ns", 20000, func(int) { s.fail(br.Publish(driverName, ev)) })

	// Subscription churn against a standing set: every change rebuilds the
	// route table, which is linear in the standing set.
	for _, standing := range []int{64, 1024} {
		b := broker.New(policy)
		for i := 0; i < standing; i++ {
			if _, err := b.Subscribe("ward", fmt.Sprintf("/standing/%d", i%32), "", func(*event.Event) {}); err != nil {
				s.fail(err)
			}
		}
		s.us(fmt.Sprintf("broker.subscribe_%d_us", standing), 100, func(int) {
			sub, err := b.Subscribe("ward", "/churn", "", func(*event.Event) {})
			s.fail(err)
			b.Unsubscribe(sub)
		})
		b.Close()
	}
}

// engineProbe times publish → callback through an engine on the in-process
// bus: one subscription, a callback that does nothing.
func (s *suite) engineProbe() {
	policy := label.NewPolicy()
	policy.SetPrincipal("ward", clearance("*"), false)
	br := broker.New(policy)
	defer br.Close()
	eng, err := engine.New(engine.Config{
		Policy: policy,
		Bus:    func(p string) (broker.Bus, error) { return br.Endpoint(p), nil },
		Logf:   quiet,
	})
	if err != nil {
		s.fail(err)
		return
	}
	defer eng.Stop()
	err = eng.AddUnit(unit{name: "ward", init: func(ctx *engine.InitContext) error {
		return ctx.Subscribe(fanoutTopic, "", func(*engine.Context, *event.Event) error { return nil })
	}})
	if err != nil {
		s.fail(err)
		return
	}
	ev := event.New(fanoutTopic, nil)
	ev.Labels = s.repeated
	const iters = 20000
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		want := eng.Stats().EventsProcessed + iters
		t0 := nowNs()
		for i := 0; i < iters; i++ {
			s.fail(br.Publish(driverName, ev))
		}
		if !waitFor(func() bool { return eng.Stats().EventsProcessed >= want }) {
			s.fail(fmt.Errorf("engine.dispatch_ns: callbacks did not complete"))
			return
		}
		per = append(per, float64(nowNs()-t0)/iters)
	}
	s.add("engine.dispatch_ns", median(per), probeBatches)
}

// journalProbes times the journal's public operations on records of the
// durable workload's shape, in a directory of their own.
func (s *suite) journalProbes() {
	dir := filepath.Join(s.cfg.workDir, fmt.Sprintf("probe-journal-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	ev := event.New(durTopic, map[string]string{"kind": "report"})
	ev.Body = filler(newRand(s.cfg.seed, "journal"), durBody)
	ev.Labels = s.repeated
	ev.Freeze()
	img, err := ev.WireImage()
	if err != nil {
		s.fail(err)
		return
	}
	rec := journal.Record{Topic: durTopic, Labels: ev.LabelHeader(), Split: img.Split(), Image: img.Bytes()}
	appendTo := func(name string, policy journal.SyncPolicy, iters int) *journal.Journal {
		j, err := journal.Open(filepath.Join(dir, name), journal.Options{SegmentSize: durSegmentSize, Sync: policy})
		if err != nil {
			s.fail(err)
			return nil
		}
		per := s.perOp(iters, func(i int) {
			rec.Time = int64(i)
			_, err := j.Append(&rec)
			s.fail(err)
		})
		s.fail(j.Sync())
		if policy == journal.SyncAlways {
			s.add("journal.append_"+name+"_us", micros(per), probeBatches)
		} else {
			s.add("journal.append_"+name+"_ns", per, probeBatches)
		}
		return j
	}
	const fill = 20000 // × probeBatches records ≈ 40 MB: five 8 MiB segments
	if j := appendTo("batch", journal.SyncBatch, fill/2); j != nil {
		s.fail(j.Close())
	}
	if j := appendTo("always", journal.SyncAlways, 30); j != nil {
		s.fail(j.Close())
	}
	j := appendTo("never", journal.SyncNever, fill)
	if j == nil {
		return
	}
	var got journal.Record
	s.ns("journal.read_ns", fill, func(i int) { s.fail(j.Read(int64(i), &got)) })
	s.ns("journal.ack_ns", fill, func(i int) { s.fail(j.Ack("probe", int64(i+1))) })
	s.fail(j.Close())

	// Recovery scan of the filled directory.
	var opens []float64
	for b := 0; b < probeBatches; b++ {
		t0 := nowNs()
		j, err = journal.Open(filepath.Join(dir, "never"), journal.Options{SegmentSize: durSegmentSize})
		opens = append(opens, float64(nowNs()-t0)/1e6)
		if err != nil {
			s.fail(err)
			return
		}
		if b < probeBatches-1 {
			s.fail(j.Close())
		}
	}
	s.add("journal.open_ms", median(opens), probeBatches)
	// One pass that deletes every fully acked segment; there is one journal
	// to compact, so one sample.
	t0 := nowNs()
	_, err = j.Compact()
	s.add("journal.compact_ms", float64(nowNs()-t0)/1e6, 1)
	s.fail(err)
	s.fail(j.Close())
}

// probeTemplate has the constructs of the portal's front page: a loop over
// labelled records, field expressions, a conditional block.
var probeTemplate = template.MustParse("probe_page", `<table>
<% for r in records %><tr><td><%= r.patient_id %></td><td><%= r.name %></td><td><%= r.max_stage %></td></tr>
<% end %></table>
<% if mdt %><p>MDT <%= mdt %></p><% end %>
`)

// webProbes times the web tier's layers on a deployed, imported portal.
func (s *suite) webProbes() {
	d, err := mdt.Deploy(mdt.DeployConfig{Registry: portalRegistry(s.cfg.seed)})
	if err != nil {
		s.fail(err)
		return
	}
	defer d.Stop()
	if err := d.ImportAll(); err != nil {
		s.fail(err)
		return
	}
	mdts := d.Registry.MDTs()
	s.us("webdb.authenticate_us", 5000, func(i int) {
		m := mdts[i%len(mdts)]
		_, err := d.WebDB.Authenticate(m.ID, d.Creds[m.ID])
		s.fail(err)
	})
	user, err := d.WebDB.FindUser(mdts[0].ID)
	if err != nil {
		s.fail(err)
		return
	}
	s.us("webdb.privileges_of_us", 20000, func(int) {
		p, err := d.WebDB.PrivilegesOf(user.ID)
		s.fail(err)
		sink.p = p
	})
	s.us("docstore.query_us", 100, func(i int) {
		docs, err := d.DMZDB.Query(mdt.ViewRecordsByMDT, mdts[i%len(mdts)].ID)
		s.fail(err)
		sink.n = len(docs)
	})
	s.us("docstore.get_us", 20000, func(i int) {
		doc, err := d.DMZDB.Get("metric/mdt/" + mdts[i%len(mdts)].ID)
		s.fail(err)
		sink.any = doc
	})
	docs, err := d.DMZDB.Query(mdt.ViewRecordsByMDT, mdts[0].ID)
	if err != nil || len(docs) == 0 {
		s.fail(fmt.Errorf("web probes: %s has no records (%v)", mdts[0].ID, err))
		return
	}
	scratch := docstore.New("probe", docstore.Options{})
	s.us("docstore.put_us", 5000, func(i int) {
		src := docs[i%len(docs)]
		_, err := scratch.Put(fmt.Sprintf("probe/%d", i), src.Data, src.Labels, "")
		s.fail(err)
	})
	s.us("taint.wrap_docs_us", 500, func(int) {
		w, err := d.Frontend.WrapDocs(docs)
		s.fail(err)
		sink.n = len(w)
	})
	wrapped, err := d.Frontend.WrapDocs(docs)
	if err != nil {
		s.fail(err)
		return
	}
	s.us("taint.to_json_us", 500, func(int) {
		js, err := taint.ToJSONList(wrapped)
		s.fail(err)
		sink.n = js.Len()
	})
	a := taint.WrapString("patient ", s.rotating[0])
	b := taint.WrapString("record", s.rotating[1])
	s.ns("taint.concat_ns", 20000, func(int) { sink.n = a.Concat(b).Len() })
	tctx := template.Context{"mdt": taint.NewString(mdts[0].ID), "records": wrapped}
	s.us("template.render_us", 500, func(int) {
		page, err := probeTemplate.Render(tctx)
		s.fail(err)
		sink.n = page.Len()
	})
}

// scenarios runs the pipeline, portal and durable workloads small, lightly
// loaded and with every op traced, and reads the (S) metrics off their
// spans: a span's median duration, or its median self time where it has
// children.
func (s *suite) scenarios() {
	cfg := s.cfg
	cfg.seconds, cfg.trace, cfg.scenario, cfg.traceFile = 2.4, true, true, ""
	spanMetrics := func(name string, want map[string]string, selfOf string, selfMetric string) *report {
		cfg.workload = name
		rep, err := run(cfg, builders[name])
		if err != nil {
			s.fail(err)
			return nil
		}
		if !rep.correct() {
			s.fail(fmt.Errorf("%s scenario: %v %v", name, rep.violations, rep.problems))
		}
		for _, st := range rep.spans {
			if m, ok := want[st.name]; ok {
				s.add(m, micros(st.total.quantile(0.5)), int(st.total.n))
			}
			if st.name == selfOf {
				s.add(selfMetric, micros(st.self.quantile(0.5)), int(st.self.n))
			}
		}
		return rep
	}
	spanMetrics("pipeline", map[string]string{
		"client.publish": "broker.client_publish_us",
		"wire.in":        "broker.wire_us",
		"relay.callback": "engine.callback_us",
		"ctx.store":      "engine.ctx_store_us",
		"ctx.publish":    "engine.ctx_publish_us",
	}, "", "")
	spanMetrics("portal", map[string]string{
		"auth":        "webfront.auth_us",
		"priv_fetch":  "webfront.priv_fetch_us",
		"handler":     "webfront.handler_us",
		"label_check": "webfront.label_check_us",
	}, "serve", "webfront.other_us")
	if rep := spanMetrics("durable", nil, "", ""); rep != nil && rep.replayed > 0 {
		s.add("broker.replay_per_s", rep.replayPerS, int(rep.replayed))
	}
}

// wireBytesPerOp is the frame bytes one op of the traced workload puts on
// the wire, computed from the images of its own events: the SEND image
// plus one MESSAGE image per delivery, without the forty-odd bytes of
// per-delivery routing headers and without receipts. The portal puts
// nothing on a broker wire.
func wireBytesPerOp(cfg runConfig, env *runEnv) float64 {
	var ev *event.Event
	sends, deliveries, ops := 1.0, 1.0, 1.0
	switch cfg.workload {
	case "fanout":
		w := newFanout(env).(*fanout)
		ev = event.New(fanoutTopic, nil)
		ev.Body, ev.Labels = w.body, w.sets[0]
		deliveries = fanoutWardSubs + 0.75*fanoutGuestSubs
		ops = deliveries
	case "pipeline":
		w := newPipeline(env).(*pipeline)
		op := w.sched[0]
		ev = event.New(w.topics[op.mdt], w.attrs(0))
		ev.Body, ev.Labels = w.body, w.sets[op.mdt][op.patient]
		// The passing 11/16 cross the wire four times: in to the relay,
		// back out of it, and in to the sink. The relayed event is taken
		// to be the size of the original.
		sends, deliveries = 1+11.0/16, 2*11.0/16
	case "durable":
		w := newDurable(env).(*durable)
		ev = event.New(durTopic, map[string]string{"kind": "report"})
		ev.Body, ev.Labels = w.body, w.sets[0]
	default:
		return 0
	}
	ev.Freeze()
	send, err1 := ev.SendImage()
	msg, err2 := ev.WireImage()
	if err1 != nil || err2 != nil {
		return 0
	}
	return (sends*float64(send.WireLen()) + deliveries*float64(msg.WireLen())) / ops
}
