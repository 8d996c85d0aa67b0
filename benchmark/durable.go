package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"safeweb/internal/broker"
	"safeweb/internal/event"
	"safeweb/internal/journal"
	"safeweb/internal/label"
)

// The durable workload: journal writes beside reads. The driver publishes
// 256-byte events to a durable topic; a fully cleared client in consumer
// group "tail" tails the journal throughout, so reads race appends. An op
// is one event journaled and delivered to the tailing group. A tail phase
// then replays the whole journal to a cold group that is not cleared for one
// event in eight, resumes that group, and compacts.
//
// Why: the only workload where internal/journal and the replay path do
// most of the work — append, segment rolls, Read, offset acks, clearance at
// read time. Nothing else here touches them.
//
// The journal runs under SyncBatch at its defaults (256 KiB or 2 ms): a
// record is readable only after its batch's fsync, so the tailing group's
// latency has the sync interval as its floor and the closed loop's rate is
// partly the disk's. On the sandbox that disk is the host's page cache.
const (
	durTopic       = "/dur/events"
	durBody        = 256
	durRate        = 8000 // paced publishes per second
	durSegmentSize = 8 << 20
	durCredit      = 512
	// ackSettle is how long a consumer's last cumulative ack is given to
	// reach the journal before its connection is closed.
	ackSettle = 300 * time.Millisecond
)

type durable struct {
	env *runEnv
	wire
	dir string

	policy *label.Policy
	tailer *broker.Client
	tailRx *receiver

	restricted [scheduleLen]bool
	sets       [scheduleLen]label.Set
	body       []byte

	// Generator-owned tallies.
	nOpen, nRestricted uint64
	pubErrors          uint64

	replay struct {
		// f collects the replay clients' errors apart from the run's, so
		// closing them mid-run does not read as a fault.
		f                   faults
		audit, resumed      *receiver
		perSecond           float64
		compactMs           float64
		segments, diskBytes int64
		after               broker.ServerStats
	}
	stats struct {
		broker broker.Stats
		server broker.ServerStats
	}
}

var durableRuns atomic.Int64

func newDurable(env *runEnv) workload {
	w := &durable{env: env}
	w.dir = filepath.Join(env.cfg.workDir, fmt.Sprintf("journal-%d-%d", os.Getpid(), durableRuns.Add(1)))
	rnd := newRand(env.cfg.seed, "durable")
	var open, closed [16]label.Set
	for m := range open {
		mdt := conf("mdt/" + strconv.Itoa(m))
		open[m] = label.NewSet(mdt, conf(fmt.Sprintf("patient/%d", 30000000+rnd.Intn(9999999))))
		closed[m] = label.NewSet(mdt, conf("restricted/x"))
	}
	for i := range w.sets {
		m := rnd.Intn(len(open))
		if w.restricted[i] = rnd.Intn(8) == 0; w.restricted[i] {
			w.sets[i] = closed[m]
		} else {
			w.sets[i] = open[m]
		}
	}
	w.body = filler(rnd, durBody)
	return w
}

func (w *durable) params() params {
	return params{clients: 1, rate: durRate, window: 500 * time.Millisecond, maxAhead: 4096, opsPerStep: 1}
}

func (w *durable) setup() error {
	w.policy = label.NewPolicy()
	w.policy.SetPrincipal("tail", clearance("*"), false)
	w.policy.SetPrincipal("auditor", clearance("mdt/*", "patient/*"), false)
	err := w.listen(w.policy, func(cfg *broker.ServerConfig) {
		cfg.Durable = []string{"/dur/*"}
		cfg.JournalDir = w.dir
		cfg.JournalSync = journal.SyncBatch
		cfg.JournalSegmentSize = durSegmentSize
	})
	if err != nil {
		return err
	}
	w.tailRx = newReceiver("tail", w.policy.PrivilegesOf("tail"), w.env.ph.windows)
	if w.tailer, err = w.consume(&w.f, "tail", "tail", "", w.tailRx, true); err != nil {
		return err
	}
	return w.connect()
}

// consume connects a durable consumer in the given group. It is a bare
// client, so its handler runs on the connection's read loop and releases
// the event itself: the release is what acks the offset and replenishes
// the credit window.
func (w *durable) consume(f *faults, login, group, offset string, r *receiver, traced bool) (*broker.Client, error) {
	c, err := dial(w.srv.Addr(), login, f, func(cfg *broker.ClientConfig) {
		cfg.PublishWindow = 0
		cfg.DurableGroup = group
		cfg.DurableOffset = offset
		cfg.SubscribeCredit = durCredit
	})
	if err != nil {
		return nil, err
	}
	_, err = c.Subscribe(durTopic, "", func(ev *event.Event) {
		now := nowNs()
		seq, _ := r.observe(w.env, ev.Body, ev.Labels, now)
		if tr := w.env.tracer(); traced && tr.sampled(seq) {
			tr.add(seq, "journal+wire", "client.publish", w.marks.returned(tr, seq, now), now)
		}
		ev.Release()
	})
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

func (w *durable) issue(_ int, seq uint64, due int64) {
	i := seq % scheduleLen
	ev := event.NewDraft(durTopic)
	putStamp(w.body, seq, due)
	ev.Body = w.body
	ev.Labels = w.sets[i]
	_ = ev.Set("kind", "report") // cannot fail on an unpublished draft
	switch err := w.publish(w.env, ev, seq, due); {
	case err != nil:
		w.pubErrors++
	case w.restricted[i]:
		w.nRestricted++
	default:
		w.nOpen++
	}
}

func (w *durable) done() uint64     { return w.tailRx.count.Load() }
func (w *durable) expected() uint64 { return w.nOpen + w.nRestricted }

// tail replays the journal to a cold group, resumes it, and compacts.
func (w *durable) tail(rep *report) {
	w.stats.broker = w.br.Stats()
	w.stats.server = w.srv.Stats()
	n := w.expected()
	rp := &w.replay

	// Disk use is read before compaction deletes the acked prefix.
	_ = filepath.WalkDir(w.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			rp.diskBytes += info.Size()
			if filepath.Ext(path) == ".seg" {
				rp.segments++
			}
		}
		return nil
	})

	// (1) A cold group catches up from the earliest record. It is not
	// cleared for the restricted eighth, which the broker must withhold at
	// read time and count.
	rp.audit = newReceiver("auditor", w.policy.PrivilegesOf("auditor"), 1)
	rp.audit.denied = &w.restricted
	t0 := nowNs()
	auditor, err := w.consume(&rp.f, "auditor", "audit", "earliest", rp.audit, false)
	if err != nil {
		rep.problem("replay: %v", err)
		return
	}
	base := w.stats.server
	caughtUp := waitFor(func() bool {
		s := w.srv.Stats()
		return rp.audit.count.Load() >= w.nOpen && s.ReplayFiltered-base.ReplayFiltered >= w.nRestricted
	})
	elapsed := sinceNs(t0)
	if !caughtUp {
		rep.problem("replay: the cold group saw %d of %d records within %v", rp.audit.count.Load(), w.nOpen, drainDeadline)
	}
	rp.perSecond = float64(n) / elapsed.Seconds()

	// (2) Reconnecting the group must redeliver exactly its unacked
	// suffix: at most one credit window, once the last acks have landed.
	time.Sleep(ackSettle)
	rp.f.closing.Store(true)
	_ = auditor.Close()
	rp.f.closing.Store(false)
	rp.resumed = newReceiver("auditor (resumed)", w.policy.PrivilegesOf("auditor"), 1)
	rp.resumed.denied = &w.restricted
	again, err := w.consume(&rp.f, "auditor", "audit", "", rp.resumed, false)
	if err != nil {
		rep.problem("resume: %v", err)
		return
	}
	time.Sleep(ackSettle)
	rp.f.closing.Store(true)
	_ = again.Close()

	// (3) Both groups have acked nearly everything, so compaction can
	// delete every segment but the active one.
	t0 = nowNs()
	if err := w.srv.CompactJournals(); err != nil {
		rep.problem("compaction: %v", err)
	}
	rp.compactMs = float64(sinceNs(t0)) / 1e6
	rp.after = w.srv.Stats()
}

func (w *durable) teardown() {
	w.shutdown(func() {
		if w.tailer != nil {
			_ = w.tailer.Close()
		}
	})
	_ = os.RemoveAll(w.dir)
}

func (w *durable) verify(rep *report) {
	n := w.expected()
	rep.attempted = n + w.pubErrors
	rep.failed = w.pubErrors
	failed, problems := w.tailRx.settle(n)
	rep.failed += failed
	rep.problems = append(rep.problems, problems...)
	rep.violations = append(rep.violations, w.tailRx.violations...)
	rep.lat = mergeWindows([]*windowed{w.tailRx.lat})

	var c counterCheck
	b, s := w.stats.broker, w.stats.server
	c.equal("broker.Published", b.Published, n)
	// Durable subscriptions are fed from the journal, never the live fan-out.
	c.equal("broker.Delivered", b.Delivered, 0)
	c.equal("broker.RejectedPublish", b.RejectedPublish, 0)
	c.equal("server.DurableAppends", s.DurableAppends, n)
	c.equal("server.ReplayDeliveries (tail group)", s.ReplayDeliveries, n)
	c.equal("server.ReplayFiltered (tail group)", s.ReplayFiltered, 0)
	checkQuietServer(&c, s)
	if rp := &w.replay; rp.audit != nil {
		// The cold group must see every record it is cleared for, once and
		// in journal order, and none of the others.
		_, problems := rp.audit.settle(w.nOpen)
		rep.problems = append(rep.problems, problems...)
		rep.violations = append(rep.violations, rp.audit.violations...)
		if rp.resumed != nil {
			rep.violations = append(rep.violations, rp.resumed.violations...)
			c.atMost("records redelivered on resume", rp.resumed.count.Load(), durCredit)
			c.equal("resumed deliveries out of order", rp.resumed.misordered+rp.resumed.dup, 0)
		}
		c.atLeast("server.ReplayFiltered (cold group)", rp.after.ReplayFiltered-s.ReplayFiltered, w.nRestricted)
		c.atMost("server.ReplayFiltered (cold group, with resume)", rp.after.ReplayFiltered-s.ReplayFiltered, w.nRestricted+durCredit)
		checkQuietServer(&c, rp.after)
		s = rp.after
		rep.replayed, rep.replayPerS = n, rp.perSecond
		rep.extra = append(rep.extra,
			metric{"compact_ms", "ms", rp.compactMs, 1},
			metric{"compacted_segments", "count", float64(rp.after.CompactedSegments), 1})
		rep.counters["journal.segments"] = float64(rp.segments)
		rep.counters["journal.disk_bytes_per_event"] = float64(rp.diskBytes) / float64(max(n, 1))
	}
	rep.problems = append(rep.problems, c.mismatches...)
	if w.pubErrors > 0 {
		rep.problem("%d publishes failed", w.pubErrors)
	}
	w.f.check(rep)
	w.replay.f.check(rep)
	brokerCounters(rep, b, s)
}
