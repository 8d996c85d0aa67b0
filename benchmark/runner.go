package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is what the command line (or a test) fixes for one run.
type runConfig struct {
	workload string
	seed     int64
	// seconds is the measured time: a third of it is the closed-loop
	// saturation phase, two thirds the open-loop paced phase.
	seconds float64
	trace   bool
	// workDir holds the journals a run writes; they are removed when the
	// run ends.
	workDir string
	// traceFile, when set on a traced run, is where its spans are written.
	traceFile string
	// scenario marks one of the layer suite's small runs: one set-up, the
	// paced rate cut to scenarioRate of the workload's, and every op traced
	// (rather than one in traceEvery) but only during the paced phase, so
	// that the spans show service times at a light load, not queueing at
	// saturation.
	scenario bool
}

const scenarioRate = 0.25

// params are the fixed properties of a workload the runner needs.
type params struct {
	// clients is the number of closed-loop generator goroutines in the
	// saturation phase (and of workers behind the pacer when issue is
	// synchronous).
	clients int
	// rate is the paced phase's generator steps per second, chosen at 10-25 %
	// of what the two-core sandbox saturates at: low enough that a third less
	// CPU speed (a neighbour's burst) adds no queueing.
	rate float64
	// window is the length of the windows the latency percentiles are taken
	// over: long enough to hold a thousand ops at the paced rate (ten beyond
	// the 99th percentile), short enough that a stall of tens of
	// milliseconds — a descheduled virtual CPU — spoils few of them.
	window time.Duration
	// maxAhead bounds, in ops, how far the closed loop may run ahead of
	// completions; the program's own bounded queues usually bind first.
	maxAhead uint64
	// syncIssue says issue returns only when the op has completed (a page
	// request), so the paced phase needs workers behind the pacer.
	syncIssue bool
	// opsPerStep is the mean number of ops one generator step attempts; it
	// sizes the backlog bound of the paced phase.
	opsPerStep float64
}

// workload is one traffic mix and the system it drives. setup builds the
// system through the program's public constructors; issue performs
// generator step seq (one publish, one page request); done and expected
// count ops in the workload's own unit.
type workload interface {
	params() params
	setup() error
	// teardown stops everything setup started and waits for it.
	teardown()
	issue(client int, seq uint64, due int64)
	// flush pushes out anything the generator side still buffers.
	flush()
	done() uint64
	expected() uint64
	// tail is the workload's own last phase, run while the system is
	// still up (only durable has one).
	tail(rep *report)
	// verify runs after teardown, when every callback goroutine has
	// stopped: it settles receivers, compares the public counters with
	// the schedule's predictions and hands over the latency windows.
	verify(rep *report)
}

// phases are the lengths of one run's parts.
type phases struct {
	warm, sat, paced, window time.Duration
	windows                  int
}

func planPhases(seconds float64, window time.Duration) phases {
	total := time.Duration(seconds * float64(time.Second))
	p := phases{sat: total / 3, window: window}
	p.paced = total - p.sat
	p.warm = min(1500*time.Millisecond, total/8)
	if p.paced < 4*p.window {
		p.window = p.paced / 4 // short (test) runs still get several windows
	}
	// A remainder shorter than a window is folded into the last one.
	p.windows = max(int(p.paced/p.window), 1)
	return p
}

// runEnv is the state a run shares between the runner, the generator and
// the workload's callbacks.
type runEnv struct {
	cfg runConfig
	ph  phases

	pacedStart atomic.Int64
	tr         atomic.Pointer[tracer]
}

// window maps a due time to its window of the paced phase.
func (e *runEnv) window(due int64) int {
	return int((due - e.pacedStart.Load()) / int64(e.ph.window))
}

func (e *runEnv) tracer() *tracer { return e.tr.Load() }

// phaseCost is what one closed-loop phase did, drain included, and what it
// cost the process.
type phaseCost struct {
	ops     uint64
	wall    time.Duration
	cpu     time.Duration
	gcCPU   float64
	mallocs uint64
	bytes   uint64
}

func (c phaseCost) perSecond() float64 { return float64(c.ops) / c.wall.Seconds() }
func (c phaseCost) cpuPerOp() float64  { return float64(c.cpu) / float64(max(c.ops, 1)) }

// report is everything one run measured and checked.
type report struct {
	cfg runConfig
	ph  phases
	p   params

	setupS  float64 // median set-up
	setups  int
	sat     phaseCost
	satPart [2]phaseCost // traced run only: untraced half, traced half

	pacedStart int64
	pacedSteps int
	late       *hist
	backlogEnd int64
	backlogMax int64
	lat        []*hist // per-window op latency of the paced phase

	// replayed and replayPerS are durable's cold catch-up: the journal
	// records scanned, and how many of them per second.
	replayed   uint64
	replayPerS float64

	attempted uint64
	failed    uint64
	// violations are breaches of the safety property (a principal saw
	// what it is not cleared for); they fail the run with a non-zero exit.
	violations []string
	// problems are everything else that makes the outputs wrong: missing
	// or surplus deliveries, counters that disagree with the schedule, a
	// backlog that grew.
	problems []string

	counters   map[string]float64 // per-layer (C) metrics by name
	extra      []metric           // workload-specific diagnostics
	spans      []*spanStat
	goroutines int
}

func (r *report) correct() bool { return len(r.violations) == 0 && len(r.problems) == 0 }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// Bounds on the set-up repetitions.
const (
	minSetups   = 5
	maxSetups   = 1001
	setupBudget = time.Second
)

// drainDeadline is how long completions may trail the last issued op before
// the missing ones count as failed.
const drainDeadline = 30 * time.Second

// generator drives a workload: closed loop, then open loop.
type generator struct {
	w   workload
	p   params
	seq atomic.Uint64
}

// closed runs the closed loop for d: every client issues its next step as
// soon as the previous call returns, held back only while more than
// maxAhead ops are outstanding.
func (g *generator) closed(d time.Duration) {
	end := nowNs() + int64(d)
	var wg sync.WaitGroup
	for c := 0; c < g.p.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for nowNs() < end {
				for !g.p.syncIssue && g.w.expected()-g.w.done() > g.p.maxAhead && nowNs() < end {
					time.Sleep(200 * time.Microsecond)
				}
				g.w.issue(c, g.seq.Add(1), 0)
			}
		}(c)
	}
	wg.Wait()
}

// waitFor polls cond until it holds or the drain deadline passes.
func waitFor(cond func() bool) bool {
	deadline := nowNs() + int64(drainDeadline)
	for !cond() {
		if nowNs() > deadline {
			return false
		}
		time.Sleep(500 * time.Microsecond)
	}
	return true
}

// drain waits until every issued op has completed, or the deadline passes.
func (g *generator) drain() bool {
	g.w.flush()
	return waitFor(func() bool { return g.w.done() >= g.w.expected() })
}

// measuredClosed is closed plus the drain, bracketed by cost snapshots.
func (g *generator) measuredClosed(d time.Duration) phaseCost {
	runtime.GC() // start every measured phase from the same heap state
	d0, s0 := g.w.done(), snapProc()
	g.closed(d)
	g.drain()
	d1, s1 := g.w.done(), snapProc()
	return phaseCost{
		ops: d1 - d0, wall: s1.wall - s0.wall, cpu: s1.cpu - s0.cpu,
		gcCPU: s1.gcCPU - s0.gcCPU, mallocs: s1.mallocs - s0.mallocs, bytes: s1.bytes - s0.bytes,
	}
}

// pacedOp is one due op handed from the pacer to a worker.
type pacedOp struct {
	seq uint64
	due int64
}

// paced runs the open loop. With an asynchronous issue the pacer calls it
// directly; with a synchronous one it hands ops to the clients' workers
// through a queue deep enough that the pacer itself never waits.
func (g *generator) paced(rate float64, d time.Duration) (int, *hist) {
	if !g.p.syncIssue {
		return pace(rate, d, func(_ int, due int64) { g.w.issue(0, g.seq.Add(1), due) })
	}
	// Sized for the whole phase, so a stalled system shows as backlog and
	// latency, never as a blocked (and therefore slowed) generator.
	queue := make(chan pacedOp, int(rate*d.Seconds())+1)
	var wg sync.WaitGroup
	for c := 0; c < g.p.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for op := range queue {
				g.w.issue(c, op.seq, op.due)
			}
		}(c)
	}
	n, late := pace(rate, d, func(_ int, due int64) { queue <- pacedOp{g.seq.Add(1), due} })
	close(queue)
	wg.Wait()
	return n, late
}

// run executes one workload run: set up (several times), warm up, saturate,
// pace, the workload's own tail phase, tear down, verify.
func run(cfg runConfig, build func(*runEnv) workload) (*report, error) {
	env := &runEnv{cfg: cfg}
	// Set-ups take milliseconds, so they are repeated — at least minSetups
	// times and until they have taken setupBudget together — and the
	// median is reported. The last set-up is the one that is measured.
	w := build(env)
	env.ph = planPhases(cfg.seconds, w.params().window)
	var setupTimes []float64
	began := nowNs()
	for {
		t0 := nowNs()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setupTimes = append(setupTimes, time.Duration(nowNs()-t0).Seconds())
		if n := len(setupTimes); cfg.scenario || n >= maxSetups || (n >= minSetups && sinceNs(began) > setupBudget) {
			break
		}
		w.teardown()
		w = build(env)
	}
	p := w.params()
	if cfg.scenario {
		p.rate *= scenarioRate
	}
	rep := &report{cfg: cfg, ph: env.ph, p: p, setupS: median(setupTimes),
		setups: len(setupTimes), counters: make(map[string]float64)}
	g := &generator{w: w, p: p}

	g.closed(env.ph.warm)
	if !g.drain() {
		rep.problem("warm-up did not drain within %v", drainDeadline)
	}

	var tr *tracer
	switch {
	case cfg.trace && cfg.scenario:
		tr = newTracer(1, 1<<18)
		rep.sat = g.measuredClosed(env.ph.sat)
	case cfg.trace:
		// The traced run spends the saturation phase twice, untraced then
		// traced, so the tracing overhead is measured inside one process.
		tr = newTracer(traceEvery, 1<<18)
		rep.satPart[0] = g.measuredClosed(env.ph.sat / 2)
		env.tr.Store(tr)
		rep.satPart[1] = g.measuredClosed(env.ph.sat / 2)
		rep.sat = rep.satPart[1]
	default:
		rep.sat = g.measuredClosed(env.ph.sat)
	}

	runtime.GC()
	env.tr.Store(tr)
	pacedStart := nowNs()
	env.pacedStart.Store(pacedStart)
	rep.pacedStart = pacedStart
	rep.pacedSteps, rep.late = g.paced(p.rate, env.ph.paced)
	rep.backlogEnd = int64(w.expected()) - int64(w.done())
	rep.backlogMax = int64(p.rate * p.opsPerStep) // one second's worth of ops
	if !g.drain() {
		rep.problem("paced phase did not drain within %v", drainDeadline)
	}
	// A generator that blocks in issue hides its backlog in its own
	// lateness, so both are held to one second's worth.
	if behind := time.Duration(rep.late.max); rep.backlogEnd > rep.backlogMax || behind > time.Second {
		rep.problem("at the end of the paced phase the backlog is %d ops (limit %d) and the generator ran up to %v late (limit 1s): the rate is not sustained and the latencies are invalid",
			rep.backlogEnd, rep.backlogMax, behind)
	}
	env.tr.Store(nil)

	w.tail(rep)
	rep.goroutines = runtime.NumGoroutine()
	w.teardown()
	w.verify(rep)
	// The summary is of the paced phase: spans of the saturation phase are
	// in the span file, but they time queues, not layers.
	var pacedSpans []span
	for _, s := range tr.spans() {
		if s.Start >= pacedStart {
			pacedSpans = append(pacedSpans, s)
		}
	}
	rep.spans = summarise(pacedSpans)
	if tr != nil {
		if n := tr.dropped.Load(); n > 0 {
			rep.problem("span buffer overflowed: %d spans dropped", n)
		}
		if cfg.traceFile != "" {
			if err := tr.write(cfg.traceFile); err != nil {
				return nil, fmt.Errorf("%s: span file: %w", cfg.workload, err)
			}
		}
	}
	return rep, nil
}
