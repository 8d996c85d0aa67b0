package main

import "sort"

// metric is one measured value as it is printed and stored.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Samples is how many observations stand behind the value: ops for a
	// rate or a percentile, windows for the windowed tail, batches for a
	// probe.
	Samples int64 `json:"samples"`
}

// metricDef fixes a metric's unit, direction and — for end-to-end metrics —
// the share of the parent's median by which it may worsen before a change
// counts as a regression. BENCHMARK.json states the same table for the
// driver, generated from this one (see manifest.go).
type metricDef struct {
	name   string
	unit   string
	higher bool // true when a larger value is better
	bound  float64
	// unresolved marks a metric that single runs of the same code on the
	// reference sandbox do not repeat within its bound: -compare shows its
	// change and says so, and fails on it in neither direction.
	unresolved bool
}

// endToEnd are the metrics a user of the system would see, as
// BENCHMARK.json lists them for the driver. Each is reported by every
// workload; an op is a delivery (fanout), a resolved publish (pipeline), a
// journaled-and-tailed event (durable) or a page (portal). Every value is as
// measured: a rate is ops over the wall time of the whole saturation phase,
// its drain included, and a latency is from the op's due time.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "latency_p50_us", unit: "us", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", bound: 0.25},
	{name: "allocs_per_op", unit: "count", bound: 0.05},
}

// compareOnly are ISSUE 11's end-to-end metrics the driver's manifest cannot
// list: the windowed p99, whose spread between runs on a shared host (12-80 %)
// is wider than any bound the manifest allows, and the replay rate, which
// only durable has. An untraced run writes them to -out beside the others
// and -compare reads them all the same. (The eighth, failed_share, is
// compared as the counts it is made of.)
var compareOnly = []metricDef{
	{name: "latency_p99_us", unit: "us", bound: 0.12, unresolved: true},
	{name: "replay_per_s", unit: "1/s", higher: true, bound: 0.25},
}

// setupFloor is the absolute part of setup_s's bound in -compare: set-ups of
// a few milliseconds differ by more than a quarter on noise alone.
const setupFloor = 0.25 // seconds

func (r *report) endToEndMetrics() []metric {
	// Both latency figures are the median over the paced phase's windows of
	// each window's own percentile: a stall of the host moves the windows it
	// falls in, not the result.
	p50, wins := windowQuantileMedian(r.lat, 0.50)
	ops := float64(max(r.sat.ops, 1))
	return []metric{
		{"setup_s", "s", r.setupS, int64(r.setups)},
		{"throughput_per_s", "1/s", r.sat.perSecond(), int64(r.sat.ops)},
		{"latency_p50_us", "us", micros(p50), int64(wins)},
		{"cpu_us_per_op", "us", micros(r.sat.cpuPerOp()), int64(r.sat.ops)},
		{"allocs_per_op", "count", float64(r.sat.mallocs) / ops, int64(r.sat.ops)},
	}
}

// compareOnlyMetrics are the compareOnly values this run has.
func (r *report) compareOnlyMetrics() []metric {
	p99, wins := windowQuantileMedian(r.lat, 0.99)
	m := []metric{{"latency_p99_us", "us", micros(p99), int64(wins)}}
	if r.replayed > 0 {
		m = append(m, metric{"replay_per_s", "1/s", r.replayPerS, int64(r.replayed)})
	}
	return m
}

// procMetrics are the per-layer metrics of the process as a whole, taken
// from the traced run of the workload itself.
func (r *report) procMetrics() []metric {
	all := mergeAll(r.lat)
	p99, wins := windowQuantileMedian(r.lat, 0.99)
	ops := float64(max(r.sat.ops, 1))
	m := []metric{
		{"proc.peak_rss_mb", "MiB", peakRSSMiB(), 1},
		{"proc.alloc_bytes_per_op", "B", float64(r.sat.bytes) / ops, int64(r.sat.ops)},
		{"proc.gc_cpu_share", "ratio", r.sat.gcCPU / max(r.sat.cpu.Seconds(), 1e-9), int64(r.sat.ops)},
		{"proc.goroutines", "count", float64(r.goroutines), 1},
		{"proc.gen_late_p99_us", "us", micros(r.late.quantile(0.99)), int64(r.late.n)},
		{"proc.backlog_end", "count", float64(r.backlogEnd), 1},
		{"proc.latency_p99_us", "us", micros(p99), int64(wins)},
		{"proc.latency_p99_whole_us", "us", micros(all.quantile(0.99)), int64(all.n)},
		{"proc.latency_p999_us", "us", micros(all.quantile(0.999)), int64(all.n)},
		{"proc.failed_share", "ratio", float64(r.failed) / float64(max(r.attempted, 1)), int64(r.attempted)},
	}
	if r.cfg.trace && r.satPart[0].ops > 0 {
		share := 1 - r.satPart[1].perSecond()/r.satPart[0].perSecond()
		m = append(m, metric{"proc.trace_overhead_share", "ratio", share, int64(r.satPart[1].ops)})
	}
	return m
}

// counterMetrics returns the (C) metrics the workload filled in.
func (r *report) counterMetrics() []metric {
	out := make([]metric, 0, len(r.counters))
	for name, v := range r.counters {
		out = append(out, metric{name, perLayerUnit(name), v, 1})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
