package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// verdictOf parses the last line of a run's standard output.
func verdictOf(t *testing.T, out string) (v struct {
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line is not the verdict: %v\n%s", err, out)
	}
	return v
}

// TestSmokeAllWorkloads runs every workload with 300 ms saturation and
// 600 ms paced phases through the command-line entry point and checks the
// verdict: correct, nothing failed, every end-to-end metric present and
// positive.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := cli([]string{"-workload", name, "-seed", "3", "-seconds", "0.9", "-work", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			v := verdictOf(t, stdout.String())
			if !v.Correct || v.Failed != 0 || v.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", v.Correct, v.Attempted, v.Failed, stdout.String())
			}
			for _, d := range endToEnd {
				m, ok := v.Metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("metric %s = %+v (present=%v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
			if len(v.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want exactly the %d end-to-end ones", len(v.Metrics), len(endToEnd))
			}
		})
	}
}

// TestTracedRun runs one traced run end to end: every per-layer metric is
// reported by name, every timing among the probes and spans was really
// measured, the span file is written and the result file records the run.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	code := cli([]string{"-workload", "pipeline", "-seed", "5", "-seconds", "1.8", "-trace", "1",
		"-work", dir, "-out", out, "-commit", "test"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	v := verdictOf(t, stdout.String())
	if !v.Correct || v.Failed != 0 {
		t.Fatalf("correct=%v failed=%d\n%s", v.Correct, v.Failed, stdout.String())
	}
	if len(v.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want exactly the %d per-layer ones", len(v.Metrics), len(perLayer))
	}
	timeUnit := map[string]bool{"ns": true, "us": true, "ms": true, "s": true}
	for _, d := range perLayer {
		m, ok := v.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("per-layer metric %s missing or in the wrong unit: %+v", d.name, m)
			continue
		}
		if timeUnit[d.unit] && !(m.Value > 0) {
			t.Errorf("timing %s = %v: every timing must be measured in every traced run", d.name, m.Value)
		}
	}
	if m := v.Metrics["label.labels_per_out_event"]; m.Value < 3 || m.Value > pipeMaxLabels {
		t.Errorf("label.labels_per_out_event = %v, want between 3 and %d", m.Value, pipeMaxLabels)
	}

	spans, err := os.ReadFile(filepath.Join(dir, "trace_pipeline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"client.publish", "wire.in", "relay.callback", "ctx.store", "ctx.publish", "wire.out", "sink.callback"} {
		if !bytes.Contains(spans, []byte(`"name":"`+name+`"`)) {
			t.Errorf("span file has no %q span", name)
		}
	}
	rf, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Results) != 1 || !rf.Results[0].Traced || rf.Results[0].Commit != "test" || !rf.Results[0].Loopback {
		t.Errorf("result file = %+v", rf.Results)
	}
}

// TestInjectedFaultFailsTheRun widens a principal's clearance behind the
// checker's back — the policy now lets guest receive what the schedule
// says it must never see — and checks that the run reports a safety
// violation and exits non-zero.
func TestInjectedFaultFailsTheRun(t *testing.T) {
	builders["fanout-misclear"] = func(env *runEnv) workload {
		w := newFanout(env).(*fanout)
		w.guestCleared = []string{"*"}
		return w
	}
	defer delete(builders, "fanout-misclear")
	var stdout, stderr bytes.Buffer
	code := cli([]string{"-workload", "fanout-misclear", "-seconds", "0.6", "-work", t.TempDir()}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\n%s", code, stdout.String())
	}
	if v := verdictOf(t, stdout.String()); v.Correct || v.Failed == 0 {
		t.Errorf("correct=%v failed=%d, want an incorrect run with failed ops", v.Correct, v.Failed)
	}
	if !strings.Contains(stdout.String(), "SAFETY VIOLATION") {
		t.Errorf("the report does not name the violation:\n%s", stdout.String())
	}
}

// TestCompare checks -compare: each metric's own bound, the absolute floor
// under setup_s's, the compareOnly metrics, and that failed ops, an incorrect
// run or runs of different lengths are never passed on their timings.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := runResult{Workload: "durable", Seconds: 24, Correct: true, Attempted: 1000, Metrics: []metric{
		{"setup_s", "s", 0.002, 1}, {"throughput_per_s", "1/s", 1000, 1}, {"latency_p50_us", "us", 500, 1},
		{"replay_per_s", "1/s", 200000, 1}, {"latency_p99_us", "us", 2000, 1}}}
	write := func(name string, change func(*runResult)) string {
		path := filepath.Join(dir, name)
		res := base
		res.Metrics = append([]metric(nil), base.Metrics...)
		change(&res)
		if err := writeResult(path, res); err != nil {
			t.Fatal(err)
		}
		// A traced entry in the same file is kept beside it and ignored.
		res.Traced, res.Correct = true, false
		if err := writeResult(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", func(*runResult) {})
	if rf, err := readResults(a); err != nil || len(rf.Results) != 2 {
		t.Errorf("result file should hold the untraced and the traced entry: %+v %v", rf, err)
	}
	for _, c := range []struct {
		name   string
		change func(*runResult)
		ok     bool
		says   string
	}{
		{"a small change", func(r *runResult) { r.Metrics[1].Value, r.Metrics[2].Value = 990, 520 }, true, ""},
		{"a 30 % throughput loss", func(r *runResult) { r.Metrics[1].Value = 700 }, false, "WORSE"},
		{"a set-up 0.1 s slower: under the absolute floor", func(r *runResult) { r.Metrics[0].Value = 0.102 }, true, ""},
		{"a set-up 0.3 s slower", func(r *runResult) { r.Metrics[0].Value = 0.302 }, false, "WORSE"},
		{"a 30 % replay loss", func(r *runResult) { r.Metrics[3].Value = 140000 }, false, "WORSE"},
		{"a p99 twice as long: shown, but noise decides it on one pair of runs", func(r *runResult) { r.Metrics[4].Value = 4000 }, true, "unresolved"},
		{"failed ops behind unchanged timings", func(r *runResult) { r.Failed = 3 }, false, "failed_share"},
		{"an incorrect run", func(r *runResult) { r.Correct, r.Problems = false, []string{"counters disagree"} }, false, "not correct"},
	} {
		var out bytes.Buffer
		ok, err := compareResults(&out, a, write("b.json", c.change))
		if err != nil || ok != c.ok || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: ok=%v err=%v, want ok=%v and %q in\n%s", c.name, ok, err, c.ok, c.says, out.String())
		}
	}
	shorter := write("c.json", func(r *runResult) { r.Seconds = 12 })
	var out bytes.Buffer
	if _, err := compareResults(&out, a, shorter); err == nil {
		t.Error("runs of different lengths must be refused, not compared")
	}
	slow := write("d.json", func(r *runResult) { r.Metrics[1].Value = 700 })
	if code := cli([]string{"-compare", a, slow}, &out, &out); code != 1 {
		t.Errorf("-compare exit code = %d, want 1 for a regression", code)
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, generated from this package's tables, and checks the limits the
// driver puts on it.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}

	m := buildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the contract's limits",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || builders[w.Name] == nil {
			t.Errorf("workload %q: why must be one line of at most 200 characters (%d) and the workload must exist", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		check(e.Name)
		if !unit.MatchString(e.Unit) || e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: bad unit or bound", e)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for _, p := range m.PerLayer {
		check(p.Name)
		if !unit.MatchString(p.Unit) || p.Bound != nil {
			t.Errorf("per-layer metric %+v: bad unit, or a bound it must not have", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(want) > 64<<10 {
		t.Errorf("run_seconds %d or size %d out of range", m.RunSeconds, len(want))
	}
}
