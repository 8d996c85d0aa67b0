// Command benchmark is the repository's benchmark: four workloads, each
// with a closed-loop saturation phase and an open-loop paced phase, the
// end-to-end metrics of each, and a traced run that adds per-layer
// probes, spans and counters. See README.md in this directory.
//
//	go run ./benchmark -workload fanout -seed 1
//	go run ./benchmark -workload pipeline -seed 1 -trace 1 -out results.json
//	go run ./benchmark -compare a.json b.json
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics; the lines before it are for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

var builders = map[string]func(*runEnv) workload{
	"fanout":   newFanout,
	"pipeline": newPipeline,
	"durable":  newDurable,
	"portal":   newPortal,
}

// workloadNames fixes the order workloads are listed in.
var workloadNames = []string{"fanout", "pipeline", "durable", "portal"}

// defaultSeconds is BENCHMARK.json's run_seconds: the measured time of one
// run when the caller does not say.
const defaultSeconds = 27

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs one invocation and returns the exit code: 0 for a completed run
// (its JSON line says whether it was correct), 1 for a breach of the safety
// property or a -compare that found a regression, 2 for a run that could
// not be made.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fanout, pipeline, durable or portal")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds: one third saturation phase, two thirds paced phase")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics instead of the end-to-end ones")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "directory for journals (removed afterwards) and span files")
	out := fs.String("out", "", "result file to merge this run into; a traced run writes its spans beside it")
	commit := fs.String("commit", "unknown", "commit id to record in -out")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments, applying each metric's bound")
	describe := fs.Bool("manifest", false, "print BENCHMARK.json as generated from this program's tables")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		data, err := manifestJSON()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		_, _ = stdout.Write(data)
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		ok, err := compareResults(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	build, known := builders[*name]
	if !known || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "usage: benchmark -workload {fanout|pipeline|durable|portal} [-seed n] [-seconds s] [-trace 0|1] [-out file]\n")
		return 2
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace != 0, workDir: *work}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if cfg.trace {
		// The traced run measures the workload for half as long and spends
		// the rest of its time on the layer suite.
		cfg.seconds /= 2
		dir := cfg.workDir
		if *out != "" {
			dir = filepath.Dir(*out)
		}
		cfg.traceFile = filepath.Join(dir, "trace_"+cfg.workload+".jsonl")
	}

	rep, err := run(cfg, build)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	// stored is what -out keeps: beside the metrics of the verdict, an
	// untraced run's compareOnly ones.
	metrics := rep.endToEndMetrics()
	stored := append(metrics[:len(metrics):len(metrics)], rep.compareOnlyMetrics()...)
	if cfg.trace {
		// The process readings are taken before the suite adds its own
		// memory and goroutines to them.
		proc := rep.procMetrics()
		metrics = perLayerMetrics(runLayerSuite(cfg, rep), rep.counterMetrics(), proc)
		stored = metrics
	}
	printReport(stdout, rep, stored)
	if *out != "" {
		if err := writeResult(*out, newRunResult(rep, *commit, stored)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if err := printVerdict(stdout, rep, metrics); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if len(rep.violations) > 0 {
		return 1
	}
	return 0
}

// printReport writes the human-readable part: phases, every metric by name
// with its unit and sample count, and whatever went wrong.
func printReport(w io.Writer, rep *report, metrics []metric) {
	mode := "untraced"
	if rep.cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d (%s): %d set-ups, warm %v, sat %v closed loop x%d, paced %v at %.0f/s, %d windows of %v\n",
		rep.cfg.workload, rep.cfg.seed, mode, rep.setups, rep.ph.warm, rep.ph.sat, rep.p.clients,
		rep.ph.paced, rep.p.rate, rep.ph.windows, rep.ph.window)
	if rep.cfg.trace {
		// A traced run's end-to-end numbers are context for its spans only.
		for _, m := range rep.endToEndMetrics() {
			fmt.Fprintf(w, "  (traced) %-30s %16.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		}
		for _, s := range rep.spans {
			fmt.Fprintf(w, "  span %-24s p50 %10.2f us  p99 %10.2f us  self p50 %10.2f us  n=%d\n",
				s.name, micros(s.total.quantile(0.5)), micros(s.total.quantile(0.99)), micros(s.self.quantile(0.5)), s.total.n)
		}
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "  %-30s %16.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, m := range rep.extra {
		fmt.Fprintf(w, "  (diagnostic) %-25s %16.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	if !rep.cfg.trace {
		for _, m := range rep.procMetrics() {
			fmt.Fprintf(w, "  (diagnostic) %-25s %16.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		}
	}
	fmt.Fprintf(w, "  paced windows, p50/p99 us:")
	for _, h := range rep.lat {
		fmt.Fprintf(w, " %.0f/%.0f", micros(h.quantile(0.5)), micros(h.quantile(0.99)))
	}
	fmt.Fprintf(w, "\n  attempted %d ops, failed %d, generator late p99 %.1f us, backlog at end of paced phase %d ops\n",
		rep.attempted, rep.failed, micros(rep.late.quantile(0.99)), rep.backlogEnd)
	for _, v := range rep.violations {
		fmt.Fprintln(w, "  SAFETY VIOLATION:", v)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(w, "  problem:", p)
	}
}

// printVerdict writes the machine-readable last line.
func printVerdict(w io.Writer, rep *report, metrics []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	verdict := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), max(rep.attempted, 1), rep.failed, make(map[string]value, len(metrics))}
	for _, m := range metrics {
		verdict.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(verdict)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
