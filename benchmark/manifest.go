package main

import (
	"bytes"
	"encoding/json"
)

// BENCHMARK.json at the repository root is the driver's contract. It is
// generated from the tables in this package (go run ./benchmark -manifest),
// so the program and the contract cannot name different metrics or bounds;
// TestManifestMatchesBenchmarkJSON fails when the committed file is stale.

// workloadWhy says in one line why each workload is in the benchmark.
var workloadWhy = map[string]string{
	"fanout":   "One publish fans out to 64 networked subscriptions: per-delivery cost (shared wire image, writer, decode, engine dispatch) dominates; repeated labels, so every label memo hits.",
	"pipeline": "Producer to relay to sink with fan-out 1: per-event cost (SEND decode, selector, label derivation, two wire hops) dominates; rotating labels, so every label memo misses.",
	"durable":  "Journaled topic tailed by a consumer group while it is written, then replayed cold and compacted: the only workload where the journal and the replay path do the work.",
	"portal":   "The MDT web portal served in process with imports interleaved: auth, docstore, taint, template and release check do the work and the broker wire path none.",
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, name := range workloadNames {
		m.Workloads = append(m.Workloads, manifestWorkload{name, workloadWhy[name]})
	}
	for _, d := range endToEnd {
		bound := d.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, better(d), &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.name, d.unit, better(d), nil})
	}
	return m
}

// manifestJSON renders the manifest the way the file is committed.
func manifestJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildManifest()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
