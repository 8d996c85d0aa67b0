package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"sort"
)

// resultFile is the schema of -out: one entry per (workload, traced) pair,
// with the machine it was measured on. A later -out to the same file
// replaces the entry of the same pair and keeps the others, so one file can
// hold a whole set of runs.
type resultFile struct {
	Schema  string      `json:"schema"`
	Results []runResult `json:"results"`
}

const resultSchema = "safeweb-benchmark/1"

type runResult struct {
	Workload   string   `json:"workload"`
	Traced     bool     `json:"traced"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	Loopback   bool     `json:"loopback"`
	Correct    bool     `json:"correct"`
	Attempted  uint64   `json:"attempted"`
	Failed     uint64   `json:"failed"`
	Problems   []string `json:"problems,omitempty"`
	Metrics    []metric `json:"metrics"`
}

func newRunResult(rep *report, commit string, metrics []metric) runResult {
	return runResult{
		Workload: rep.cfg.workload, Traced: rep.cfg.trace, Seed: rep.cfg.seed, Seconds: rep.cfg.seconds,
		Commit: commit, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		// Every connection any workload opens is to 127.0.0.1.
		Loopback: true,
		Correct:  rep.correct(), Attempted: rep.attempted, Failed: rep.failed,
		Problems: append(append([]string(nil), rep.violations...), rep.problems...),
		Metrics:  metrics,
	}
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

// writeResult merges res into the file at path.
func writeResult(path string, res runResult) error {
	rf, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		rf = &resultFile{Schema: resultSchema}
	} else if err != nil {
		return err
	}
	kept := rf.Results[:0]
	for _, r := range rf.Results {
		if r.Workload != res.Workload || r.Traced != res.Traced {
			kept = append(kept, r)
		}
	}
	rf.Results = append(kept, res)
	sort.SliceStable(rf.Results, func(i, j int) bool {
		a, b := rf.Results[i], rf.Results[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		return !a.Traced && b.Traced
	})
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareResults applies each metric's own bound — the end-to-end ones and
// the compareOnly ones — to the untraced results the two files share, b
// against a. A run that was not correct, or a larger share of failed ops in
// b, is a regression whatever the timings say; runs of different lengths are
// not compared at all. It prints one row per workload and metric and reports
// whether every row is within its bound.
func compareResults(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	index := func(rf *resultFile) map[string]runResult {
		m := make(map[string]runResult)
		for _, r := range rf.Results {
			if !r.Traced {
				m[r.Workload] = r
			}
		}
		return m
	}
	ia, ib := index(a), index(b)
	ok, rows := true, 0
	row := func(wl, name string, va, vb, limit float64, unit string, verdict string) {
		rows++
		if verdict == "WORSE" {
			ok = false
		}
		change := "      n/a"
		if va != 0 {
			change = fmt.Sprintf("%+8.2f%%", 100*(vb-va)/va)
		}
		fmt.Fprintf(out, "%-10s %-18s %14.4f %14.4f %s %12.4g %-5s %s\n", wl, name, va, vb, change, limit, unit, verdict)
	}
	fmt.Fprintf(out, "%-10s %-18s %14s %14s %9s %12s %-5s %s\n", "workload", "metric", "a", "b", "change", "may lose", "", "verdict")
	for _, wl := range workloadNames {
		ra, inA := ia[wl]
		rb, inB := ib[wl]
		if !inA || !inB {
			continue
		}
		if ra.Seconds != rb.Seconds {
			return false, fmt.Errorf("%s: a measured for %v s and b for %v s: not like for like", wl, ra.Seconds, rb.Seconds)
		}
		for i, r := range []runResult{ra, rb} {
			if !r.Correct {
				rows++
				ok = false
				fmt.Fprintf(out, "%-10s run %c was not correct: %v\n", wl, 'a'+i, r.Problems)
			}
		}
		fa := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		fb := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		row(wl, "failed_share", fa, fb, 0, "", compareVerdict(fb > fa, false))
		ma, mb := metricsByName(ra), metricsByName(rb)
		for _, def := range append(append([]metricDef(nil), endToEnd...), compareOnly...) {
			va, inA := ma[def.name]
			vb, inB := mb[def.name]
			if !inA || !inB {
				continue
			}
			// worse is by how much b is worse than a, in the metric's unit
			// and whatever its direction.
			worse, limit := vb.Value-va.Value, def.bound*va.Value
			if def.higher {
				worse = -worse
			}
			if def.name == "setup_s" {
				limit = max(limit, setupFloor)
			}
			row(wl, def.name, va.Value, vb.Value, limit, def.unit, compareVerdict(worse > limit, def.unresolved))
		}
	}
	if rows == 0 {
		return false, errors.New("the two files share no untraced workload result")
	}
	return ok, nil
}

func compareVerdict(worse, unresolved bool) string {
	switch {
	case !worse:
		return "ok"
	case unresolved:
		return "unresolved"
	}
	return "WORSE"
}

func metricsByName(r runResult) map[string]metric {
	m := make(map[string]metric, len(r.Metrics))
	for _, v := range r.Metrics {
		m[v.Name] = v
	}
	return m
}
