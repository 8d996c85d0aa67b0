package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
)

// traceEvery is the sampling period of the traced run: ops whose sequence
// number is a multiple of it record spans. The layer suite's small
// scenarios trace every op instead.
const traceEvery = 64

// span is one timed interval at a boundary the benchmark can see from
// outside the program. Spans of one op share Op; Parent names the span of
// the same op that caused this one ("" for the op's root).
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rawSpan is a span as the buffer holds it: names as indexes into
// spanNames, so the buffer has no pointers and the collector never scans
// its megabytes (with strings in it, every GC cycle of a traced run marked
// the whole buffer and the paced phase's tail latency grew several-fold).
type rawSpan struct {
	op           uint64
	start, end   int64
	name, parent uint8
}

// spanNames are the boundaries the workloads record. Index 0 is "no
// parent".
var spanNames = []string{"",
	"gen.late", "client.publish", "wire", "callback", // fanout
	"wire.in", "relay.callback", "ctx.store", "ctx.publish", "wire.out", "sink.callback", // pipeline
	"journal+wire",                                          // durable
	"serve", "auth", "priv_fetch", "handler", "label_check", // portal
}

func spanIndex(name string) uint8 {
	for i, n := range spanNames {
		if n == name {
			return uint8(i)
		}
	}
	panic("benchmark: span name " + name + " is not in spanNames")
}

// tracer collects spans into a buffer allocated before the run, so a
// traced op pays one atomic add and one struct store. A nil *tracer
// records nothing, which is how untraced runs skip every span site.
type tracer struct {
	every   uint64
	buf     []rawSpan
	next    atomic.Int64
	dropped atomic.Int64
}

func newTracer(every uint64, capacity int) *tracer {
	return &tracer{every: every, buf: make([]rawSpan, capacity)}
}

// sampled reports whether op seq records spans.
func (t *tracer) sampled(seq uint64) bool { return t != nil && seq%t.every == 0 }

func (t *tracer) add(op uint64, name, parent string, start, end int64) {
	if t == nil {
		return
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[i] = rawSpan{op: op, name: spanIndex(name), parent: spanIndex(parent), start: start, end: end}
}

// spans returns what was recorded; call it only after every recording
// goroutine has stopped.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	n := min(t.next.Load(), int64(len(t.buf)))
	out := make([]span, n)
	for i, r := range t.buf[:n] {
		out[i] = span{Op: r.op, Name: spanNames[r.name], Parent: spanNames[r.parent], Start: r.start, End: r.end}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans() {
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat summarises the spans of one name: how long they took, and how
// long they took excluding the part their child spans cover.
type spanStat struct {
	name     string
	total    hist
	self     hist
	hasChild bool
}

// summarise groups spans by name. A span's self time is its duration minus
// the union of the intervals its children (same op, Parent == its name)
// cover inside it.
func summarise(spans []span) []*spanStat {
	type key struct {
		op     uint64
		parent string
	}
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	stats := make(map[string]*spanStat)
	for _, s := range spans {
		st := stats[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			stats[s.Name] = st
		}
		dur := s.End - s.Start
		st.total.record(dur)
		kids := children[key{s.Op, s.Name}]
		if len(kids) > 0 {
			st.hasChild = true
		}
		st.self.record(dur - covered(s, kids))
	}
	out := make([]*spanStat, 0, len(stats))
	for _, st := range stats {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered is the length of the union of the kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	pos := s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, pos), min(k.End, s.End)
		if hi > lo {
			sum += hi - lo
			pos = hi
		}
	}
	return sum
}
