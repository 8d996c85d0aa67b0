package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"safeweb/internal/label"
)

// Every op carries a 16-byte stamp at the start of its body: its sequence
// number and the time it was due (nanoseconds since epoch, 0 for the
// untimed warm-up and saturation phases). The stamp rides in the body so
// that no attribute is added to events whose point is to have none.
const stampLen = 16

func putStamp(b []byte, seq uint64, due int64) {
	binary.BigEndian.PutUint64(b[0:8], seq)
	binary.BigEndian.PutUint64(b[8:16], uint64(due))
}

func getStamp(b []byte) (seq uint64, due int64, ok bool) {
	if len(b) < stampLen {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(b[0:8]), int64(binary.BigEndian.Uint64(b[8:16])), true
}

// labelCheckEvery is how often a receiver re-derives clearance from the
// labels the delivered event really carries. Every delivery is checked
// against the class the seed assigned to its sequence number; the full
// label check is sampled because at two microseconds per delivery it would
// otherwise be a tenth of what is being measured.
const labelCheckEvery = 16

// receiver is the checking and timing state of one subscription. Its
// callback runs on one goroutine (the engine gives every subscription its
// own worker; a bare client delivers on its read loop), which owns
// everything here except count.
type receiver struct {
	name  string
	privs *label.Privileges
	// denied, when set, marks the schedule entries this receiver must
	// never be delivered.
	denied *[scheduleLen]bool
	lat    *windowed

	// count is read by the generator while the run is live (back-pressure,
	// drain); the rest is read only after teardown.
	count atomic.Uint64

	lastSeq    uint64
	dup        uint64
	misordered uint64
	badStamp   uint64
	violations []string
}

func newReceiver(name string, privs *label.Privileges, windows int) *receiver {
	return &receiver{name: name, privs: privs, lat: newWindowed(windows)}
}

// observe records one delivery: order, duplicate, clearance and latency
// accounting. labels are what the delivered event carries; the body is
// only read, never kept.
func (r *receiver) observe(env *runEnv, body []byte, labels label.Set, now int64) (seq uint64, due int64) {
	seq, due, ok := getStamp(body)
	if !ok {
		r.badStamp++
		r.count.Add(1)
		return 0, 0
	}
	switch {
	case seq == r.lastSeq:
		r.dup++
	case seq < r.lastSeq:
		r.misordered++
	default:
		r.lastSeq = seq
	}
	if r.denied != nil && r.denied[seq%scheduleLen] {
		r.violate("op %d delivered to %s, which the schedule does not clear for it", seq, r.name)
	} else if seq%labelCheckEvery == 0 {
		if bad, found := uncleared(r.privs, labels); found {
			r.violate("op %d delivered to %s carrying %s, which it is not cleared for", seq, r.name, bad)
		}
	}
	if due != 0 {
		r.lat.record(env.window(due), now-due)
	}
	r.count.Add(1)
	return seq, due
}

func (r *receiver) violate(format string, args ...any) {
	if len(r.violations) < 8 { // enough to diagnose; a broken run would otherwise hold millions
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	} else {
		r.violations[7] = "(further violations omitted)"
	}
}

// uncleared returns a confidentiality label in labels the privileges do
// not clear, if there is one: the paper's safety property is that no
// principal ever observes such a label.
func uncleared(privs *label.Privileges, labels label.Set) (label.Label, bool) {
	for l := range labels {
		if l.Kind() == label.Confidentiality && !privs.Has(label.Clearance, l) {
			return l, true
		}
	}
	return label.Label{}, false
}

// settle compares what the receiver saw with the number of deliveries the
// seed says it must have seen, and returns how many ops that leaves failed:
// every missing, surplus, duplicated or mis-ordered delivery is one.
func (r *receiver) settle(expected uint64) (failed uint64, problems []string) {
	got := r.count.Load()
	good := got - min(got, r.dup+r.misordered+r.badStamp)
	if good < expected {
		failed += expected - good
		problems = append(problems, fmt.Sprintf("%s: %d of %d deliveries missing", r.name, expected-good, expected))
	} else if good > expected {
		failed += good - expected
		problems = append(problems, fmt.Sprintf("%s: %d deliveries beyond the %d expected", r.name, good-expected, expected))
	}
	for _, c := range []struct {
		n    uint64
		what string
	}{{r.dup, "duplicated"}, {r.misordered, "out of order"}, {r.badStamp, "without a stamp"}} {
		if c.n > 0 {
			failed += c.n
			problems = append(problems, fmt.Sprintf("%s: %d deliveries %s", r.name, c.n, c.what))
		}
	}
	return failed, problems
}

// counterCheck accumulates exact comparisons between what the program's
// public Stats() report and what the seed's schedule predicts.
type counterCheck struct {
	mismatches []string
}

func (c *counterCheck) equal(name string, got, want uint64) {
	if got != want {
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s = %d, expected %d", name, got, want))
	}
}

func (c *counterCheck) atMost(name string, got, limit uint64) {
	if got > limit {
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s = %d, expected at most %d", name, got, limit))
	}
}

func (c *counterCheck) atLeast(name string, got, limit uint64) {
	if got < limit {
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s = %d, expected at least %d", name, got, limit))
	}
}
