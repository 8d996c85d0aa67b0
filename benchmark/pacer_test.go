package main

import (
	"testing"
	"time"
)

// TestPaceDueTimes checks the open loop's accounting: due times are evenly
// spaced whatever the issue function does, no op is issued before it is
// due, none is skipped, and a stall shows up as lateness of the ops behind
// it.
func TestPaceDueTimes(t *testing.T) {
	const rate, dur = 1000.0, 300 * time.Millisecond
	var dues, issuedAt []int64
	n, late := pace(rate, dur, func(i int, due int64) {
		dues = append(dues, due)
		issuedAt = append(issuedAt, nowNs())
		if i == 100 {
			time.Sleep(25 * time.Millisecond) // the system stalls once
		}
	})
	if n != 300 || len(dues) != 300 {
		t.Fatalf("issued %d ops (%d recorded), want 300", n, len(dues))
	}
	for i := range dues {
		if want := dues[0] + int64(i)*int64(time.Millisecond); dues[i] != want {
			t.Fatalf("op %d due at %d, want %d: due times must not drift with the stall", i, dues[i], want)
		}
		if issuedAt[i] < dues[i] {
			t.Fatalf("op %d issued %d ns before it was due", i, dues[i]-issuedAt[i])
		}
	}
	// The ops queued behind the stall are late by what is left of it.
	if got := issuedAt[101] - dues[101]; got < int64(20*time.Millisecond) {
		t.Errorf("op 101 was %v late, want about 24ms", time.Duration(got))
	}
	if late.n != 300 {
		t.Errorf("lateness samples = %d, want 300", late.n)
	}
	if max := time.Duration(late.max); max < 20*time.Millisecond || max > 200*time.Millisecond {
		t.Errorf("largest lateness = %v, want about 24ms", max)
	}
	if p50 := time.Duration(late.quantile(0.5)); p50 > 5*time.Millisecond {
		t.Errorf("median lateness = %v: the generator should be on time outside the stall", p50)
	}
}

// TestPaceSleeps checks that the generator sleeps between ops instead of
// spinning: a spin loop would burn the whole wall time in CPU.
func TestPaceSleeps(t *testing.T) {
	c0 := snapProc()
	n, _ := pace(100, 400*time.Millisecond, func(int, int64) {})
	c1 := snapProc()
	if n != 40 {
		t.Fatalf("issued %d ops, want 40", n)
	}
	if cpu, wall := c1.cpu-c0.cpu, c1.wall-c0.wall; cpu > wall/2 {
		t.Errorf("pacing 40 ops over %v used %v of CPU: the generator must not spin", wall, cpu)
	}
}
