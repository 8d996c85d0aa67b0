package main

import (
	"runtime"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark takes; nowNs is monotonic
// nanoseconds since it, small enough to travel in an event body.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// pace runs an open loop: op i is due at start + i/rate and is issued as
// soon as the generator is awake at or after that time — never before, and
// never skipped, so a stall in issue delays the ops behind it and their
// latency, timed from the due time, includes that wait. The generator
// sleeps to the next due time; it never spins (a spin loop steals a core
// from the system under test on a two-core box).
//
// It returns the number of ops issued and the distribution of how late the
// generator issued them.
func pace(rate float64, dur time.Duration, issue func(i int, due int64)) (int, *hist) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	late := new(hist)
	interval := float64(time.Second) / rate
	start := nowNs()
	end := start + int64(dur)
	i := 0
	for {
		due := start + int64(float64(i)*interval)
		if due >= end {
			return i, late
		}
		now := nowNs()
		if due > now {
			ts := syscall.NsecToTimespec(due - now)
			_ = syscall.Nanosleep(&ts, nil)
			now = nowNs()
		}
		late.record(now - due)
		issue(i, due)
		i++
	}
}
