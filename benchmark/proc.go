package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// procSnap is a point-in-time reading of the process's own cost counters;
// two of them bracket a phase.
type procSnap struct {
	wall    time.Duration
	cpu     time.Duration // user + system, whole process (generator included)
	gcCPU   float64       // seconds the collector used
	mallocs uint64
	bytes   uint64
}

var gcSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func snapProc() procSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := procSnap{wall: time.Duration(nowNs()), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // stops the world: phase boundaries only
	metrics.Read(gcSample)
	s.mallocs, s.bytes = ms.Mallocs, ms.TotalAlloc
	if gcSample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcSample[0].Value.Float64()
	}
	return s
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM); 0 when
// /proc is not available.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				return kb / 1024
			}
		}
	}
	return 0
}
