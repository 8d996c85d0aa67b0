package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of non-negative durations in nanoseconds:
// 128 buckets per power of two, so no bucket is wider than 0.79 % of its
// lower edge and a 5 % shift in a percentile is never quantised away.
// Values up to 127 ns are exact; values at or above 2^histMaxExp ns
// (≈ 275 s, past every deadline the benchmark has) land in the last bucket.
//
// A hist is owned by one goroutine; merge it into another after the owner
// has stopped.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxExp  = 38
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	if v >= 1<<histMaxExp {
		return histBuckets - 1
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return (shift+1)<<histSubBits | int(v>>shift)&(histSub-1)
}

// histBounds returns the lower edge and width of bucket i.
func histBounds(i int) (low, width float64) {
	group, sub := i>>histSubBits, i&(histSub-1)
	if group == 0 {
		return float64(sub), 1
	}
	return float64(uint64(histSub+sub) << (group - 1)), float64(uint64(1) << (group - 1))
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 ≤ q ≤ 1), interpolating by rank inside
// the bucket that holds it. An empty histogram yields 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); rank < next {
			low, width := histBounds(i)
			v := low + width*(rank-cum+0.5)/float64(c)
			return math.Min(v, float64(h.max))
		} else {
			cum = next
		}
	}
	return float64(h.max)
}

// windowed keeps one histogram per fixed-length window of a phase, so a
// tail percentile can be reported as the median of the per-window values
// instead of one whole-run value that a single stall decides.
type windowed struct {
	wins []*hist
}

func newWindowed(n int) *windowed { return &windowed{wins: make([]*hist, n)} }

// record adds v to window w; samples outside the phase's windows are
// folded into the nearest one so no completion is lost from the counts.
func (w *windowed) record(win int, v int64) {
	if win < 0 {
		win = 0
	}
	if win >= len(w.wins) {
		win = len(w.wins) - 1
	}
	if w.wins[win] == nil {
		w.wins[win] = new(hist)
	}
	w.wins[win].record(v)
}

// mergeWindows folds several goroutines' windowed recorders into one
// histogram per window.
func mergeWindows(parts []*windowed) []*hist {
	if len(parts) == 0 {
		return nil
	}
	out := make([]*hist, len(parts[0].wins))
	for i := range out {
		out[i] = new(hist)
		for _, p := range parts {
			out[i].merge(p.wins[i])
		}
	}
	return out
}

// windowQuantileMedian is the median, over the windows that hold samples,
// of each window's q-quantile, with the number of windows it used.
func windowQuantileMedian(wins []*hist, q float64) (float64, int) {
	var vals []float64
	for _, h := range wins {
		if h != nil && h.n > 0 {
			vals = append(vals, h.quantile(q))
		}
	}
	return median(vals), len(vals)
}

func mergeAll(wins []*hist) *hist {
	all := new(hist)
	for _, h := range wins {
		all.merge(h)
	}
	return all
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
