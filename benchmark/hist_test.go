package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistQuantiles checks the histogram against a sorted reference: every
// quantile must be within 1 % of the exact order statistic, for values
// spread over six orders of magnitude.
func TestHistQuantiles(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	var h hist
	vals := make([]float64, 200000)
	for i := range vals {
		v := int64(math.Exp(rnd.Float64()*14) * 100) // 100 ns .. 120 ms
		vals[i] = float64(v)
		h.record(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want := vals[int(q*float64(len(vals)-1))]
		got := h.quantile(q)
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("q=%v: got %.1f, reference %.1f (%.2f %% off)", q, got, want, 100*math.Abs(got-want)/want)
		}
	}
	if h.n != uint64(len(vals)) {
		t.Errorf("count = %d, want %d", h.n, len(vals))
	}
}

func TestHistBucketsAreNarrow(t *testing.T) {
	for i := histSub; i < histBuckets; i++ {
		low, width := histBounds(i)
		if width/low > 0.01 {
			t.Fatalf("bucket %d: width %v is %.2f %% of its lower edge %v", i, width, 100*width/low, low)
		}
		if got := histIndex(int64(low)); got != i {
			t.Fatalf("bucket %d: lower edge %v indexes to %d", i, low, got)
		}
		if got := histIndex(int64(low + width - 1)); got != i {
			t.Fatalf("bucket %d: upper edge %v indexes to %d", i, low+width-1, got)
		}
	}
	if histIndex(-5) != 0 || histIndex(1<<62) != histBuckets-1 {
		t.Fatal("out-of-range values must clamp to the first and last bucket")
	}
}

func TestHistEmptyAndMerge(t *testing.T) {
	var a, b hist
	if a.quantile(0.99) != 0 {
		t.Error("an empty histogram must report 0")
	}
	for i := int64(1); i <= 1000; i++ {
		a.record(i * 1000)
		b.record(i * 2000)
	}
	a.merge(&b)
	a.merge(nil)
	if a.n != 2000 || a.max != 2000000 {
		t.Errorf("merged n=%d max=%d", a.n, a.max)
	}
}

// TestWindowedTail checks that the windowed tail is the median of the
// per-window percentiles: one window with a stall moves a whole-run p99
// but not the reported one.
func TestWindowedTail(t *testing.T) {
	parts := []*windowed{newWindowed(5), newWindowed(5)}
	for win := 0; win < 5; win++ {
		for i := 0; i < 2000; i++ {
			v := int64(100000 + i*50) // 100 .. 200 us
			if win == 3 && i >= 1850 {
				v = 50000000 // a 50 ms stall in window 3 only
			}
			parts[i%2].record(win, v)
		}
	}
	// Samples stamped outside the phase fold into the edge windows.
	parts[0].record(-1, 150000)
	parts[0].record(9, 150000)
	wins := mergeWindows(parts)
	p99, n := windowQuantileMedian(wins, 0.99)
	if n != 5 {
		t.Fatalf("windows = %d, want 5", n)
	}
	if p99 < 190000 || p99 > 201000 {
		t.Errorf("windowed p99 = %.0f ns, want about 199000 (the stall must not decide it)", p99)
	}
	if whole := mergeAll(wins).quantile(0.99); whole < 1000000 {
		t.Errorf("whole-run p99 = %.0f ns: the stall should dominate it, or the test shows nothing", whole)
	}
	if got := mergeAll(wins).n; got != 10002 {
		t.Errorf("samples = %d, want 10002", got)
	}
}
