//go:build !race

// The race detector drops pooled events at random, so allocation counts
// are only exact without it.

package event

import "testing"

// TestDeliverySteadyStateAllocs pins the delivery-alloc diet for the
// in-process path: with the pool warm and the consumer releasing, an
// attr-carrying delivery allocates nothing in steady state.
func TestDeliverySteadyStateAllocs(t *testing.T) {
	ev := New("/t", map[string]string{"k": "v", "k2": "v2"})
	ev.Freeze()
	ev.Delivery().Release() // warm the pool
	avg := testing.AllocsPerRun(200, func() {
		ev.Delivery().Release()
	})
	if avg > 0 {
		t.Errorf("Delivery+Release allocs/op = %g, want 0", avg)
	}
}
