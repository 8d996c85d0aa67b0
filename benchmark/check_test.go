package main

import (
	"strings"
	"testing"
	"time"

	"safeweb/internal/label"
)

func stamped(seq uint64) []byte {
	b := make([]byte, stampLen)
	putStamp(b, seq, 0)
	return b
}

func testEnv() *runEnv {
	env := &runEnv{}
	env.ph = planPhases(1, time.Second)
	return env
}

// TestReceiverCatchesInjectedFaults feeds a receiver deliveries with one
// fault each and checks that every fault is caught and counted.
func TestReceiverCatchesInjectedFaults(t *testing.T) {
	env := testEnv()
	cleared := label.NewSet(conf("mdt/7"))
	privs := clearance("mdt/7")
	feed := func(seqs ...uint64) *receiver {
		r := newReceiver("r", privs, 1)
		for _, s := range seqs {
			r.observe(env, stamped(s), cleared, 0)
		}
		return r
	}

	t.Run("clean", func(t *testing.T) {
		failed, problems := feed(1, 2, 3, 4).settle(4)
		if failed != 0 || len(problems) != 0 {
			t.Errorf("failed=%d problems=%v, want none", failed, problems)
		}
	})
	t.Run("missing", func(t *testing.T) {
		failed, problems := feed(1, 2, 4).settle(4)
		if failed != 1 || !strings.Contains(strings.Join(problems, ";"), "missing") {
			t.Errorf("failed=%d problems=%v, want one missing delivery", failed, problems)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		failed, problems := feed(1, 2, 2, 3, 4).settle(4)
		if failed != 1 || !strings.Contains(strings.Join(problems, ";"), "duplicated") {
			t.Errorf("failed=%d problems=%v, want one duplicate", failed, problems)
		}
	})
	t.Run("out of order", func(t *testing.T) {
		failed, problems := feed(1, 3, 2, 4).settle(4)
		if failed < 1 || !strings.Contains(strings.Join(problems, ";"), "out of order") {
			t.Errorf("failed=%d problems=%v, want a mis-ordered delivery", failed, problems)
		}
	})
	t.Run("surplus", func(t *testing.T) {
		failed, _ := feed(1, 2, 3, 4, 5).settle(4)
		if failed != 1 {
			t.Errorf("failed=%d, want 1 for a delivery nobody published", failed)
		}
	})
	t.Run("no stamp", func(t *testing.T) {
		r := feed(1, 2)
		r.observe(env, []byte("short"), cleared, 0)
		if failed, _ := r.settle(3); failed == 0 {
			t.Error("a delivery without a stamp must count as failed")
		}
	})
}

// TestReceiverCatchesMisclearedDelivery checks both halves of the safety
// check: a delivery the schedule forbids, and a delivery whose labels the
// receiver's principal is not cleared for.
func TestReceiverCatchesMisclearedDelivery(t *testing.T) {
	env := testEnv()
	privs := clearance("mdt/7", "patient/*")

	var denied [scheduleLen]bool
	denied[5] = true
	r := newReceiver("guest", privs, 1)
	r.denied = &denied
	r.observe(env, stamped(4), label.NewSet(conf("mdt/7")), 0)
	if len(r.violations) != 0 {
		t.Fatalf("a permitted delivery was flagged: %v", r.violations)
	}
	r.observe(env, stamped(5), label.NewSet(conf("mdt/7")), 0)
	if len(r.violations) != 1 {
		t.Fatalf("a delivery the schedule forbids was not flagged: %v", r.violations)
	}

	// Sequence numbers on the sampling period get the full label check.
	r = newReceiver("guest", privs, 1)
	r.observe(env, stamped(labelCheckEvery), label.NewSet(conf("mdt/7"), conf("patient/1")), 0)
	if len(r.violations) != 0 {
		t.Fatalf("cleared labels were flagged: %v", r.violations)
	}
	r.observe(env, stamped(2*labelCheckEvery), label.NewSet(conf("mdt/9"), conf("patient/1")), 0)
	if len(r.violations) != 1 || !strings.Contains(r.violations[0], "mdt/9") {
		t.Fatalf("an uncleared label was not flagged: %v", r.violations)
	}
	// Integrity labels do not restrict who may receive.
	if l, bad := uncleared(privs, label.NewSet(label.Int(authority+"/mdt"))); bad {
		t.Errorf("integrity label %s flagged as uncleared", l)
	}
}

func TestCounterCheck(t *testing.T) {
	var c counterCheck
	c.equal("a", 3, 3)
	c.atMost("b", 3, 5)
	c.atLeast("c", 5, 3)
	if len(c.mismatches) != 0 {
		t.Fatalf("unexpected mismatches: %v", c.mismatches)
	}
	c.equal("a", 3, 4)
	c.atMost("b", 6, 5)
	c.atLeast("c", 2, 3)
	if len(c.mismatches) != 3 {
		t.Fatalf("mismatches = %v, want three", c.mismatches)
	}
}
