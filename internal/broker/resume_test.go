package broker

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// resumeCase is one row of TestDurableResumeExactSuffix's table.
type resumeCase struct {
	overflow OverflowPolicy
	credit   int    // the SUBSCRIBE's credit window; 0 sends none
	acks     string // none, each, prefix or stale
	point    string // where the first session disconnects: start, mid or end
	seed     int64
}

// TestDurableResumeExactSuffix: a consumer group disconnects and resumes
// twice, then reads to the end. On every resume it receives every record
// at or above the group's mark that its clearance admits, in order, and
// none below the mark; the mark an ack persists is one past the acked
// delivery's record. Across the sessions no record it was cleared for
// throughout is lost, and every record it receives twice is one it had
// not acked. The table crosses the overflow policy, a credit window or
// none, the ack pattern and the first disconnect point; a seed draws the
// history, the labels, the clearance of each session and the second
// disconnect point. Live deliveries on another subscription of the same
// session meet a four-frame write queue, so every policy acts beside the
// replay frames.
func TestDurableResumeExactSuffix(t *testing.T) {
	seed := int64(0)
	for _, overflow := range []OverflowPolicy{OverflowBlock, OverflowDropNewest, OverflowDisconnect} {
		for _, credit := range []int{0, 2} {
			for _, acks := range []string{"none", "each", "prefix", "stale"} {
				for _, point := range []string{"start", "mid", "end"} {
					seed++
					rc := resumeCase{overflow, credit, acks, point, seed}
					t.Run(fmt.Sprintf("%v/credit=%d/acks=%s/disconnect=%s", overflow, credit, acks, point), func(t *testing.T) {
						runResume(t, rc)
					})
				}
			}
		}
	}
}

// resumeSession is what one session of a group received and acked.
type resumeSession struct {
	seqs  []int // durable deliveries, in arrival order
	acked int   // the highest count acked
}

func runResume(t *testing.T, rc resumeCase) {
	const (
		topic = "/d/resume"
		noise = "/live/noise"
		// noisePerSession stays below overflowEvictAfter, so a session is
		// never evicted for the live deliveries it drops.
		noisePerSession = overflowEvictAfter - 2
	)
	rng := rand.New(rand.NewSource(rc.seed))
	p := testPolicy()
	b := New(p)
	srv, err := NewServer("127.0.0.1:0", b, ServerConfig{
		Logf:          t.Logf,
		Durable:       []string{topic},
		JournalDir:    t.TempDir(),
		Overflow:      rc.overflow,
		WriteQueueLen: 4,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		b.Close()
	})
	j, err := srv.journals.open(topic)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}

	// Record i is seq i at journal offset i. One in four carries mdt/9,
	// which "cleared" holds only in the sessions the seed grants it.
	mdt9 := label.MustParsePattern("label:conf:ecric.org.uk/mdt/9")
	var hidden []bool
	publish := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			var labels []label.Label
			kind := rng.Intn(4)
			switch kind {
			case 0:
				labels = []label.Label{label.Conf("ecric.org.uk/mdt/9")}
			case 1:
				labels = []label.Label{label.Conf("ecric.org.uk/mdt/7")}
			}
			ev := event.New(topic, map[string]string{"seq": strconv.Itoa(len(hidden))}, labels...)
			if err := b.Publish("producer", ev); err != nil {
				t.Fatalf("Publish: %v", err)
			}
			hidden = append(hidden, kind == 0)
		}
	}

	const sessions = 3
	var history []resumeSession
	cleared9 := make([]bool, sessions)
	for s := 0; s < sessions; s++ {
		final := s == sessions-1
		publish(2 + rng.Intn(6))
		if cleared9[s] = rng.Intn(3) == 0; cleared9[s] {
			p.Grant("cleared", label.Clearance, mdt9)
		} else {
			p.Revoke("cleared", label.Clearance, mdt9)
		}
		mark := j.Acked("g")

		c := dialTap(t, srv.Addr(), "cleared")
		c.send(stomp.CmdSubscribe, stomp.HdrID, "l-0", stomp.HdrDestination, noise, stomp.HdrReceipt, "r-live")
		c.next(stomp.CmdReceipt)
		sub := []string{stomp.HdrID, "d-0", stomp.HdrDestination, topic, stomp.HdrGroup, "g"}
		if rc.credit > 0 {
			sub = append(sub, stomp.HdrCredit, strconv.Itoa(rc.credit))
		}
		c.send(stomp.CmdSubscribe, sub...)
		// Records appended while the feed runs reach it through the tail.
		publish(rng.Intn(4))
		var want []int
		for off := int(mark); off < len(hidden); off++ {
			if !hidden[off] || cleared9[s] {
				want = append(want, off)
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < noisePerSession; i++ {
				if b.Publish("producer", event.New(noise, map[string]string{"seq": "live"})) != nil {
					return
				}
			}
		}()

		// Read up to the disconnect point, granting credit and acking as
		// the pattern says; then ack the session's last count and take a
		// receipt, which follows every ack's effect and every frame the
		// broker queued before it.
		stop := len(want)
		switch {
		case final:
		case s == 0 && rc.point == "start":
			stop = 0
		case s == 0 && rc.point == "mid":
			stop = len(want) / 2
		case s > 0:
			stop = rng.Intn(len(want) + 1)
		}
		var got resumeSession
		ack := func(k int, grant bool) {
			kv := []string{stomp.HdrSubscription, "d-0", stomp.HdrOffset, strconv.Itoa(k)}
			if grant {
				kv = append(kv, stomp.HdrCredit, strconv.Itoa(len(got.seqs)+rc.credit))
			}
			c.send(stomp.CmdAck, kv...)
			got.acked = max(got.acked, k)
		}
		// take handles one frame; it reports whether it was the receipt
		// ending the session. Credit is granted only before that receipt
		// is asked for.
		granting := true
		take := func(f *stomp.Frame) bool {
			switch {
			case f.Command == stomp.CmdReceipt:
				return f.Header(stomp.HdrReceiptID) == "end"
			case f.Command != stomp.CmdMessage:
				t.Fatalf("session %d: read %s: %v", s, f.Command, f)
			case f.Header(stomp.HdrSubscription) != "d-0":
				return false
			}
			seq, err := strconv.Atoi(f.Header("seq"))
			if err != nil {
				t.Fatalf("session %d: MESSAGE without numeric seq: %v", s, f)
			}
			got.seqs = append(got.seqs, seq)
			k := 0
			if rc.acks == "each" {
				k = len(got.seqs)
			}
			if granting && (k > 0 || rc.credit > 0) {
				ack(k, rc.credit > 0)
			}
			return false
		}
		for len(got.seqs) < stop {
			take(c.read())
		}
		granting = false
		n := len(got.seqs)
		switch {
		case final:
			ack(n, false)
		case rc.acks == "prefix":
			ack(rng.Intn(n+1), false)
		case rc.acks == "stale":
			ack(n, false)
			ack(n/2, false)
			ack(n, false)
		}
		c.send(stomp.CmdUnsubscribe, stomp.HdrID, "none", stomp.HdrReceipt, "end")
		for !take(c.read()) {
		}
		_ = c.conn.Close()
		wg.Wait()

		// Received: a prefix of the suffix from the mark, all of it at the
		// end. Persisted: exactly one past the last acked delivery.
		if len(got.seqs) > len(want) || !sameSeqs(got.seqs, want[:len(got.seqs)]) || (final && len(got.seqs) != len(want)) {
			t.Fatalf("session %d from mark %d: received %v, want a prefix of %v", s, mark, got.seqs, want)
		}
		wantMark := mark
		if got.acked > 0 {
			wantMark = int64(got.seqs[got.acked-1]) + 1
		}
		if m := j.Acked("g"); m != wantMark {
			t.Fatalf("session %d: acked %d of %v; mark %d, want %d", s, got.acked, got.seqs, m, wantMark)
		}
		history = append(history, got)
	}

	// Exactly once, but for the unacked: a record acked in one session is
	// never received again, and a record the group was cleared for in every
	// session is acked in some session (the last one acks all it received).
	acked := make(map[int]bool)
	for s, h := range history {
		for i, seq := range h.seqs {
			if acked[seq] {
				t.Errorf("record %d received again in session %d after it was acked", seq, s)
			}
			if i < h.acked {
				acked[seq] = true
			}
		}
	}
	alwaysCleared9 := true
	for _, c9 := range cleared9 {
		alwaysCleared9 = alwaysCleared9 && c9
	}
	for off, h := range hidden {
		if (!h || alwaysCleared9) && !acked[off] {
			t.Errorf("record %d, cleared in every session, was never received", off)
		}
	}
}
