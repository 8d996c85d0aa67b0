package broker

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// mdt7 is the label testPolicy clears "cleared" for.
var mdt7 = label.MustParsePattern("label:conf:ecric.org.uk/mdt/7")

// TestCreditRevokeStopsParkedDeliveries pins when a revoke bites on the
// live path: a parked delivery is not yet decided, so a grant that drains
// the ring after the subscriber's clearance was revoked delivers none of
// it. Each refusal is counted in RevokedDeliveries (not FilteredByLabel,
// which counts fan-out decisions), the ring empties, and the credit the
// refused deliveries never claimed is still there for the next one. Nor is
// a delivery whose publisher was waiting for space in the full ring: the
// grant's wakeup decides it again.
func TestCreditRevokeStopsParkedDeliveries(t *testing.T) {
	t.Run("parked", func(t *testing.T) { testCreditRevoke(t, 5, false) })
	t.Run("waiting for ring space", func(t *testing.T) { testCreditRevoke(t, creditPending, true) })
}

// testCreditRevoke parks the given number of labelled deliveries behind a
// credit window of one, plus one more whose publisher waits for ring space
// when waiting is set, then revokes and grants.
func testCreditRevoke(t *testing.T, parkedN int, waiting bool) {
	const topic = "/c/revoke"
	p := testPolicy()
	b := New(p)
	srv, err := NewServer("127.0.0.1:0", b, ServerConfig{
		Logf: t.Logf,
		OnDeliveryError: func(_ uint64, _ string, _ *event.Event, err error) {
			t.Errorf("unexpected delivery drop: %v", err)
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		b.Close()
	})

	conn, rd := rawDurableConn(t, srv.Addr(), "cleared")
	rawSubscribe(t, conn, rd, topic, "c-0", map[string]string{stomp.HdrCredit: "1"})
	publish := func(seq int, labels ...label.Label) {
		t.Helper()
		if err := b.Publish("producer", event.New(topic, map[string]string{"seq": strconv.Itoa(seq)}, labels...)); err != nil {
			t.Errorf("Publish seq %d: %v", seq, err)
		}
	}
	// Window 1: seq 0 goes out, the next parkedN park.
	for seq := 0; seq <= parkedN; seq++ {
		publish(seq, label.Conf("ecric.org.uk/mdt/7"))
	}
	if seq, _ := rawReadOffsetMessage(t, conn, rd); seq != 0 {
		t.Fatalf("first delivery seq %d, want 0", seq)
	}
	parked := func() int {
		ss := srv.SessionStats()
		if len(ss) != 1 {
			t.Fatalf("SessionStats = %d sessions, want 1", len(ss))
		}
		return ss[0].CreditParked
	}
	if got := parked(); got != parkedN {
		t.Fatalf("CreditParked = %d, want %d", got, parkedN)
	}
	refused, next := parkedN, parkedN+1
	published := make(chan struct{})
	if waiting {
		// The ring is full: this publisher waits for space.
		go func(seq int) {
			defer close(published)
			publish(seq, label.Conf("ecric.org.uk/mdt/7"))
		}(next)
		waitFor(t, "publisher waiting for ring space", func() bool { return ringSite.Parked() > 0 })
		refused, next = refused+1, next+1
	} else {
		close(published)
	}

	if !p.Revoke("cleared", label.Clearance, mdt7) {
		t.Fatal("Revoke did not find the grant")
	}
	rawAck(t, conn, "c-0", "100", "")
	<-published
	waitFor(t, "deliveries refused", func() bool { return srv.Stats().RevokedDeliveries == uint64(refused) })
	if got := parked(); got != 0 {
		t.Errorf("CreditParked = %d after the drain, want 0", got)
	}
	rawExpectSilence(t, conn, rd, 100*time.Millisecond)

	// The subscription lives on with its credit unspent: an event the
	// subscriber may still read goes straight out.
	publish(next)
	if seq, _ := rawReadOffsetMessage(t, conn, rd); seq != next {
		t.Fatalf("after the refused drain: seq %d, want %d", seq, next)
	}
	st := srv.Stats()
	if st.RevokedDeliveries != uint64(refused) || st.DroppedDeliveries != 0 || st.OverflowDrops != 0 {
		t.Errorf("RevokedDeliveries %d, DroppedDeliveries %d, OverflowDrops %d; want %d, 0, 0",
			st.RevokedDeliveries, st.DroppedDeliveries, st.OverflowDrops, refused)
	}
	if got := b.Stats().FilteredByLabel; got != 0 {
		t.Errorf("FilteredByLabel = %d, want 0 (fan-out cleared every publish)", got)
	}
}

// TestCreditParkDuringSubscribe: a credited subscription's deliveries can
// park, and be drained through the clearance gate, before SubscribeWire
// has returned the Subscription to the SUBSCRIBE handler, so the drain
// must decide with a gate it owns from the start. Labelled publishes race
// 300 credit-1 SUBSCRIBEs; under -race a gate read from ws.sub is a data
// race here.
func TestCreditParkDuringSubscribe(t *testing.T) {
	b := New(testPolicy())
	srv, err := NewServer("127.0.0.1:0", b, ServerConfig{
		Logf:            t.Logf,
		Overflow:        OverflowDropNewest,
		OnDeliveryError: func(uint64, string, *event.Event, error) {},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		b.Close()
	})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; !stop.Load(); seq++ {
				if err := b.Publish("producer", event.New("/c/subscribe", map[string]string{"seq": strconv.Itoa(seq)}, label.Conf("ecric.org.uk/mdt/7"))); err != nil {
					t.Errorf("Publish seq %d: %v", seq, err)
					return
				}
			}
		}()
	}
	for range 300 {
		conn, rd := rawDurableConn(t, srv.Addr(), "cleared")
		rawSubscribe(t, conn, rd, "/c/subscribe", "c-0", map[string]string{stomp.HdrCredit: "1"})
		conn.Close()
	}
	stop.Store(true)
	wg.Wait()
}

// TestCreditRevokeDuringReplayWait pins the same rule on the durable path:
// a replay feed checks a record, then waits for credit; a revoke during
// that wait stops the record. The refused record was never counted, so
// the next record the subscriber may read goes out on the same grant.
func TestCreditRevokeDuringReplayWait(t *testing.T) {
	const topic = "/d/revoke"
	p := testPolicy()
	b, srv := startDurableBroker(t, p, t.TempDir(), topic)

	for seq, labels := range [][]label.Label{{label.Conf("ecric.org.uk/mdt/7")}, {label.Conf("ecric.org.uk/mdt/7")}, nil} {
		if err := b.Publish("producer", event.New(topic, map[string]string{"seq": strconv.Itoa(seq)}, labels...)); err != nil {
			t.Fatalf("Publish seq %d: %v", seq, err)
		}
	}
	conn, rd := rawDurableConn(t, srv.Addr(), "cleared")
	rawSubscribe(t, conn, rd, topic, "d-0", map[string]string{
		stomp.HdrCredit: "1",
		stomp.HdrOffset: "earliest",
	})
	if seq, off := rawReadOffsetMessage(t, conn, rd); seq != 0 || off != "0" {
		t.Fatalf("first delivery seq %d offset %q, want 0 at 0", seq, off)
	}
	// The feed has checked record 1 against the standing clearance once it
	// blocks for credit.
	waitFor(t, "replay feed waiting for credit", feedWaiting)

	if !p.Revoke("cleared", label.Clearance, mdt7) {
		t.Fatal("Revoke did not find the grant")
	}
	// A grant of 2 covers exactly one more delivery: record 2 can only go
	// out if the refused record 1 took no credit.
	rawAck(t, conn, "d-0", "2", "")
	if seq, off := rawReadOffsetMessage(t, conn, rd); seq != 2 || off != "1" {
		t.Fatalf("after revoke: seq %d offset %q, want the unlabelled record 2 as the second delivery (record 1 must not be delivered)", seq, off)
	}
	// The feed counts a delivery once it is queued, which can be after
	// the frame reached the peer.
	waitFor(t, "replay deliveries counted", func() bool { return srv.Stats().ReplayDeliveries >= 2 })
	st := srv.Stats()
	if st.RevokedDeliveries != 1 || st.ReplayFiltered != 0 || st.ReplayDeliveries != 2 {
		t.Errorf("RevokedDeliveries %d, ReplayFiltered %d, ReplayDeliveries %d; want 1, 0, 2",
			st.RevokedDeliveries, st.ReplayFiltered, st.ReplayDeliveries)
	}
}
