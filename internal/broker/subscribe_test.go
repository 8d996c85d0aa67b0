package broker

import (
	"bytes"
	"runtime"
	"testing"

	"safeweb/internal/event"
	"safeweb/internal/stomp"
)

// TestSubscribeDuplicateIDRefused: a SUBSCRIBE naming an id the session
// already uses is refused with an ERROR and counted, before anything is
// registered. The ERROR ends the session, and its teardown closes the
// first subscription: a later publish reaches no handler and drops
// nothing, and no replay feed outlives the session.
func TestSubscribeDuplicateIDRefused(t *testing.T) {
	const topic = "/d/dup"
	for _, tc := range []struct {
		name    string
		headers []string
	}{
		{"live", nil},
		{"durable", []string{stomp.HdrGroup, "g"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, srv := startDurableBroker(t, testPolicy(), t.TempDir(), topic)
			c := dialTap(t, srv.Addr(), "consumer")
			sub := append([]string{stomp.HdrID, "s", stomp.HdrDestination, topic, stomp.HdrReceipt, "r-sub"}, tc.headers...)
			c.send(stomp.CmdSubscribe, sub...)
			c.next(stomp.CmdReceipt)
			c.send(stomp.CmdSubscribe, sub...)
			c.next(stomp.CmdError)
			if got := srv.Stats().UnhandledFrames; got != 1 {
				t.Errorf("UnhandledFrames = %d, want 1", got)
			}

			waitFor(t, "the session to end", func() bool { return len(srv.SessionStats()) == 0 })
			waitFor(t, "every replay feed to stop", func() bool {
				buf := make([]byte, 1<<20)
				return !bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*Server).runReplay"))
			})
			if err := b.Publish("producer", event.New(topic, nil)); err != nil {
				t.Fatalf("Publish: %v", err)
			}
			if got := b.Stats().Delivered; got != 0 {
				t.Errorf("Delivered = %d after the session ended, want 0", got)
			}
			if st := srv.Stats(); st.DroppedDeliveries != 0 || st.ReplayDeliveries != 0 {
				t.Errorf("DroppedDeliveries %d, ReplayDeliveries %d; want 0, 0", st.DroppedDeliveries, st.ReplayDeliveries)
			}
		})
	}
}
