package broker

import (
	"bufio"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"safeweb/internal/stomp"
)

// ackCountingProxy forwards every connection it accepts to upstream,
// decoding the client's frames on the way to count its ACKs: every ACK,
// and those carrying an offset header.
type ackCountingProxy struct {
	addr          string
	acks, offsets atomic.Int64
}

func newAckCountingProxy(t *testing.T, upstream string) *ackCountingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	p := &ackCountingProxy{addr: ln.Addr().String()}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				_ = down.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, down, up)
			mu.Unlock()
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(down, up)
				_ = down.Close()
			}()
			go func() {
				defer wg.Done()
				defer up.Close()
				dec := stomp.NewDecoder(bufio.NewReader(down))
				var enc stomp.Encoder
				for {
					f, err := dec.Decode()
					if err != nil {
						return
					}
					if f.Command == stomp.CmdAck {
						p.acks.Add(1)
						if f.Header(stomp.HdrOffset) != "" {
							p.offsets.Add(1)
						}
					}
					if enc.Encode(up, f) != nil {
						return
					}
				}
			}()
		}
	}()
	return p
}

// TestDurableAnonymousSendsNoOffsetAck: a durable subscription without a
// group has no progress for the broker to persist, so its client sends no
// offset ack — no ACK at all without a credit window, and credit grants
// alone with one. A grouped subscription through the same proxy is the
// control: its offset acks are counted.
func TestDurableAnonymousSendsNoOffsetAck(t *testing.T) {
	const (
		topic = "/d/anon"
		n     = 20
	)
	_, srv := startDurableBroker(t, testPolicy(), t.TempDir(), topic)
	producer := dialBus(t, srv.Addr(), "producer")
	for seq := 0; seq < n; seq++ {
		publishDurableSeq(t, producer, topic, seq)
	}
	waitFor(t, "journal appends", func() bool { return srv.Stats().DurableAppends == n })

	for _, tc := range []struct {
		name          string
		group         string
		credit        int
		acks, offsets bool
	}{
		{"anonymous", "", 0, false, false},
		{"anonymous credited", "", 4, true, false},
		{"grouped", "g", 0, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proxy := newAckCountingProxy(t, srv.Addr())
			c := dialDurable(t, proxy.addr, "consumer", tc.group, "earliest", tc.credit)
			h, seqs := seqCollector(t, func(int) bool { return true })
			if _, err := c.Subscribe(topic, "", h); err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			waitFor(t, "replay", func() bool { return len(seqs()) == n })
			// Every release is done; its ACK, if any, is queued ahead of
			// the Sync receipt Flush waits for.
			if err := c.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			acks, offsets := proxy.acks.Load(), proxy.offsets.Load()
			if (acks > 0) != tc.acks || (offsets > 0) != tc.offsets {
				t.Errorf("%d ACK frames reached the broker, %d with an offset; want ACKs %v, offset acks %v",
					acks, offsets, tc.acks, tc.offsets)
			}
			if got := srv.Stats().UnhandledFrames; got != 0 {
				t.Errorf("UnhandledFrames = %d, want 0", got)
			}
		})
	}
}

// TestDurableTailAckNotStranded: once a burst stops, the group's
// persisted ack reaches one past the last offset with no further traffic
// — the last releases' frontier is never held back waiting for more.
func TestDurableTailAckNotStranded(t *testing.T) {
	const (
		topic = "/d/tail"
		n     = 300
	)
	for _, credit := range []int{0, 16} {
		t.Run("credit="+strconv.Itoa(credit), func(t *testing.T) {
			_, srv := startDurableBroker(t, testPolicy(), t.TempDir(), topic)
			j, err := srv.journals.open(topic)
			if err != nil {
				t.Fatalf("journal: %v", err)
			}
			c := dialDurable(t, srv.Addr(), "consumer", "g", "", credit)
			h, seqs := seqCollector(t, func(int) bool { return true })
			if _, err := c.Subscribe(topic, "", h); err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			producer := dialBus(t, srv.Addr(), "producer")
			for seq := 0; seq < n; seq++ {
				publishDurableSeq(t, producer, topic, seq)
			}
			waitFor(t, "every delivery", func() bool { return len(seqs()) == n })
			waitFor(t, "the tail ack", func() bool { return j.Acked("g") == n })
		})
	}
}
