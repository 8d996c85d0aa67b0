package broker

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// tapConn is a raw STOMP connection that keeps every byte it reads,
// split into the frames they carried.
type tapConn struct {
	t      *testing.T
	conn   net.Conn
	raw    bytes.Buffer // every byte read from conn
	rd     *bufio.Reader
	dec    *stomp.Decoder
	used   int // bytes of raw already assigned to frames
	frames []string
}

// dialTap connects and logs in as login, keeping the CONNECTED frame.
func dialTap(t *testing.T, addr, login string) *tapConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &tapConn{t: t, conn: conn}
	c.rd = bufio.NewReader(io.TeeReader(conn, &c.raw))
	c.dec = stomp.NewDecoder(c.rd)
	c.send(stomp.CmdConnect, stomp.HdrLogin, login)
	c.next(stomp.CmdConnected)
	return c
}

// send writes a frame with the given header key/value pairs.
func (c *tapConn) send(cmd string, kv ...string) {
	c.t.Helper()
	f := stomp.NewFrame(cmd)
	for i := 0; i < len(kv); i += 2 {
		f.SetHeader(kv[i], kv[i+1])
	}
	if err := new(stomp.Encoder).Encode(c.conn, f); err != nil {
		c.t.Fatalf("write %s: %v", cmd, err)
	}
}

// read reads one frame and keeps its bytes.
func (c *tapConn) read() *stomp.Frame {
	c.t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := c.dec.Decode()
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	end := c.raw.Len() - c.rd.Buffered()
	c.frames = append(c.frames, string(c.raw.Bytes()[c.used:end]))
	c.used = end
	return f
}

// next reads one frame, which must be a want.
func (c *tapConn) next(want string) *stomp.Frame {
	c.t.Helper()
	f := c.read()
	if f.Command != want {
		c.t.Fatalf("read %s, want %s: %v", f.Command, want, f)
	}
	return f
}

// sync asks for a receipt with a frame that changes nothing and reads up
// to it: every frame the broker queued for this connection before it is
// then kept.
func (c *tapConn) sync() {
	c.t.Helper()
	c.send(stomp.CmdUnsubscribe, stomp.HdrID, "none", stomp.HdrReceipt, "sync")
	for f := c.read(); f.Command != stomp.CmdReceipt || f.Header(stomp.HdrReceiptID) != "sync"; f = c.read() {
	}
}

// niHistory is one run's publish history on the durable topic: before
// visible event i go hidden[i] events that principal "cleared" may not
// see, and hidden[len(visible)] follow the last.
type niHistory []int

// niVisible is what "cleared" may see, the same in every history: some
// events unlabelled, some labelled inside its clearance.
var niVisible = [][]label.Label{nil, {niCleared}, nil, {niCleared}, {niCleared}, nil, nil, {niCleared}}

var (
	niCleared = label.Conf("ecric.org.uk/mdt/7")
	niHidden  = label.Conf("ecric.org.uk/mdt/9")
)

// niAcked is how many deliveries the grouped consumer acks before it
// disconnects and the group resumes.
const niAcked = 3

// runNoninterference drives one history through a fresh broker and
// returns, per subscription, every frame principal "cleared" received.
// The connections open in the same order in every run, so session ids
// and message-ids match whenever the visible deliveries do.
func runNoninterference(t *testing.T, hidden niHistory) map[string][]string {
	const topic = "/d/ni"
	b, srv := startDurableBroker(t, testPolicy(), t.TempDir(), topic)
	j, err := srv.journals.open(topic)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	settle := func(want uint64) {
		t.Helper()
		waitFor(t, "replay feeds to read every record", func() bool {
			st := srv.Stats()
			return st.ReplayDeliveries+st.ReplayFiltered == want
		})
	}

	// A live subscription and a journal tail, both before any publish.
	live := dialTap(t, srv.Addr(), "cleared")
	live.send(stomp.CmdSubscribe, stomp.HdrID, "s-0", stomp.HdrDestination, topic, stomp.HdrReceipt, "r-sub")
	live.next(stomp.CmdReceipt)
	tail := dialTap(t, srv.Addr(), "cleared")
	tail.send(stomp.CmdSubscribe, stomp.HdrID, "s-0", stomp.HdrDestination, topic, stomp.HdrOffset, "next", stomp.HdrReceipt, "r-sub")
	tail.next(stomp.CmdReceipt)

	publish := func(attrs map[string]string, body string, labels ...label.Label) {
		t.Helper()
		ev := event.New(topic, attrs, labels...)
		ev.Body = []byte(body)
		if err := b.Publish("producer", ev); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	var records uint64
	for i := 0; i <= len(niVisible); i++ {
		for h := 0; h < hidden[i]; h++ {
			publish(map[string]string{"kind": "hidden", "n": strconv.Itoa(h)}, "withheld", niHidden)
			records++
		}
		if i < len(niVisible) {
			publish(map[string]string{"kind": "visible", "seq": strconv.Itoa(i)}, "visible-"+strconv.Itoa(i), niVisible[i]...)
			records++
		}
	}

	// Replays after the history: earliest, and a group that acks part of
	// it. Replayed frames may overtake a SUBSCRIBE receipt, so these ask
	// for none; settling the feeds' counts orders what follows.
	earliest := dialTap(t, srv.Addr(), "cleared")
	earliest.send(stomp.CmdSubscribe, stomp.HdrID, "s-0", stomp.HdrDestination, topic, stomp.HdrOffset, "earliest")
	group := dialTap(t, srv.Addr(), "cleared")
	group.send(stomp.CmdSubscribe, stomp.HdrID, "s-0", stomp.HdrDestination, topic, stomp.HdrGroup, "g")
	settle(3 * records)
	group.send(stomp.CmdAck, stomp.HdrSubscription, "s-0", stomp.HdrOffset, strconv.Itoa(niAcked), stomp.HdrReceipt, "r-ack")
	group.sync()
	_ = group.conn.Close()

	resume := dialTap(t, srv.Addr(), "cleared")
	resume.send(stomp.CmdSubscribe, stomp.HdrID, "s-0", stomp.HdrDestination, topic, stomp.HdrGroup, "g")
	settle(3*records + records - uint64(j.Acked("g")))

	out := map[string][]string{}
	for name, c := range map[string]*tapConn{"live": live, "tail": tail, "earliest": earliest, "resume": resume} {
		c.sync()
		out[name] = c.frames
	}
	out["group"] = group.frames
	for name, frames := range out {
		for _, f := range frames {
			if strings.Contains(f, "withheld") {
				t.Fatalf("%s: a withheld record reached the consumer: %q", name, f)
			}
		}
	}
	return out
}

// TestDurableNoninterference runs two histories that differ only in
// events principal "cleared" may not see, interleaved with the ones it
// may, and requires every frame it receives to be byte-identical across
// the two: on a live subscription, an earliest replay, a group that acks
// part of the stream and the group's resume, and a journal tail. A
// broker that numbered replayed frames by journal offset, or took an
// absolute start, would tell the consumer how much it withheld.
func TestDurableNoninterference(t *testing.T) {
	a := runNoninterference(t, niHistory{0, 2, 1, 0, 3, 1, 0, 2, 1})
	b := runNoninterference(t, niHistory{1, 0, 0, 4, 0, 2, 1, 0, 0})
	for _, name := range []string{"live", "tail", "earliest", "group", "resume"} {
		fa, fb := a[name], b[name]
		for i := range max(len(fa), len(fb)) {
			if i >= len(fa) || i >= len(fb) {
				t.Errorf("%s: %d frames in one history, %d in the other", name, len(fa), len(fb))
				break
			}
			if fa[i] != fb[i] {
				t.Errorf("%s: frame %d differs between the histories:\n%q\n%q", name, i, fa[i], fb[i])
				break
			}
		}
	}
	// The comparison means something only if the consumer saw the stream.
	if got, want := len(a["live"]), 1+1+len(niVisible)+1; got != want {
		t.Errorf("live subscription received %d frames, want %d", got, want)
	}
	if got, want := len(a["resume"]), 1+len(niVisible)-niAcked+1; got != want {
		t.Errorf("resumed group received %d frames, want %d (the unacked suffix and the sync receipt)", got, want)
	}
	// A replayed MESSAGE is the live encoding of the same image and route:
	// the tail's frames are the live ones but for the session in the
	// message-id.
	live, tail := a["live"], a["tail"]
	for i := 2; i < len(live)-1 && i < len(tail)-1; i++ {
		if want := strings.Replace(live[i], "message-id:m-1-", "message-id:m-2-", 1); tail[i] != want {
			t.Errorf("replayed frame %d is not the live encoding:\n%q\n%q", i, tail[i], want)
		}
	}
}
