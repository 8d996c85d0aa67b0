package broker

import (
	"bufio"
	"errors"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// startDurableBroker runs a broker whose server journals the given topic
// patterns under dir.
func startDurableBroker(t *testing.T, p *label.Policy, dir string, topics ...string) (*Broker, *Server) {
	t.Helper()
	b := New(p)
	srv, err := NewServer("127.0.0.1:0", b, ServerConfig{
		Logf:       t.Logf,
		Durable:    topics,
		JournalDir: dir,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		b.Close()
	})
	return b, srv
}

// dialDurable connects a client whose subscriptions are durable.
func dialDurable(t *testing.T, addr, login, group, offset string, credit int) *Client {
	t.Helper()
	c, err := DialBus(addr, ClientConfig{
		Login:           login,
		OnError:         func(err error) { t.Logf("bus error (%s): %v", login, err) },
		SubscribeCredit: credit,
		DurableGroup:    group,
		DurableOffset:   offset,
	})
	if err != nil {
		t.Fatalf("DialBus(%s): %v", login, err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// seqCollector gathers the numeric seq attribute of each delivery in
// arrival order; release decides per event whether to complete it (and
// thereby advance the client's cumulative offset ack).
func seqCollector(t *testing.T, release func(seq int) bool) (Handler, func() []int) {
	var mu sync.Mutex
	var got []int
	h := func(ev *event.Event) {
		n, err := strconv.Atoi(ev.Attr("seq"))
		if err != nil {
			t.Errorf("delivery without numeric seq: %v", err)
			return
		}
		mu.Lock()
		got = append(got, n)
		mu.Unlock()
		if release(n) {
			ev.Release()
		}
	}
	return h, func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), got...)
	}
}

func publishDurableSeq(t *testing.T, pub *Client, topic string, seq int) {
	t.Helper()
	ev := event.New(topic, map[string]string{"seq": strconv.Itoa(seq)})
	ev.Body = []byte("payload-" + strconv.Itoa(seq))
	if err := pub.Publish(ev); err != nil {
		t.Fatalf("Publish seq %d: %v", seq, err)
	}
}

func sameSeqs(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// settleReplay waits until the server's replay feeds have read want
// records in all, delivered or withheld, then flushes each client: a
// flush's receipt follows every frame queued on that connection before
// it, so every delivery has reached its handler and none is still on the
// way when the caller compares.
func settleReplay(t *testing.T, srv *Server, want uint64, clients ...*Client) {
	t.Helper()
	waitFor(t, "replay feeds to read every record", func() bool {
		st := srv.Stats()
		return st.ReplayDeliveries+st.ReplayFiltered == want
	})
	for _, c := range clients {
		if err := c.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
}

// TestDurableBacklogAndLiveTail is the happy path end to end: publishes
// on a durable topic are journaled, a later group subscription replays
// the backlog in order and keeps receiving live publishes through the
// journal tail, and releases drive cumulative persisted acks.
func TestDurableBacklogAndLiveTail(t *testing.T) {
	const topic = "/d/t"
	dir := t.TempDir()
	_, srv := startDurableBroker(t, testPolicy(), dir, topic)

	producer := dialBus(t, srv.Addr(), "producer")
	for seq := 0; seq < 3; seq++ {
		publishDurableSeq(t, producer, topic, seq)
	}
	waitFor(t, "journal appends", func() bool {
		return srv.Stats().DurableAppends == 3
	})

	consumer := dialDurable(t, srv.Addr(), "consumer", "g1", "", 2)
	h, seqs := seqCollector(t, func(int) bool { return true })
	if _, err := consumer.Subscribe(topic, "", h); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	waitFor(t, "backlog replay", func() bool { return len(seqs()) == 3 })

	for seq := 3; seq < 5; seq++ {
		publishDurableSeq(t, producer, topic, seq)
	}
	waitFor(t, "live tail", func() bool { return len(seqs()) == 5 })
	if got := seqs(); !sameSeqs(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("delivery order = %v, want [0 1 2 3 4]", got)
	}

	// Every delivery was released, so the group's persisted cumulative
	// ack converges on the journal bound.
	j, err := srv.journals.open(topic)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	waitFor(t, "cumulative ack", func() bool { return j.Acked("g1") == 5 })
	if got := srv.Stats().ReplayDeliveries; got != 5 {
		t.Errorf("ReplayDeliveries = %d, want 5", got)
	}
	if got := srv.Stats().UnhandledFrames; got != 0 {
		t.Errorf("UnhandledFrames = %d, want 0 (offset acks must be handled)", got)
	}
}

// TestDurableResumeAfterDisconnect pins the acceptance contract: a
// consumer that acked part of the stream and disconnected resumes with
// its group and receives exactly the unacked suffix, exactly once.
func TestDurableResumeAfterDisconnect(t *testing.T) {
	const topic = "/d/resume"
	dir := t.TempDir()
	_, srv := startDurableBroker(t, testPolicy(), dir, topic)

	producer := dialBus(t, srv.Addr(), "producer")
	for seq := 0; seq < 6; seq++ {
		publishDurableSeq(t, producer, topic, seq)
	}
	waitFor(t, "journal appends", func() bool {
		return srv.Stats().DurableAppends == 6
	})
	j, err := srv.journals.open(topic)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}

	// First incarnation: receive everything, complete (Release) only the
	// first three — the client acks the completed prefix cumulatively.
	first, err := DialBus(srv.Addr(), ClientConfig{
		Login:        "consumer",
		DurableGroup: "g",
		OnError:      func(err error) { t.Logf("first consumer: %v", err) },
	})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	h1, seqs1 := seqCollector(t, func(seq int) bool { return seq < 3 })
	if _, err := first.Subscribe(topic, "", h1); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	waitFor(t, "first replay", func() bool { return len(seqs1()) == 6 })
	waitFor(t, "partial ack persisted", func() bool { return j.Acked("g") == 3 })
	if err := first.Close(); err != nil {
		t.Logf("first close: %v", err)
	}

	// Second incarnation resumes at the group's acked mark.
	second := dialDurable(t, srv.Addr(), "consumer", "g", "", 0)
	h2, seqs2 := seqCollector(t, func(int) bool { return true })
	if _, err := second.Subscribe(topic, "", h2); err != nil {
		t.Fatalf("resubscribe: %v", err)
	}
	// The first incarnation read records 0-5, the second 3-5.
	settleReplay(t, srv, 6+3, second)
	if got := seqs2(); !sameSeqs(got, []int{3, 4, 5}) {
		t.Fatalf("resumed deliveries = %v, want exactly the unacked suffix [3 4 5]", got)
	}
	waitFor(t, "resumed ack", func() bool { return j.Acked("g") == 6 })
}

// TestDurableReplayClearanceRevoked pins the security contract: replay
// enforces clearance at read time against the current policy, so a
// privilege revoked after an event was journaled keeps the event from
// every later replay — and from the rest of a replay under way, whose
// label memo holds parses, never verdicts.
func TestDurableReplayClearanceRevoked(t *testing.T) {
	const topic, many = "/d/sec", "/d/sec-many"
	dir := t.TempDir()
	p := testPolicy()
	b, srv := startDurableBroker(t, p, dir, topic, many)

	producer := dialBus(t, srv.Addr(), "producer")
	secret := event.New(topic, map[string]string{"seq": "0"},
		label.Conf("ecric.org.uk/mdt/7"))
	if err := producer.Publish(secret); err != nil {
		t.Fatalf("Publish labelled: %v", err)
	}
	publishDurableSeq(t, producer, topic, 1)
	waitFor(t, "journal appends", func() bool {
		return srv.Stats().DurableAppends == 2
	})

	// While the clearance stands, replay delivers both records.
	before := dialDurable(t, srv.Addr(), "cleared", "", "earliest", 0)
	hb, seqsBefore := seqCollector(t, func(int) bool { return true })
	if _, err := before.Subscribe(topic, "", hb); err != nil {
		t.Fatalf("Subscribe before revoke: %v", err)
	}
	waitFor(t, "cleared replay", func() bool { return len(seqsBefore()) == 2 })
	if got := srv.Stats().ReplayFiltered; got != 0 {
		t.Fatalf("ReplayFiltered before revoke = %d, want 0", got)
	}

	// Revoke, then replay again from the same journal: the labelled
	// record is filtered at read time, never delivered.
	if !p.Revoke("cleared", label.Clearance, label.MustParsePattern("label:conf:ecric.org.uk/mdt/7")) {
		t.Fatal("Revoke did not find the grant")
	}
	after := dialDurable(t, srv.Addr(), "cleared", "", "earliest", 0)
	ha, seqsAfter := seqCollector(t, func(int) bool { return true })
	if _, err := after.Subscribe(topic, "", ha); err != nil {
		t.Fatalf("Subscribe after revoke: %v", err)
	}
	// Each replay read both records.
	settleReplay(t, srv, 2+2, after)
	if got := seqsAfter(); !sameSeqs(got, []int{1}) {
		t.Fatalf("post-revoke deliveries = %v, want only the unlabelled [1]", got)
	}
	waitFor(t, "filter counted", func() bool { return srv.Stats().ReplayFiltered == 1 })

	// A feed whose records carry more distinct label headers than its
	// memo holds (300), then ten repeats of headers it memoised, then one
	// unlabelled record. Its credit window stops it mid-run, after 280
	// deliveries; a revoke then stops every labelled record it has yet to
	// decide: the one it waited with, the headers past the memo's bound
	// and the memoised ones alike.
	const distinct, window = 300, 280
	for seq := 0; seq <= distinct+10; seq++ {
		var labels []label.Label
		if seq < distinct+10 {
			labels = append(labels, label.Conf("ecric.org.uk/p/"+strconv.Itoa(seq%distinct)))
		}
		if err := b.Publish("producer", event.New(many, map[string]string{"seq": strconv.Itoa(seq)}, labels...)); err != nil {
			t.Fatalf("Publish seq %d: %v", seq, err)
		}
	}
	base := srv.Stats()
	conn, rd := rawDurableConn(t, srv.Addr(), "wild")
	rawSubscribe(t, conn, rd, many, "m-0", map[string]string{
		stomp.HdrCredit: strconv.Itoa(window),
		stomp.HdrOffset: "earliest",
	})
	for want := 0; want < window; want++ {
		if seq, _ := rawReadOffsetMessage(t, conn, rd); seq != want {
			t.Fatalf("delivery %d: seq %d", want, seq)
		}
	}
	waitFor(t, "the feed to wait for credit", feedWaiting)
	if !p.Revoke("wild", label.Clearance, label.MustParsePattern("label:conf:ecric.org.uk/*")) {
		t.Fatal("Revoke did not find the grant")
	}
	rawAck(t, conn, "m-0", strconv.Itoa(2*window), "")
	if seq, _ := rawReadOffsetMessage(t, conn, rd); seq != distinct+10 {
		t.Fatalf("after the revoke: seq %d, want only the unlabelled %d", seq, distinct+10)
	}
	rawExpectSilence(t, conn, rd, 100*time.Millisecond)
	st := srv.Stats()
	if got, want := st.RevokedDeliveries-base.RevokedDeliveries, uint64(1); got != want {
		t.Errorf("RevokedDeliveries rose by %d, want %d (the record the feed waited with)", got, want)
	}
	if got, want := st.ReplayFiltered-base.ReplayFiltered, uint64(distinct+10-window-1); got != want {
		t.Errorf("ReplayFiltered rose by %d, want %d", got, want)
	}
}

// TestDurableReplayAcrossRestartZeroRemarshal restarts the server on an
// existing journal directory and replays it: recovery feeds the consumer
// the persisted wire-image bytes directly — the replay window builds no
// new wire images (event.WireImageBuilds is flat) — and the payloads
// survive byte-intact.
func TestDurableReplayAcrossRestartZeroRemarshal(t *testing.T) {
	const topic = "/d/restart"
	dir := t.TempDir()

	b1 := New(testPolicy())
	srv1, err := NewServer("127.0.0.1:0", b1, ServerConfig{
		Logf: t.Logf, Durable: []string{topic}, JournalDir: dir,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	producer, err := DialBus(srv1.Addr(), ClientConfig{Login: "producer", PublishWindow: 8, SendTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	for seq := 0; seq < 4; seq++ {
		publishDurableSeq(t, producer, topic, seq)
	}
	if err := producer.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	waitFor(t, "journal appends", func() bool {
		return srv1.Stats().DurableAppends == 4
	})
	if err := producer.Close(); err != nil {
		t.Logf("producer close: %v", err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatalf("first server close: %v", err)
	}
	b1.Close()

	_, srv2 := startDurableBroker(t, testPolicy(), dir, topic)
	consumer := dialDurable(t, srv2.Addr(), "consumer", "", "earliest", 0)

	var mu sync.Mutex
	bodies := map[int]string{}
	builds0 := event.WireImageBuilds()
	if _, err := consumer.Subscribe(topic, "", func(ev *event.Event) {
		n, _ := strconv.Atoi(ev.Attr("seq"))
		mu.Lock()
		bodies[n] = string(ev.Body)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	waitFor(t, "replay after restart", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(bodies) == 4
	})
	if builds := event.WireImageBuilds() - builds0; builds != 0 {
		t.Errorf("replay built %d wire images, want 0 (served from persisted bytes)", builds)
	}
	mu.Lock()
	defer mu.Unlock()
	for seq := 0; seq < 4; seq++ {
		if got, want := bodies[seq], "payload-"+strconv.Itoa(seq); got != want {
			t.Errorf("replayed body[%d] = %q, want %q", seq, got, want)
		}
	}
}

// TestDurableOffsetSpecs covers the two explicit replay starts: earliest
// rewinds to the log head, and next skips the backlog entirely,
// delivering only later publishes. An absolute start is refused
// (TestDurableSubscribeValidation).
func TestDurableOffsetSpecs(t *testing.T) {
	const topic = "/d/off"
	dir := t.TempDir()
	_, srv := startDurableBroker(t, testPolicy(), dir, topic)

	producer := dialBus(t, srv.Addr(), "producer")
	for seq := 0; seq < 4; seq++ {
		publishDurableSeq(t, producer, topic, seq)
	}
	waitFor(t, "journal appends", func() bool {
		return srv.Stats().DurableAppends == 4
	})

	subscribe := func(offset string) (*Client, func() []int) {
		c := dialDurable(t, srv.Addr(), "consumer", "", offset, 0)
		h, seqs := seqCollector(t, func(int) bool { return true })
		if _, err := c.Subscribe(topic, "", h); err != nil {
			t.Fatalf("Subscribe offset=%s: %v", offset, err)
		}
		return c, seqs
	}
	ce, earliest := subscribe("earliest")
	cn, next := subscribe("next")

	waitFor(t, "earliest backlog", func() bool { return len(earliest()) == 4 })

	publishDurableSeq(t, producer, topic, 4)
	// earliest reads records 0-4, next reads record 4.
	settleReplay(t, srv, 5+1, ce, cn)
	if got := earliest(); !sameSeqs(got, []int{0, 1, 2, 3, 4}) {
		t.Errorf("earliest = %v, want [0 1 2 3 4]", got)
	}
	if got := next(); !sameSeqs(got, []int{4}) {
		t.Errorf("next = %v, want [4]", got)
	}
}

// rawDurableConn is a hand-driven STOMP subscriber for wire-level
// assertions on durable delivery and the ACK fast paths.
func rawDurableConn(t *testing.T, addr, login string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	rd := bufio.NewReader(conn)
	connect := stomp.NewFrame(stomp.CmdConnect)
	connect.SetHeader(stomp.HdrLogin, login)
	if err := new(stomp.Encoder).Encode(conn, connect); err != nil {
		t.Fatalf("raw CONNECT: %v", err)
	}
	if f, err := stomp.NewDecoder(rd).Decode(); err != nil || f.Command != stomp.CmdConnected {
		t.Fatalf("raw handshake: frame %v, err %v", f, err)
	}
	return conn, rd
}

// rawEarly holds, per raw connection, the MESSAGE frames rawSubscribe read
// before its receipt: a durable feed starts before the receipt is queued,
// so its first deliveries can arrive first. rawReadOffsetMessage returns
// them before it reads the connection again.
var (
	rawEarlyMu sync.Mutex
	rawEarly   = map[*bufio.Reader][]*stomp.Frame{}
)

// rawSubscribe sends a SUBSCRIBE with the given extra headers and waits
// for its receipt, keeping any MESSAGE that arrives first.
func rawSubscribe(t *testing.T, conn net.Conn, rd *bufio.Reader, topic, subID string, extra map[string]string) {
	t.Helper()
	sub := stomp.NewFrame(stomp.CmdSubscribe)
	sub.SetHeader(stomp.HdrID, subID)
	sub.SetHeader(stomp.HdrDestination, topic)
	for k, v := range extra {
		sub.SetHeader(k, v)
	}
	sub.SetHeader(stomp.HdrReceipt, "r-sub")
	if err := new(stomp.Encoder).Encode(conn, sub); err != nil {
		t.Fatalf("raw SUBSCRIBE: %v", err)
	}
	for {
		f, err := stomp.NewDecoder(rd).Decode()
		if err != nil {
			t.Fatalf("raw SUBSCRIBE receipt: %v", err)
		}
		switch f.Command {
		case stomp.CmdReceipt:
			return
		case stomp.CmdMessage:
			rawEarlyMu.Lock()
			rawEarly[rd] = append(rawEarly[rd], f)
			rawEarlyMu.Unlock()
		}
	}
}

// rawNextFrame returns the connection's oldest early MESSAGE, if any, and
// otherwise decodes the next frame.
func rawNextFrame(rd *bufio.Reader) (*stomp.Frame, error) {
	rawEarlyMu.Lock()
	early := rawEarly[rd]
	if len(early) > 0 {
		rawEarly[rd] = early[1:]
	}
	rawEarlyMu.Unlock()
	if len(early) > 0 {
		return early[0], nil
	}
	return stomp.NewDecoder(rd).Decode()
}

// rawReadOffsetMessage reads the next MESSAGE and returns its seq
// attribute and its offset in the consumer's own count: the deliveries
// the session sent before it, read from the message-id the session
// numbers from 1. The raw connections here carry one subscription each.
func rawReadOffsetMessage(t *testing.T, conn net.Conn, rd *bufio.Reader) (seq int, offset string) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	f, err := rawNextFrame(rd)
	if err != nil {
		t.Fatalf("read MESSAGE: %v", err)
	}
	if f.Command != stomp.CmdMessage {
		t.Fatalf("read %s frame, want MESSAGE: %v", f.Command, f)
	}
	seq, err = strconv.Atoi(f.Header("seq"))
	if err != nil {
		t.Fatalf("MESSAGE without numeric seq: %v", f)
	}
	id := f.Header(stomp.HdrMessageID)
	n, err := strconv.Atoi(id[strings.LastIndexByte(id, '-')+1:])
	if err != nil {
		t.Fatalf("MESSAGE with message-id %q: %v", id, err)
	}
	return seq, strconv.Itoa(n - 1)
}

// rawExpectSilence asserts no frame arrives within d — in particular, no
// ERROR frame.
func rawExpectSilence(t *testing.T, conn net.Conn, rd *bufio.Reader, d time.Duration) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(d))
	defer conn.SetReadDeadline(time.Time{})
	if f, err := rawNextFrame(rd); err == nil {
		t.Fatalf("expected no frame, read %v", f)
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("expected read deadline, got %v", err)
	}
}

// rawAck writes an ACK whose credit and offset headers are each optional
// — the wire shapes a durable credited consumer produces.
func rawAck(t *testing.T, conn net.Conn, subID, credit, offset string) {
	t.Helper()
	f := stomp.NewFrame(stomp.CmdAck)
	f.SetHeader(stomp.HdrSubscription, subID)
	if credit != "" {
		f.SetHeader(stomp.HdrCredit, credit)
	}
	if offset != "" {
		f.SetHeader(stomp.HdrOffset, offset)
	}
	if err := new(stomp.Encoder).Encode(conn, f); err != nil {
		t.Fatalf("write ACK: %v", err)
	}
}

// TestDurableAckCreditAndOffsetWire pins the ACK contract at the wire
// level: one frame carrying both a credit grant and an offset ack applies
// both, and an offset-only ACK is handled — no ERROR frame, no
// UnhandledFrames — while still persisting the group's progress.
func TestDurableAckCreditAndOffsetWire(t *testing.T) {
	const topic = "/d/raw"
	dir := t.TempDir()
	b, srv := startDurableBroker(t, testPolicy(), dir, topic)

	conn, rd := rawDurableConn(t, srv.Addr(), "consumer")
	rawSubscribe(t, conn, rd, topic, "d-0", map[string]string{
		stomp.HdrCredit: "2",
		stomp.HdrGroup:  "gr",
	})

	for seq := 0; seq < 5; seq++ {
		ev := event.New(topic, map[string]string{"seq": strconv.Itoa(seq)})
		if err := b.Publish("producer", ev); err != nil {
			t.Fatalf("Publish seq %d: %v", seq, err)
		}
	}

	// Window of 2: replay delivers offsets 0 and 1 and parks.
	for want := 0; want < 2; want++ {
		seq, off := rawReadOffsetMessage(t, conn, rd)
		if seq != want || off != strconv.Itoa(want) {
			t.Fatalf("delivery %d: seq=%d offset=%q", want, seq, off)
		}
	}
	rawExpectSilence(t, conn, rd, 100*time.Millisecond)

	// One frame, both headers: the grant releases two more deliveries and
	// the offset persists the group's progress.
	rawAck(t, conn, "d-0", "4", "2")
	for want := 2; want < 4; want++ {
		seq, off := rawReadOffsetMessage(t, conn, rd)
		if seq != want || off != strconv.Itoa(want) {
			t.Fatalf("delivery %d: seq=%d offset=%q", want, seq, off)
		}
	}
	j, err := srv.journals.open(topic)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	waitFor(t, "combined ack persisted", func() bool { return j.Acked("gr") == 2 })

	// Offset-only ACK: no credit movement (the window stays shut), no
	// ERROR frame, no unhandled-frame count — and the ack persists.
	rawAck(t, conn, "d-0", "", "4")
	rawExpectSilence(t, conn, rd, 100*time.Millisecond)
	waitFor(t, "offset-only ack persisted", func() bool { return j.Acked("gr") == 4 })
	if got := srv.Stats().UnhandledFrames; got != 0 {
		t.Errorf("UnhandledFrames = %d, want 0", got)
	}
	if got := srv.Stats().ReplayDeliveries; got != 4 {
		t.Errorf("ReplayDeliveries = %d, want 4", got)
	}
}

// TestDurableSubscribeValidation covers the rejection surface: durable
// subscriptions need a journal-backed exact topic and no selector, and a
// server with durable patterns needs a journal directory.
func TestDurableSubscribeValidation(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", New(testPolicy()), ServerConfig{
		Durable: []string{"/x"},
	}); err == nil {
		t.Error("NewServer with Durable but no JournalDir: want error")
	}
	if _, err := NewServer("127.0.0.1:0", New(testPolicy()), ServerConfig{
		JournalDir:         t.TempDir(),
		JournalSegmentSize: -1,
	}); err == nil {
		t.Error("NewServer with negative JournalSegmentSize: want error")
	}

	const topic = "/d/val"
	dir := t.TempDir()
	_, srv := startDurableBroker(t, testPolicy(), dir, topic)

	// Each rejected SUBSCRIBE answers with an ERROR frame on its own
	// connection.
	expectSubscribeError := func(what, dest string, extra map[string]string) {
		t.Helper()
		conn, rd := rawDurableConn(t, srv.Addr(), "consumer")
		sub := stomp.NewFrame(stomp.CmdSubscribe)
		sub.SetHeader(stomp.HdrID, "bad-0")
		sub.SetHeader(stomp.HdrDestination, dest)
		for k, v := range extra {
			sub.SetHeader(k, v)
		}
		if err := new(stomp.Encoder).Encode(conn, sub); err != nil {
			t.Fatalf("%s: write SUBSCRIBE: %v", what, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := stomp.NewDecoder(rd).Decode()
		if err != nil {
			t.Fatalf("%s: read: %v", what, err)
		}
		if f.Command != stomp.CmdError {
			t.Errorf("%s: got %s frame, want ERROR", what, f.Command)
		}
	}
	expectSubscribeError("selector on durable subscription", topic,
		map[string]string{stomp.HdrGroup: "g", stomp.HdrSelector: "a = 'b'"})
	expectSubscribeError("wildcard durable topic", "/d/*",
		map[string]string{stomp.HdrGroup: "g"})
	expectSubscribeError("non-durable topic", "/live/only",
		map[string]string{stomp.HdrGroup: "g"})
	expectSubscribeError("bad offset spec", topic,
		map[string]string{stomp.HdrOffset: "latest-ish"})
	expectSubscribeError("absolute offset", topic,
		map[string]string{stomp.HdrOffset: "2"})
}

// TestDurableRetentionClampedResume drives compaction end to end: a group
// acks the whole stream, CompactJournals truncates the acked prefix, and
// a fresh group subscribing from "earliest" is clamped to the journal's
// new lower bound — counted in ClampedResumes, never silently — and
// receives exactly the surviving suffix.
func TestDurableRetentionClampedResume(t *testing.T) {
	const topic = "/d/retain"
	dir := t.TempDir()
	b := New(testPolicy())
	srv, err := NewServer("127.0.0.1:0", b, ServerConfig{
		Logf:               t.Logf,
		Durable:            []string{topic},
		JournalDir:         dir,
		JournalSegmentSize: 256, // several segments from a handful of publishes
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		b.Close()
	})

	const n = 20
	producer := dialBus(t, srv.Addr(), "producer")
	for seq := 0; seq < n; seq++ {
		publishDurableSeq(t, producer, topic, seq)
	}
	waitFor(t, "journal appends", func() bool { return srv.Stats().DurableAppends == n })

	// Group g1 consumes and releases everything, making the whole prefix
	// ack-covered.
	c1 := dialDurable(t, srv.Addr(), "consumer", "g1", "", 4)
	h1, seqs1 := seqCollector(t, func(int) bool { return true })
	if _, err := c1.Subscribe(topic, "", h1); err != nil {
		t.Fatalf("Subscribe g1: %v", err)
	}
	waitFor(t, "g1 replay", func() bool { return len(seqs1()) == n })
	j, err := srv.journals.open(topic)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	waitFor(t, "g1 cumulative ack", func() bool { return j.Acked("g1") == n })

	if err := srv.CompactJournals(); err != nil {
		t.Fatalf("CompactJournals: %v", err)
	}
	first := j.FirstOffset()
	if first == 0 {
		t.Fatal("compaction did not advance FirstOffset")
	}
	if got := srv.Stats().CompactedSegments; got == 0 {
		t.Error("CompactedSegments = 0 after an acked-prefix compaction")
	}
	// Every compaction pass that deleted segments is folded into the
	// counters, by ack coverage or by the retention windows.
	if st := srv.Stats(); st.CompactedSegments+st.RetentionDeletes == 0 {
		t.Error("CompactedSegments + RetentionDeletes = 0: the compaction pass was not counted")
	}

	// A new group asking for "earliest" wants offset 0, which is gone:
	// the resume clamps to FirstOffset and replays the surviving suffix.
	c2 := dialDurable(t, srv.Addr(), "consumer", "g2", "earliest", 4)
	h2, seqs2 := seqCollector(t, func(int) bool { return true })
	if _, err := c2.Subscribe(topic, "", h2); err != nil {
		t.Fatalf("Subscribe g2: %v", err)
	}
	waitFor(t, "g2 clamped replay", func() bool { return len(seqs2()) == n-int(first) })
	want := make([]int, 0, n-int(first))
	for seq := int(first); seq < n; seq++ {
		want = append(want, seq)
	}
	if got := seqs2(); !sameSeqs(got, want) {
		t.Fatalf("clamped replay = %v, want %v", got, want)
	}
	if got := srv.Stats().ClampedResumes; got == 0 {
		t.Error("ClampedResumes = 0, want >= 1 (clamp must be counted, not silent)")
	}
}

// TestDurableReplayClampBetweenRuns compacts a journal under a feed that
// has read a run and waits for credit inside it: the feed delivers the
// rest of the run it holds, then finds its next record compacted away and
// clamps forward to the oldest surviving one — counted in ClampedResumes,
// never silent.
func TestDurableReplayClampBetweenRuns(t *testing.T) {
	const topic, n = "/d/clamp-run", 40
	b := New(testPolicy())
	srv, err := NewServer("127.0.0.1:0", b, ServerConfig{
		Logf:               t.Logf,
		Durable:            []string{topic},
		JournalDir:         t.TempDir(),
		JournalSegmentSize: 1024, // runs never cross a segment: several short runs
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		b.Close()
	})
	publishRecords(t, b, topic, 0, n)

	conn, rd := rawDurableConn(t, srv.Addr(), "consumer")
	rawSubscribe(t, conn, rd, topic, "d-0", map[string]string{
		stomp.HdrCredit: "2",
		stomp.HdrOffset: "earliest",
	})
	for want := 0; want < 2; want++ {
		if seq, _ := rawReadOffsetMessage(t, conn, rd); seq != want {
			t.Fatalf("delivery %d: seq %d", want, seq)
		}
	}
	waitFor(t, "the feed to wait for credit", feedWaiting)
	j, err := srv.journals.open(topic)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	if err := j.Ack("g", n); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	if err := srv.CompactJournals(); err != nil {
		t.Fatalf("CompactJournals: %v", err)
	}
	first := int(j.FirstOffset())
	if first <= 2 {
		t.Fatalf("FirstOffset = %d after compaction, want past the first run", first)
	}

	rawAck(t, conn, "d-0", strconv.Itoa(2*n), "")
	var seqs []int
	for len(seqs) == 0 || seqs[len(seqs)-1] != n-1 {
		seq, _ := rawReadOffsetMessage(t, conn, rd)
		seqs = append(seqs, seq)
	}
	// The run held seq 0..k-1: 2..k-1 follow, then first..n-1.
	k := 2
	for len(seqs) > 0 && seqs[0] == k && k < first {
		seqs, k = seqs[1:], k+1
	}
	for i, seq := range seqs {
		if seq != first+i {
			t.Fatalf("after the run's %d records: seq %d at %d, want %d..%d", k, seq, i, first, n-1)
		}
	}
	if k == 2 || len(seqs) != n-first {
		t.Fatalf("delivered the run's first %d records and %d of the %d after the clamp", k, len(seqs), n-first)
	}
	if got := srv.Stats().ClampedResumes; got != 1 {
		t.Errorf("ClampedResumes = %d, want 1", got)
	}
}

// TestDurableJournalAppendErrorCounted pins the satellite fix: a durable
// append failure is no longer just a log line — it increments
// JournalAppendErrors and reaches the OnJournalError hook.
func TestDurableJournalAppendErrorCounted(t *testing.T) {
	const topic = "/d/apperr"
	dir := t.TempDir()
	b := New(testPolicy())
	var errMu sync.Mutex
	var hookTopics []string
	srv, err := NewServer("127.0.0.1:0", b, ServerConfig{
		Logf:       t.Logf,
		Durable:    []string{topic},
		JournalDir: dir,
		OnJournalError: func(topic string, err error) {
			errMu.Lock()
			hookTopics = append(hookTopics, topic)
			errMu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		b.Close()
	})

	// Close the topic's journal underneath the server: the next publish's
	// tap append fails the way a full or failing disk would.
	j, err := srv.journals.open(topic)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close journal: %v", err)
	}

	producer := dialBus(t, srv.Addr(), "producer")
	publishDurableSeq(t, producer, topic, 0)
	waitFor(t, "append error counted", func() bool {
		return srv.Stats().JournalAppendErrors == 1
	})
	errMu.Lock()
	defer errMu.Unlock()
	if len(hookTopics) != 1 || hookTopics[0] != topic {
		t.Fatalf("OnJournalError hook saw %v, want [%s]", hookTopics, topic)
	}
}
