package broker

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"safeweb/internal/event"
	"safeweb/internal/journal"
	"safeweb/internal/park"
	"safeweb/internal/stomp"
)

// Durable topics: selected topic patterns (ServerConfig.Durable) are
// backed by per-topic append-only journals (package journal). The pieces:
//
//   - Append rides a broker publish tap (Broker.SubscribeTap), which sees
//     every accepted publish on a durable topic with no clearance or
//     selector filtering — the journal is the audit trail, so it must
//     record everything; clearance is re-enforced per consumer at replay
//     time against the then-current policy. The record payload is the
//     event's already-encoded wire image (Event.WireImage), so appending
//     costs zero re-marshal on the publish path.
//
//   - A SUBSCRIBE carrying an offset or group header becomes a durable
//     subscription: instead of registering with the live fan-out, a
//     replay feed goroutine tails the topic's journal from the resolved
//     start — the group's acked mark, or the explicit offset header
//     ("earliest" or "next", which wins over the group's mark). There is
//     no absolute start. New publishes reach the consumer through the
//     journal tail, ordered and gap-free, so a resumed consumer can never
//     see an event twice from two delivery paths.
//
//   - Journal offsets never leave the broker. A replayed MESSAGE is
//     routed exactly as a live one, and the consumer acks a count: the
//     ACK's offset header k says its first k deliveries on the
//     subscription are processed. A grouped feed keeps the journal offset
//     of each delivery it has queued and not yet seen acked (replayFeed's
//     ring), and persists one past delivery #k's offset through the
//     journal's max-wins ack log. Records withheld from the consumer are
//     never numbered, so the persisted mark stops just past the last
//     processed delivery, and a record withheld after it is read again —
//     and delivered, if the consumer has been cleared since — on resume.
//     Redelivery after a crash or resubscribe is exactly the unacked
//     suffix: at-least-once delivery with idempotent acks.
//
//   - A replay feed paces itself in one place (replayFeed.window):
//     before it queues a record it waits while the credit window, when
//     the SUBSCRIBE advertised one, is used up, or while a grouped feed
//     has maxUnackedReplay deliveries unacked. An ACK applies the count
//     and the grant together and wakes the feed. So a feed never floods a
//     consumer that asked for flow control, and a grouped feed keeps the
//     offset of every unacked delivery: the mark an ack persists is exact.
//     The session write queue's own back-pressure lies underneath.

// journalStore opens and caches one Journal per durable topic. Topics
// map to directories by URL path-escaping, which is stable, readable for
// the common "/a/b" shape, and collision-free.
type journalStore struct {
	dir  string
	opts journal.Options

	mu sync.Mutex
	m  map[string]*journal.Journal
}

func newJournalStore(dir string, opts journal.Options) *journalStore {
	return &journalStore{dir: dir, opts: opts, m: make(map[string]*journal.Journal)}
}

// rescan opens every journal already present under the store directory,
// so restart-time recovery (torn-tail truncation, ack-table rebuild)
// happens eagerly at server construction — a corrupt log fails the server
// fast instead of the first subscriber — and replay of topics no longer
// configured durable keeps working.
func (st *journalStore) rescan() error {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("broker: journal dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		topic, err := url.PathUnescape(e.Name())
		if err != nil {
			return fmt.Errorf("broker: journal dir entry %q: %w", e.Name(), err)
		}
		if _, err := st.open(topic); err != nil {
			return err
		}
	}
	return nil
}

// open returns the topic's journal, opening (and recovering) it on first
// use.
func (st *journalStore) open(topic string) (*journal.Journal, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j := st.m[topic]; j != nil {
		return j, nil
	}
	j, err := journal.Open(filepath.Join(st.dir, url.PathEscape(topic)), st.opts)
	if err != nil {
		return nil, err
	}
	st.m[topic] = j
	return j, nil
}

// compactAll runs one explicit compaction pass over every open journal:
// acked-prefix deletion plus the retention windows. The first error is
// returned; later journals are still compacted.
func (st *journalStore) compactAll() error {
	st.mu.Lock()
	js := make([]*journal.Journal, 0, len(st.m))
	for _, j := range st.m {
		js = append(js, j)
	}
	st.mu.Unlock()
	var err error
	for _, j := range js {
		if _, cerr := j.Compact(); err == nil {
			err = cerr
		}
	}
	return err
}

// has reports whether the store already holds a journal for topic.
func (st *journalStore) has(topic string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.m[topic] != nil
}

func (st *journalStore) closeAll() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var err error
	for _, j := range st.m {
		if cerr := j.Close(); err == nil {
			err = cerr
		}
	}
	st.m = make(map[string]*journal.Journal)
	return err
}

// journalAppend is the publish-tap handler recording one accepted publish
// on a durable topic. It runs on the publishing goroutine after Freeze,
// before fan-out, so the journal's order is the publish order. The record
// reuses the event's memoised wire image — the same bytes fan-out puts on
// the wire — and the label header Freeze memoised, so the append
// serialises nothing.
func (s *Server) journalAppend(ev *event.Event) {
	img, err := ev.WireImage()
	if err != nil {
		s.journalError(ev.Topic, err)
		return
	}
	j, err := s.journals.open(ev.Topic)
	if err != nil {
		s.journalError(ev.Topic, err)
		return
	}
	rec := journal.Record{
		Time:   time.Now().UnixNano(),
		Topic:  ev.Topic,
		Labels: ev.LabelHeader(),
		Split:  img.Split(),
		Image:  img.Bytes(),
	}
	if _, err := j.Append(&rec); err != nil {
		s.journalError(ev.Topic, err)
		return
	}
	s.durableAppends.Add(1)
}

// journalError accounts one durable-journal append failure: a publish
// that should be in the audit trail and is not. Counted always, then
// routed to the OnJournalError hook — or logged, so no suppressed append
// is silent.
func (s *Server) journalError(topic string, err error) {
	s.journalAppendErrors.Add(1)
	if s.cfg.OnJournalError != nil {
		s.cfg.OnJournalError(topic, err)
		return
	}
	s.cfg.Logf("broker: durable append for %s: %v", topic, err)
}

// journalCompacted is every journal's compaction observer: it folds the
// pass into the server counters.
func (s *Server) journalCompacted(cs journal.CompactStats) {
	s.compactedSegments.Add(uint64(cs.AckedSegments))
	s.retentionDeletes.Add(uint64(cs.RetentionSegments))
}

// CompactJournals runs an explicit compaction pass over every open
// durable-topic journal: the fully-acked segment prefix is deleted and
// the retention windows applied. Rolls enforce retention continuously;
// this is the operator's (and the ack path's) way to reclaim space
// without waiting for the next roll.
func (s *Server) CompactJournals() error {
	if s.journals == nil {
		return nil
	}
	return s.journals.compactAll()
}

// isDurableTopic reports whether the topic is journal-backed: covered by
// a configured Durable pattern, or already holding a journal from an
// earlier configuration (replay of old logs keeps working after a topic
// is removed from the durable set).
func (s *Server) isDurableTopic(topic string) bool {
	for _, pat := range s.cfg.Durable {
		if TopicMatches(pat, topic) {
			return true
		}
	}
	return s.journals != nil && s.journals.has(topic)
}

// maxUnackedReplay bounds a grouped feed's unacked deliveries: the feed
// keeps the journal offset of each one until the consumer acks it, and
// waits once this many are outstanding. A grouped consumer that never acks
// therefore stops receiving after maxUnackedReplay deliveries.
const maxUnackedReplay = 4096

// windowSite is where a replay feed parks while its window is shut.
var windowSite = park.NewSite("broker.replay-window")

// replayFeed is the per-durable-subscription tailing goroutine's handle:
// the journal it reads, the consumer's clearance gate, the consumer group
// whose acks it applies, its delivery window, and the stop signal
// teardown closes.
type replayFeed struct {
	clearance
	j        *journal.Journal
	group    string
	done     chan struct{}
	stopOnce sync.Once
	// window is what the feed parks on while its window is shut; ack
	// wakes it.
	window park.Gate

	// mu guards the window: sent counts the deliveries queued, acked the
	// count the consumer has acked, and granted its cumulative credit
	// grant (zero: the SUBSCRIBE advertised no credit window). A grouped
	// feed keeps delivery #d's journal offset in offs[(d-1)%maxUnackedReplay]
	// until it is acked; the ring grows by append up to that size.
	mu                   sync.Mutex
	sent, acked, granted int64
	offs                 []int64
}

// windowOpen reports whether the feed may queue one more delivery: its
// credit window has room and, for a grouped feed, fewer than
// maxUnackedReplay deliveries are unacked.
func (f *replayFeed) windowOpen() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return (f.granted == 0 || f.sent < f.granted) && (f.group == "" || f.sent-f.acked < maxUnackedReplay)
}

// record counts the delivery the feed is about to queue and, for a
// grouped feed, keeps its journal offset — before the consumer can ack it.
func (f *replayFeed) record(off int64) {
	f.mu.Lock()
	if f.group != "" {
		if i := int(f.sent % maxUnackedReplay); i == len(f.offs) {
			f.offs = append(f.offs, off)
		} else {
			f.offs[i] = off
		}
	}
	f.sent++
	f.mu.Unlock()
}

// ack applies one ACK frame: k, the consumer's count of processed
// deliveries, and grant, its cumulative credit grant (0 when the frame
// carries none). It returns the journal mark to persist, one past delivery
// #k's offset, or 0 when the feed is anonymous or k is 0 or already
// acked. A k above the deliveries sent, or a grant to a feed with no
// credit window, rejects the frame whole; otherwise the feed is woken.
func (f *replayFeed) ack(k, grant int64) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if grant > 0 && f.granted == 0 {
		return 0, errors.New("a credit grant, but it subscribed without a credit window")
	}
	var mark int64
	if f.group != "" {
		if k > f.sent {
			return 0, fmt.Errorf("ack of %d deliveries, but %d were sent", k, f.sent)
		}
		if k > f.acked {
			f.acked = k
			mark = f.offs[(k-1)%maxUnackedReplay] + 1
		}
	}
	f.granted = max(f.granted, grant)
	f.window.Wake()
	return mark, nil
}

func (f *replayFeed) stop() {
	f.stopOnce.Do(func() { close(f.done) })
}

// subscribeDurable handles a SUBSCRIBE carrying an offset or group
// header. The subscription is journal-only: no live broker registration,
// so the consumer has exactly one delivery path (the journal tail) and
// resumed replay can never race a live delivery into a duplicate. window
// is the SUBSCRIBE's credit window, zero when it advertised none.
func (s *Server) subscribeDurable(ss *serverSession, clientID, topic, sel, offStr, group string, window int64) error {
	if s.journals == nil {
		return errors.New("broker: durable subscription on a server with no journal directory configured")
	}
	if sel != "" {
		return errors.New("broker: durable subscriptions do not support selectors")
	}
	if matchAll, prefix := classifyTopic(topic); matchAll || prefix != "" {
		return fmt.Errorf("broker: durable subscription needs an exact topic, not pattern %q", topic)
	}
	if !s.isDurableTopic(topic) {
		return fmt.Errorf("broker: destination %q is not a durable topic", topic)
	}
	j, err := s.journals.open(topic)
	if err != nil {
		return err
	}

	// The explicit offset header wins over the group's acked mark, so an
	// operator can rewind or skip a group; a plain group resume starts at
	// exactly the first unacked record. An absolute start is refused: by
	// probing starts a consumer could find where its records sit in the
	// journal, and so how many it may not see.
	var start int64
	switch offStr {
	case "":
		start = j.Acked(group)
	case "earliest":
		start = 0
	case "next":
		start = j.NextOffset()
	default:
		return fmt.Errorf("broker: offset header %q: a durable start is earliest or next", offStr)
	}
	// Clamp to the retained range: compaction or retention may have
	// deleted the records below FirstOffset ("earliest" asks for offset
	// zero and lands here whenever anything was compacted). The gap is
	// counted and logged, never silent — the consumer resumes at the
	// oldest record that still exists.
	if first := j.FirstOffset(); start < first {
		s.clampedResumes.Add(1)
		s.cfg.Logf("broker: durable subscribe %s group %q: start offset %d compacted away, clamped to %d", topic, group, start, first)
		start = first
	}

	f := &replayFeed{clearance: clearance{principal: ss.sess.Login()}, j: j, group: group,
		done: make(chan struct{}), granted: window}
	s.mu.Lock()
	ss.subs[clientID] = &wireSub{replay: f}
	s.mu.Unlock()
	go s.runReplay(ss, f, clientID, topic, start)
	return nil
}

// runReplay tails the journal from offset next, delivering each readable
// record to the consumer and then waiting for the journal to publish more —
// the durable subscription's delivery loop. It reads the journal a run of
// up to 64 records (and 64 KiB) at a time, into one fresh buffer, and
// queues the run's deliveries as images in one fresh slab that aliases
// that buffer; an idle feed keeps its last run's buffer until its next
// read. Clearance is enforced here, per record as the feed reaches it,
// against the policy generation current then: the persisted label header
// is parsed through the feed's own label memo (event.LabelCache, which
// memoises parses, never verdicts, and owns the header strings the run
// hands back for the headers it holds), and a record the consumer no longer
// has clearance for is skipped and counted, never delivered — so revoking
// a privilege after an event was written is honoured on every later
// replay and for the rest of a run under way, fail closed (an unparsable
// persisted header is treated as undeliverable, not as unlabelled, and
// logged for each such record). A record that waited for its window is
// checked again if the policy generation moved during the wait: it is not
// decided until it is queued.
func (s *Server) runReplay(ss *serverSession, f *replayFeed, clientSubID, topic string, next int64) {
	policy := s.broker.Policy()
	var labels event.LabelCache
	var run [64]journal.Record
	for {
		for end := f.j.NextOffset(); next < end; {
			n, err := f.j.ReadRun(next, run[:], &labels)
			if err != nil {
				// The replay fell behind retention: the record at next (and
				// possibly more) was compacted away under us. Clamp forward
				// to the oldest surviving record — counted and logged, the
				// same never-silent contract as a clamped subscribe.
				if first := f.j.FirstOffset(); errors.Is(err, journal.ErrOffsetCompacted) && first > next {
					s.clampedResumes.Add(1)
					s.cfg.Logf("broker: replay %s sub %s: offset %d compacted away, resuming at %d", topic, clientSubID, next, first)
					next = first
					continue
				}
				s.suppress(ss, clientSubID, nil, err)
				return
			}
			imgs := make([]stomp.WireImage, n)
			for i := 0; i < n; i, next = i+1, next+1 {
				rec := &run[i]
				select {
				case <-f.done:
					return
				default:
				}
				// Fail closed: an unreadable label header means the
				// record's protection is unknown, so nobody gets it.
				set, err := labels.Parse(rec.Labels)
				if err != nil {
					s.cfg.Logf("broker: replay %s offset %d: bad label header: %v", rec.Topic, next, err)
					s.replayFiltered.Add(1)
					continue
				}
				conf := set.Confidentiality()
				gen := policy.Generation()
				if !conf.IsEmpty() && !f.clears(policy, gen, conf) {
					s.replayFiltered.Add(1)
					continue
				}
				// Wait for the window (credit, unacked deliveries); the
				// wait ends without it only at teardown. A record refused
				// after the wait was never counted, so it takes no room in
				// the window.
				if f.window.Wait(f.windowOpen, f.done, 0, windowSite) != nil {
					return
				}
				if g := policy.Generation(); g != gen && !conf.IsEmpty() && !f.clears(policy, g, conf) {
					s.revokedDeliveries.Add(1)
					continue
				}
				// The feed paces itself with its window, so the blocking
				// enqueue is the back-pressure it wants. The delivery is
				// recorded first, so no ack can name a delivery the feed
				// does not know.
				f.record(next)
				stomp.RawMessageImage(&imgs[i], rec.Image, rec.Split)
				route := stomp.Route{Subscription: clientSubID, IDPrefix: ss.idPrefix, Seq: ss.msgSeq.Add(1)}
				if _, err := ss.sess.Deliver(&imgs[i], route, stomp.EnqueueBlock); err != nil {
					s.suppress(ss, clientSubID, nil, err)
					return
				}
				s.replayDeliveries.Add(1)
			}
		}
		if !f.j.WaitAppend(next, f.done) {
			return
		}
	}
}
