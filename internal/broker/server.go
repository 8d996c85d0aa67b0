package broker

import (
	"crypto/tls"
	"errors"
	"fmt"
	"log"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"safeweb/internal/event"
	"safeweb/internal/journal"
	"safeweb/internal/stomp"
)

// OverflowPolicy selects what the network front does when a matched
// delivery meets a session whose write queue, or a credited
// subscription's pending ring, is full — the slow-consumer decision
// point. The policy is fixed at server construction, so the per-delivery
// check is a plain field read on the fan-out fast path. A queued delivery
// is never dropped on its own: every policy decides only the incoming one.
type OverflowPolicy int

const (
	// OverflowBlock blocks the publishing goroutine until the session's
	// writer drains, or a credit grant frees a ring slot (the seed
	// behaviour): lossless back-pressure, but a peer that stopped reading
	// or granting head-of-line-blocks every delivery routed through that
	// goroutine. Pair it with ServerConfig.WriteTimeout, which bounds both
	// waits and evicts the peer when one passes; leave it unbounded only
	// for trusted in-process tests. Server.Close ends every wait.
	OverflowBlock OverflowPolicy = iota
	// OverflowDropNewest drops the incoming delivery, counts it in
	// Stats().OverflowDrops and reports it through OnDeliveryError with
	// ErrSlowConsumer. Oldest queued deliveries survive — the backlog
	// keeps its history and loses the present.
	OverflowDropNewest
	// OverflowDisconnect drops the incoming delivery like
	// OverflowDropNewest and evicts the whole session once
	// overflowEvictAfter consecutive deliveries have overflowed: a
	// consumer that persistently cannot keep up is disconnected rather
	// than served an ever-gappier stream.
	OverflowDisconnect
)

// String returns the flag-friendly name of the policy.
func (p OverflowPolicy) String() string {
	switch p {
	case OverflowBlock:
		return "block"
	case OverflowDropNewest:
		return "drop-newest"
	case OverflowDisconnect:
		return "disconnect"
	}
	return "overflow(" + strconv.Itoa(int(p)) + ")"
}

// ParseOverflowPolicy parses the flag-friendly policy names accepted by
// the deployment binaries: block, drop-newest, disconnect.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "", "block":
		return OverflowBlock, nil
	case "drop-newest":
		return OverflowDropNewest, nil
	case "disconnect":
		return OverflowDisconnect, nil
	}
	return 0, fmt.Errorf("broker: unknown overflow policy %q (want block, drop-newest or disconnect)", s)
}

// ErrSlowConsumer marks a delivery suppressed by the overflow policy: the
// session's write queue or the subscription's credit ring was full and
// the policy chose to drop rather than block, or a blocked wait for ring
// space outlived WriteTimeout. It reaches OnDeliveryError so no
// suppressed flow is silent.
var ErrSlowConsumer = errors.New("broker: delivery dropped: slow consumer write queue overflow")

// overflowEvictAfter is the number of consecutive overflows after which
// OverflowDisconnect evicts a session.
const overflowEvictAfter = 8

// ServerConfig configures the STOMP network front of a broker.
type ServerConfig struct {
	// Authenticate validates CONNECT credentials; nil accepts everyone
	// (deployments inside the Intranet zone rely on network partitioning,
	// paper Fig. 4; DMZ-facing brokers must set this).
	Authenticate stomp.Authenticator
	// TLS enables transport security ("extended with SSL support at the
	// transport layer", §4.2).
	TLS *tls.Config
	// Logf logs; nil uses log.Printf.
	Logf func(format string, args ...any)
	// Overflow is the per-session delivery overflow policy; the zero
	// value is OverflowBlock, the seed behaviour.
	Overflow OverflowPolicy
	// WriteQueueLen is each session's delivery queue length in frames;
	// zero selects the transport default (128). Negative values are
	// rejected at construction.
	WriteQueueLen int
	// WriteTimeout bounds every write and flush to a session: a peer that
	// stops reading fails its connection with a sticky deadline error
	// instead of wedging the session's writer (and, under OverflowBlock,
	// the publishing goroutine) forever. Under OverflowBlock it also bounds
	// a publisher's wait for space in a credited subscription's full
	// pending ring: a consumer that stops granting for that long is
	// evicted (SlowConsumerEvictions) and the delivery is counted in
	// OverflowDrops. Zero disables both bounds. Whatever the peers do,
	// Server.Close returns within closeFlushTimeout (2 s: the sessions'
	// close drains, armed together) plus one callback (OnDeliveryError):
	// it ends every wait on a session's writer queue or credit ring and
	// counts the delivery a wait held in DroppedDeliveries. A nonzero
	// WriteTimeout re-arms each write of a drain, so a peer still reading,
	// slowly, can stretch it.
	WriteTimeout time.Duration
	// OnDeliveryError observes deliveries the network front had to drop —
	// an event that matched a subscription but could not be marshalled
	// for the wire, could not be written to a closed or write-failed
	// session, or was suppressed by the overflow policy (err is then
	// ErrSlowConsumer). ev is the event not delivered; it is nil only for
	// a journal record a durable replay could not read or write. A
	// mediating broker must leave an audit trail for any suppressed flow,
	// so nil falls back to Logf; every drop is also counted in Stats().
	// The hook runs on the delivering goroutine and must not block.
	OnDeliveryError func(sessionID uint64, subscription string, ev *event.Event, err error)
	// Durable lists topic patterns (same grammar as SUBSCRIBE
	// destinations: exact, trailing "/*", or "*") whose publishes are
	// appended to per-topic journals under JournalDir; consumers replay
	// and resume them with SUBSCRIBE offset/group headers. Requires
	// JournalDir.
	Durable []string
	// JournalDir is the root directory for durable-topic journals; one
	// subdirectory per topic. Required when Durable is non-empty.
	JournalDir string
	// JournalSegmentSize overrides the journal segment roll threshold in
	// bytes; zero selects the journal default (64 MiB).
	JournalSegmentSize int64
	// JournalSync is the journal fsync policy; the zero value is
	// journal.SyncNever. journal.SyncBatch group-commits fsyncs on a
	// per-journal syncer (everything written while one fsync runs is
	// covered by the next) and only publishes a record for replay once its
	// batch is on stable storage.
	JournalSync journal.SyncPolicy
	// JournalRetentionAge, when positive, expires journal segments whose
	// newest record is older — acked or not; retention is the storage
	// bound. Zero keeps segments until their acked prefix is compacted.
	JournalRetentionAge time.Duration
	// JournalRetentionBytes, when positive, bounds each durable topic's
	// journal directory: oldest segments are deleted first until the
	// total fits. Enforced on every segment roll and on CompactJournals.
	JournalRetentionBytes int64
	// OnJournalError observes durable-journal append failures: a publish
	// on a durable topic that could not be journaled. A durable topic
	// silently ceasing to be durable would defeat the audit trail, so nil
	// falls back to Logf; every failure is also counted in Stats. Runs on
	// the publishing goroutine and must not block.
	OnJournalError func(topic string, err error)
}

// ServerStats counts network-front activity not visible in the core
// broker's Stats.
type ServerStats struct {
	// DroppedDeliveries counts matched deliveries dropped because the
	// event could not be marshalled into a MESSAGE frame or written to
	// the session (closed or write-failed connection).
	DroppedDeliveries uint64
	// OverflowDrops counts matched deliveries suppressed by the overflow
	// policy: drop-newest and disconnect drops, and deliveries whose
	// OverflowBlock wait for credit ring space outlived WriteTimeout.
	OverflowDrops uint64
	// SlowConsumerEvictions counts sessions disconnected by
	// OverflowDisconnect or by a credit ring wait outliving WriteTimeout.
	SlowConsumerEvictions uint64
	// QueueHighWater is the deepest per-session delivery-queue occupancy
	// observed on any session, live or since departed.
	QueueHighWater int
	// CreditStalls counts stall runs on credited subscriptions: each time
	// a matched delivery found a subscription's pending ring empty and
	// stayed parked there, its delivery window spent.
	CreditStalls uint64
	// UnhandledFrames counts client frames the server rejected with an
	// ERROR because it does not implement the command (NACK, transactions,
	// unknown commands) or the frame was malformed for the one use the
	// server has for it (ACK without a valid credit grant).
	UnhandledFrames uint64
	// DurableAppends counts publishes journaled to durable topics;
	// JournalAppendErrors counts appends that failed (each is also routed
	// through OnJournalError or logged — a durable topic silently losing
	// history would defeat the audit trail).
	DurableAppends      uint64
	JournalAppendErrors uint64
	// ReplayDeliveries counts MESSAGE frames served from journals by
	// durable subscriptions; ReplayFiltered counts journal records
	// withheld from a replaying consumer by the clearance check at read
	// time (or by an unreadable persisted label header, which fails
	// closed).
	ReplayDeliveries uint64
	ReplayFiltered   uint64
	// RevokedDeliveries counts deliveries a policy change stopped after
	// they were matched but before they were decided: parked deliveries
	// found no longer cleared when they left the pending ring, and
	// journal records a replay feed found no longer cleared after waiting
	// for its window.
	RevokedDeliveries uint64
	// CompactedSegments counts journal segments deleted because every
	// consumer group's ack covered them; RetentionDeletes counts segments
	// the time/size retention windows deleted regardless of acks.
	CompactedSegments uint64
	RetentionDeletes  uint64
	// ClampedResumes counts durable subscriptions (or running replays)
	// whose position fell below a journal's FirstOffset and was clamped
	// forward to it — the records in between were compacted away, and
	// that gap is never silent.
	ClampedResumes uint64
}

// SessionStats is a point-in-time snapshot of one live session's delivery
// accounting, for dashboards and soak-test assertions.
type SessionStats struct {
	ID            uint64
	Login         string
	Subscriptions int
	// QueueDepth, QueueCap and QueueHighWater describe the session's
	// delivery queue: current occupancy, capacity, and the deepest
	// occupancy observed.
	QueueDepth     int
	QueueCap       int
	QueueHighWater int
	// OverflowDrops counts this session's deliveries suppressed by the
	// overflow policy.
	OverflowDrops uint64
	// CreditStalls counts this session's credited-subscription stall runs;
	// CreditParked is the current total of deliveries parked in this
	// session's pending rings awaiting a credit grant.
	CreditStalls uint64
	CreditParked int
}

// Server exposes a Broker over STOMP. Logins name the policy principal of
// the connection; SUBSCRIBE and SEND frames are translated to broker
// operations with label semantics preserved.
type Server struct {
	broker  *Broker
	stomp   *stomp.Server
	cfg     ServerConfig
	enqueue stomp.EnqueueMode // cfg.Overflow, resolved to the transport's mode once at construction

	// journals backs the durable topics; nil when none are configured
	// and no JournalDir was given. tapRemoves undoes the publish taps at
	// Close.
	journals   *journalStore
	tapRemoves []func()

	// closing is closed when Close begins, before it waits for session
	// read loops: a read loop waiting for credit ring space gives up.
	closing   chan struct{}
	closeOnce sync.Once

	droppedDeliveries   atomic.Uint64
	overflowDrops       atomic.Uint64
	slowEvictions       atomic.Uint64
	creditStalls        atomic.Uint64
	unhandledFrames     atomic.Uint64
	durableAppends      atomic.Uint64
	journalAppendErrors atomic.Uint64
	replayDeliveries    atomic.Uint64
	replayFiltered      atomic.Uint64
	revokedDeliveries   atomic.Uint64
	compactedSegments   atomic.Uint64
	retentionDeletes    atomic.Uint64
	clampedResumes      atomic.Uint64
	// departedHighWater folds the queue high-water marks of closed
	// sessions so Stats() keeps the all-time maximum.
	departedHighWater atomic.Int64

	mu       sync.Mutex
	sessions map[uint64]*serverSession
}

type serverSession struct {
	sess *stomp.Session
	// subs maps the client-chosen subscription id to the broker
	// subscription and its optional credit window.
	subs map[string]*wireSub

	// idPrefix is the session's message-id prefix ("m-<session>-");
	// msgSeq numbers messages within it without touching the server lock.
	idPrefix string
	msgSeq   atomic.Uint64

	// overflowDrops counts deliveries to this session suppressed by the
	// overflow policy; consecOverflows tracks the current run of
	// overflowing deliveries for OverflowDisconnect; evicted latches the
	// eviction so it fires exactly once, for either reason evict names;
	// creditStalls counts stall runs on this session's credited
	// subscriptions.
	overflowDrops   atomic.Uint64
	consecOverflows atomic.Uint32
	evicted         atomic.Bool
	creditStalls    atomic.Uint64

	// decCache memoises label-header parses and interns attribute keys
	// and destinations for this session's inbound SENDs; OnFrameView runs
	// on the session read goroutine only.
	decCache event.DecodeCache
}

// NewServer starts a STOMP front for the broker on addr.
func NewServer(addr string, b *Broker, cfg ServerConfig) (*Server, error) {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	var enqueue stomp.EnqueueMode
	switch cfg.Overflow {
	case OverflowBlock:
		enqueue = stomp.EnqueueBlock
	case OverflowDropNewest, OverflowDisconnect:
		enqueue = stomp.EnqueueTry
	default:
		return nil, fmt.Errorf("broker: unknown overflow policy %d", cfg.Overflow)
	}
	if len(cfg.Durable) > 0 && cfg.JournalDir == "" {
		return nil, errors.New("broker: ServerConfig.Durable requires JournalDir")
	}
	if cfg.JournalSegmentSize < 0 {
		return nil, fmt.Errorf("broker: ServerConfig.JournalSegmentSize must not be negative, got %d", cfg.JournalSegmentSize)
	}
	if cfg.JournalRetentionAge < 0 {
		return nil, fmt.Errorf("broker: ServerConfig.JournalRetentionAge must not be negative, got %v", cfg.JournalRetentionAge)
	}
	if cfg.JournalRetentionBytes < 0 {
		return nil, fmt.Errorf("broker: ServerConfig.JournalRetentionBytes must not be negative, got %d", cfg.JournalRetentionBytes)
	}
	srv := &Server{
		broker:   b,
		cfg:      cfg,
		enqueue:  enqueue,
		closing:  make(chan struct{}),
		sessions: make(map[uint64]*serverSession),
	}
	if cfg.JournalDir != "" {
		srv.journals = newJournalStore(cfg.JournalDir, journal.Options{
			SegmentSize:    cfg.JournalSegmentSize,
			Sync:           cfg.JournalSync,
			RetentionAge:   cfg.JournalRetentionAge,
			RetentionBytes: cfg.JournalRetentionBytes,
			OnCompact:      srv.journalCompacted,
		})
		// Recover every existing journal now: torn tails are truncated and
		// ack tables rebuilt before the first publish or subscribe, and a
		// corrupt log fails construction instead of a consumer.
		if err := srv.journals.rescan(); err != nil {
			return nil, err
		}
		for _, pat := range cfg.Durable {
			rm, err := b.SubscribeTap(pat, srv.journalAppend)
			if err != nil {
				for _, r := range srv.tapRemoves {
					r()
				}
				return nil, fmt.Errorf("broker: durable pattern %q: %w", pat, err)
			}
			srv.tapRemoves = append(srv.tapRemoves, rm)
		}
	}
	st, err := stomp.NewServer(addr, stomp.ServerConfig{
		Handler:       srv,
		Authenticate:  cfg.Authenticate,
		TLS:           cfg.TLS,
		Logf:          cfg.Logf,
		WriteQueueLen: cfg.WriteQueueLen,
		WriteTimeout:  cfg.WriteTimeout,
	})
	if err != nil {
		for _, rm := range srv.tapRemoves {
			rm()
		}
		if srv.journals != nil {
			_ = srv.journals.closeAll()
		}
		return nil, err
	}
	srv.stomp = st
	return srv, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.stomp.Addr() }

// Close shuts down the network front (the broker itself stays open): every
// wait for credit ring space ends, the publish taps are removed so no
// append can race the journal teardown, then the stomp server drains its
// sessions (whose disconnect path stops every replay feed), and only then
// are the journals closed.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { close(s.closing) })
	for _, rm := range s.tapRemoves {
		rm()
	}
	err := s.stomp.Close()
	if s.journals != nil {
		if cerr := s.journals.closeAll(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats returns a snapshot of network-front counters.
func (s *Server) Stats() ServerStats {
	// The departed fold must be read inside the same critical section that
	// walks the live set: OnDisconnect removes a session and folds its
	// mark under the same lock, so ordering the load before it could miss
	// a session on both sides of the handoff.
	s.mu.Lock()
	hw := int(s.departedHighWater.Load())
	for _, ss := range s.sessions {
		if w := ss.sess.QueueHighWater(); w > hw {
			hw = w
		}
	}
	s.mu.Unlock()
	return ServerStats{
		DroppedDeliveries:     s.droppedDeliveries.Load(),
		OverflowDrops:         s.overflowDrops.Load(),
		SlowConsumerEvictions: s.slowEvictions.Load(),
		QueueHighWater:        hw,
		CreditStalls:          s.creditStalls.Load(),
		UnhandledFrames:       s.unhandledFrames.Load(),
		DurableAppends:        s.durableAppends.Load(),
		JournalAppendErrors:   s.journalAppendErrors.Load(),
		ReplayDeliveries:      s.replayDeliveries.Load(),
		ReplayFiltered:        s.replayFiltered.Load(),
		RevokedDeliveries:     s.revokedDeliveries.Load(),
		CompactedSegments:     s.compactedSegments.Load(),
		RetentionDeletes:      s.retentionDeletes.Load(),
		ClampedResumes:        s.clampedResumes.Load(),
	}
}

// SessionStats returns per-session delivery accounting for every live
// session, ordered by session id.
func (s *Server) SessionStats() []SessionStats {
	s.mu.Lock()
	out := make([]SessionStats, 0, len(s.sessions))
	for _, ss := range s.sessions {
		parked := 0
		for _, ws := range ss.subs {
			if ws.credit != nil {
				parked += int(ws.credit.parked.Load())
			}
		}
		out = append(out, SessionStats{
			ID:             ss.sess.ID(),
			Login:          ss.sess.Login(),
			Subscriptions:  len(ss.subs),
			QueueDepth:     ss.sess.QueueDepth(),
			QueueCap:       ss.sess.QueueCap(),
			QueueHighWater: ss.sess.QueueHighWater(),
			OverflowDrops:  ss.overflowDrops.Load(),
			CreditStalls:   ss.creditStalls.Load(),
			CreditParked:   parked,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// OnConnect implements stomp.SessionHandler.
func (s *Server) OnConnect(sess *stomp.Session, login string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions[sess.ID()] = &serverSession{
		sess:     sess,
		subs:     make(map[string]*wireSub),
		idPrefix: "m-" + strconv.FormatUint(sess.ID(), 10) + "-",
	}
	return nil
}

// OnDisconnect implements stomp.SessionHandler.
func (s *Server) OnDisconnect(sess *stomp.Session) {
	// Fold the departing session's high-water mark into the server-wide
	// maximum inside the same critical section that removes it from the
	// live set, so a concurrent Stats() snapshot can never observe the
	// session as neither live nor folded and report a dip. The mark is
	// read before the lock (it is final once the session's writer has
	// stopped) and folded with a CAS-max, so a repeated fold is harmless.
	hw := int64(sess.QueueHighWater())
	s.mu.Lock()
	ss := s.sessions[sess.ID()]
	delete(s.sessions, sess.ID())
	for {
		cur := s.departedHighWater.Load()
		if hw <= cur || s.departedHighWater.CompareAndSwap(cur, hw) {
			break
		}
	}
	s.mu.Unlock()
	if ss == nil {
		return
	}
	for id, ws := range ss.subs {
		s.closeSub(ss, id, ws)
	}
}

// OnFrameView implements stomp.SessionHandler: the map-free inbound
// path. SEND frames — the hot path — go straight from the decoder's
// header view to an event in one pass (event.UnmarshalView); control
// frames pull the few headers they need as owned strings.
func (s *Server) OnFrameView(sess *stomp.Session, v *stomp.FrameView) error {
	s.mu.Lock()
	ss := s.sessions[sess.ID()]
	s.mu.Unlock()
	if ss == nil {
		return fmt.Errorf("broker: no session state for %d", sess.ID())
	}

	switch v.Command {
	case stomp.CmdSend:
		ev, err := event.UnmarshalView(&v.Headers, v.Body, &ss.decCache)
		if err != nil {
			return err
		}
		return s.broker.Publish(sess.Login(), ev)

	case stomp.CmdSubscribe:
		clientID := v.Headers.Header(stomp.HdrID)
		if clientID == "" {
			return fmt.Errorf("broker: SUBSCRIBE without id header")
		}
		// An id already in use is refused before anything is registered:
		// replacing its entry would orphan the earlier subscription, which
		// no UNSUBSCRIBE or teardown could then reach. Only this session's
		// read goroutine writes ss.subs, so it may read it unlocked.
		if ss.subs[clientID] != nil {
			return s.unhandledFrame("SUBSCRIBE id " + clientID + " is already in use on this session")
		}
		topic := v.Headers.Header(stomp.HdrDestination)
		sel := v.Headers.Header(stomp.HdrSelector)
		// An optional credit header arms a delivery window for the
		// subscription; without it the wire behaviour is unchanged —
		// infinite credit, no per-subscription state.
		var window int64
		if cr := v.Headers.Header(stomp.HdrCredit); cr != "" {
			var err error
			if window, err = stomp.ParseCredit(cr); err != nil {
				return err
			}
		}
		// An offset or group header makes this a durable subscription: it
		// is fed from the topic's journal tail instead of the live fan-out
		// (one delivery path, so resume cannot duplicate), with clearance
		// re-enforced per record at read time and the window kept by its
		// replay feed.
		if offStr, group := v.Headers.Header(stomp.HdrOffset), v.Headers.Header(stomp.HdrGroup); offStr != "" || group != "" {
			return s.subscribeDurable(ss, clientID, topic, sel, offStr, group, window)
		}
		ws := &wireSub{}
		if window > 0 {
			ws.credit = newCreditState(sess.Login(), window)
		}
		// A wire subscription: delivery only serialises the event, so the
		// broker hands over the frozen original — every session
		// then shares one event pointer and one wire image per publish.
		// The delivery closure reads only ws.credit, set above, so the
		// ws.sub assignment after SubscribeWire returns does not race with
		// deliveries that fire during registration.
		sub, err := s.broker.SubscribeWire(sess.Login(), topic, sel, func(ev *event.Event) {
			s.deliver(ss, ws, clientID, ev)
		})
		if err != nil {
			return err
		}
		ws.sub = sub
		s.mu.Lock()
		ss.subs[clientID] = ws
		s.mu.Unlock()
		return nil

	case stomp.CmdUnsubscribe:
		clientID := v.Headers.Header(stomp.HdrID)
		s.mu.Lock()
		ws := ss.subs[clientID]
		delete(ss.subs, clientID)
		s.mu.Unlock()
		if ws != nil {
			s.closeSub(ss, clientID, ws)
		}
		return nil

	case stomp.CmdAck:
		// The server runs auto-ack with no per-message acknowledgement;
		// ACK carries a credit replenishment grant, a durable offset ack,
		// or both on one frame (the piggyback a durable credited consumer
		// uses). Whatever is present is applied; a frame carrying neither
		// is unhandled.
		cr := v.Headers.Header(stomp.HdrCredit)
		offStr := v.Headers.Header(stomp.HdrOffset)
		if cr == "" && offStr == "" {
			return s.unhandledFrame("ACK without credit or offset header (the server is auto-ack; ACK only carries credit grants and durable offset acks)")
		}
		// Parse both before applying either: a frame half-malformed must
		// reject as a unit, never grant-and-error.
		var grant, offset int64
		if cr != "" {
			var err error
			if grant, err = stomp.ParseCredit(cr); err != nil {
				s.unhandledFrames.Add(1)
				return err
			}
		}
		if offStr != "" {
			var err error
			if offset, err = stomp.ParseOffsetAck(offStr); err != nil {
				s.unhandledFrames.Add(1)
				return err
			}
		}
		subID := v.Headers.Header(stomp.HdrSubscription)
		if subID == "" {
			return s.unhandledFrame("ACK without subscription header")
		}
		s.mu.Lock()
		ws := ss.subs[subID]
		s.mu.Unlock()
		if ws == nil {
			// An ack racing UNSUBSCRIBE or teardown has nothing left to
			// apply to; that is the normal end of a stream, not a protocol
			// error.
			return nil
		}
		// A durable subscription's feed applies the count of processed
		// deliveries and the grant together, or refuses the whole frame
		// (a count it never delivered, a grant it has no window for).
		if f := ws.replay; f != nil {
			if mark, err := f.ack(offset, grant); err != nil {
				return s.unhandledFrame("ACK for subscription " + subID + ": " + err.Error())
			} else if mark > 0 {
				return f.j.Ack(f.group, mark)
			}
			return nil
		}
		if offStr != "" {
			return s.unhandledFrame("ACK offset for subscription " + subID + ", which is not durable")
		}
		if ws.credit == nil {
			return s.unhandledFrame("ACK credit grant for subscription " + subID + ", which subscribed without a credit window")
		}
		s.creditGrant(ss, subID, ws, grant)
		return nil

	case stomp.CmdNack, stomp.CmdBegin, stomp.CmdCommit, stomp.CmdAbort:
		return s.unhandledFrame("command " + v.Command + " is not supported (auto-ack, no transactions)")

	default:
		return s.unhandledFrame("unknown command " + v.Command)
	}
}

// unhandledFrame counts and rejects a client frame the server has no
// handling for; the stomp layer answers with an ERROR frame carrying the
// message, so the rejection names the command instead of vanishing.
func (s *Server) unhandledFrame(msg string) error {
	s.unhandledFrames.Add(1)
	return errors.New("broker: unhandled frame: " + msg)
}

// deliver sends a matched event to a session as a MESSAGE frame. The
// event's wire image — canonical header block plus body — is encoded once
// per published event (Event.WireImage) and shared across every matching
// subscription on every session; only the per-delivery
// subscription and message-id routing headers are encoded per send, and
// they exist only on the wire. The frames feed the session's coalescing
// writer, so a fan-out burst costs one flush.
//
// This runs on the publishing goroutine. A credited subscription first
// claims credit on a lock-free fast path — one atomic load and one CAS —
// and deliveries that cannot claim (window exhausted, or earlier
// deliveries already parked) divert to the pending ring. Uncredited
// subscriptions (no credit header) skip the gate entirely.
//
//safeweb:hotpath
func (s *Server) deliver(ss *serverSession, ws *wireSub, clientSubID string, ev *event.Event) {
	if ws.credit != nil && !ws.credit.tryClaim() {
		//lint:ignore hotpathlock parking is the declared slow path once the credit window is exhausted
		s.parkDelivery(ss, ws, clientSubID, ev)
		return
	}
	s.sendDelivery(ss, clientSubID, ev)
}

// sendDelivery puts one matched delivery on the session's wire. The
// overflow policy, resolved to an enqueue mode at construction, decides
// whether a session whose delivery queue is full may block the publisher
// (OverflowBlock) or loses the incoming delivery (drop-newest,
// disconnect: not queued). Whatever is not queued goes to suppress.
func (s *Server) sendDelivery(ss *serverSession, clientSubID string, ev *event.Event) {
	img, err := ev.WireImage()
	if err == nil {
		route := stomp.Route{Subscription: clientSubID, IDPrefix: ss.idPrefix, Seq: ss.msgSeq.Add(1)}
		var queued bool
		if queued, err = ss.sess.Deliver(img, route, s.enqueue); err == nil && !queued {
			err = ErrSlowConsumer
		}
	}
	switch {
	case err != nil:
		s.suppress(ss, clientSubID, ev, err)
	case s.cfg.Overflow == OverflowDisconnect:
		ss.consecOverflows.Store(0)
	}
}

// suppress is the one account of a matched delivery the network front
// does not put on the wire, so none is lost silently. ErrSlowConsumer — an
// overflow drop from the write queue or the credit ring — counts in
// OverflowDrops for the server and the session; anything else (a marshal
// failure, a closed or failed session) counts in DroppedDeliveries. Each
// is then reported through OnDeliveryError, or Logf when that is nil.
// Under OverflowDisconnect a run of overflowEvictAfter consecutive
// overflows then evicts the session.
func (s *Server) suppress(ss *serverSession, subscription string, ev *event.Event, err error) {
	var evict bool
	if errors.Is(err, ErrSlowConsumer) {
		s.overflowDrops.Add(1)
		ss.overflowDrops.Add(1)
		evict = s.cfg.Overflow == OverflowDisconnect && ss.consecOverflows.Add(1) >= overflowEvictAfter
	} else {
		s.droppedDeliveries.Add(1)
	}
	if s.cfg.OnDeliveryError != nil {
		s.cfg.OnDeliveryError(ss.sess.ID(), subscription, ev, err)
	} else {
		s.cfg.Logf("broker: dropped delivery to session %d sub %s: %v", ss.sess.ID(), subscription, err) //lint:ignore hotpathlock drop reporting runs only after a delivery already failed
	}
	if evict {
		s.evict(ss)
	}
}

// evict disconnects a slow consumer once: one that overflowed
// overflowEvictAfter times in a row under OverflowDisconnect, or whose
// credit ring kept a publisher waiting for WriteTimeout. Kill severs the
// transport without waiting for the backlog (the peer has stopped reading
// or granting), so this is safe on the publishing goroutine, and the
// session's read loop runs the ordinary disconnect teardown.
func (s *Server) evict(ss *serverSession) {
	if ss.evicted.Swap(true) {
		return
	}
	s.slowEvictions.Add(1)
	s.cfg.Logf("broker: evicting slow consumer session %d (%s): %d deliveries dropped",
		ss.sess.ID(), ss.sess.Login(), ss.overflowDrops.Load()) //lint:ignore hotpathlock eviction is terminal for the session; the formatting cost is irrelevant
	_ = ss.sess.Kill()
}
