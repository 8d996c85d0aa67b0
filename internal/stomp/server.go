package stomp

import (
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SessionHandler receives the frames of one authenticated client session.
// The server calls OnFrameView sequentially for each inbound frame of a
// session; implementations may send frames back at any time via the
// session's Send and Deliver methods, which are safe for concurrent use.
type SessionHandler interface {
	// OnConnect is called after a CONNECT frame is accepted. login is the
	// client's login header (the principal name used for policy lookups).
	OnConnect(sess *Session, login string) error
	// OnFrameView is called for each subsequent inbound frame except
	// DISCONNECT, handing it over as a decoder view — no header map is
	// built. The view and its headers are invalid once OnFrameView
	// returns (the session's next decode reuses the scratch buffer); the
	// body's ownership transfers to the handler. Handlers that want a
	// map-backed Frame call v.Materialize themselves.
	OnFrameView(sess *Session, v *FrameView) error
	// OnDisconnect is called exactly once when the session ends, whether
	// by DISCONNECT, error or connection loss.
	OnDisconnect(sess *Session)
}

// Session is one server-side client connection. Outbound frames pass
// through a write-coalescing writer goroutine: whatever is queued while
// it writes — MESSAGE bursts, RECEIPTs, errors — is encoded back-to-back
// and flushed once, when the queue is drained.
type Session struct {
	id    uint64
	login string

	conn net.Conn
	fw   *frameWriter

	closed atomic.Bool
}

// ID returns the server-unique session id.
func (s *Session) ID() uint64 { return s.id }

// Login returns the login (principal) name presented at CONNECT.
func (s *Session) Login() string { return s.login }

// Send queues a control frame for the client, blocking while the queue is
// full. It is safe for concurrent use; a nil return means the frame was
// accepted for delivery, not that it reached the peer (clients needing
// confirmation request a receipt).
func (s *Session) Send(f *Frame) error {
	if s.closed.Load() {
		return net.ErrClosed
	}
	return s.fw.send(outFrame{f: f})
}

// Deliver queues one delivery of a preencoded MESSAGE image, routed to a
// subscription: the image is shared across every session delivering the
// same published event (or wraps a journal record on replay) and is never
// copied or mutated; only the route's headers are encoded per delivery
// and they exist only on the wire, so fan-out to S sessions costs one
// marshal instead of S.
//
// mode says what a full queue does: EnqueueBlock waits for the writer to
// drain (back-pressure), and EnqueueTry returns (false, nil) immediately
// and leaves the overflow decision to the caller. The result is true when
// the delivery was queued; a queued delivery is never dropped except with
// the whole session.
func (s *Session) Deliver(img *WireImage, r Route, mode EnqueueMode) (bool, error) {
	if s.closed.Load() {
		return false, net.ErrClosed
	}
	return s.fw.enqueue(outFrame{img: img, route: r}, mode)
}

// QueueDepth returns the number of frames currently queued for the
// session's writer.
func (s *Session) QueueDepth() int { return len(s.fw.ch) }

// QueueCap returns the session's writer queue capacity.
func (s *Session) QueueCap() int { return cap(s.fw.ch) }

// QueueHighWater returns the deepest writer-queue occupancy observed on
// this session — the slow-consumer early-warning signal.
func (s *Session) QueueHighWater() int { return int(s.fw.highWater.Load()) }

// SendError sends an ERROR frame with the given message; the STOMP spec
// requires the connection to close afterwards, which the server does.
func (s *Session) SendError(msg string, body string) {
	f := NewFrame(CmdError)
	f.SetHeader(HdrMessage, msg)
	f.Body = []byte(body)
	_ = s.Send(f) // connection is being torn down; nothing to do on failure
}

// Close terminates the session's connection, draining queued frames (an
// ERROR or RECEIPT enqueued just before Close must reach the peer) under
// the writer's close deadline so a stalled peer cannot wedge teardown.
func (s *Session) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	_ = s.fw.close()
	return s.conn.Close()
}

// Kill severs the session immediately, discarding queued frames — the
// slow-consumer eviction path. Unlike Close it never waits for the writer
// to drain (the peer has demonstrably stopped reading), so it is safe to
// call from a publishing goroutine: the connection is closed first, which
// unblocks a writer wedged mid-flush with an error, and the writer then
// discards the backlog and exits on its own. The session's read loop
// observes the closed connection and runs the ordinary disconnect path.
func (s *Session) Kill() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.conn.Close()
	s.fw.kill()
	return err
}

// Authenticator validates CONNECT credentials. It returns an error to
// reject the connection.
type Authenticator func(login, passcode string) error

// ServerConfig configures a Server.
type ServerConfig struct {
	// Handler receives session frames. Required.
	Handler SessionHandler
	// Authenticate validates CONNECT credentials; nil accepts everyone.
	Authenticate Authenticator
	// TLS, when non-nil, wraps the listener in TLS (the paper extends
	// StompServer "with SSL support at the transport layer", §4.2).
	TLS *tls.Config
	// Logf logs server events; nil uses log.Printf.
	Logf func(format string, args ...any)
	// WriteQueueLen is each session's writer queue length in frames; zero
	// selects the default (128). NewServer rejects negative values: a
	// queue must exist for back-pressure (or an overflow policy) to have
	// meaning.
	WriteQueueLen int
	// WriteTimeout bounds every write and flush of a session's writer: a
	// peer that stops reading fails its connection with a sticky deadline
	// error instead of wedging the writer goroutine (and everything
	// blocked behind its queue) forever. Zero disables the deadline; the
	// close-time drain stays bounded by its own deadline either way.
	WriteTimeout time.Duration
}

// Server is a STOMP server: it owns the listener, performs the CONNECT
// handshake, and hands authenticated sessions to the configured handler.
type Server struct {
	cfg      ServerConfig
	queueLen int
	listener net.Listener

	mu       sync.Mutex
	sessions map[uint64]*Session
	nextID   uint64
	closed   bool

	wg sync.WaitGroup
}

// NewServer starts a server listening on addr ("host:port"; port 0 picks a
// free port). The returned server is already accepting connections.
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.Handler == nil {
		return nil, errors.New("stomp: ServerConfig.Handler is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	queueLen, err := resolveWriteQueueLen(cfg.WriteQueueLen)
	if err != nil {
		return nil, fmt.Errorf("stomp: ServerConfig.WriteQueueLen: %w", err)
	}
	if cfg.WriteTimeout < 0 {
		return nil, fmt.Errorf("stomp: ServerConfig.WriteTimeout must not be negative, got %v", cfg.WriteTimeout)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stomp: listen: %w", err)
	}
	if cfg.TLS != nil {
		ln = tls.NewListener(ln, cfg.TLS)
	}
	srv := &Server{
		cfg:      cfg,
		queueLen: queueLen,
		listener: ln,
		sessions: make(map[uint64]*Session),
	}
	srv.wg.Add(1)
	go srv.acceptLoop()
	return srv, nil
}

// Addr returns the listener address, e.g. for clients to dial.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops accepting, closes all sessions and waits for handler
// goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	err := s.listener.Close()
	// Every close drain's deadline is armed before any is waited for, so
	// peers that stopped reading cost one closeFlushTimeout, not one each.
	for _, sess := range sessions {
		sess.fw.shut(true)
	}
	for _, sess := range sessions {
		_ = sess.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.nextID++
		sess := &Session{id: s.nextID, conn: conn}
		// A write error kills the connection so the session's read loop
		// unblocks; the writer goroutine must not wait on Session.Close
		// (which waits on it in turn).
		sess.fw = newFrameWriter(conn, s.queueLen, s.cfg.WriteTimeout, func(error) { _ = conn.Close() })
		s.sessions[sess.id] = sess
		s.mu.Unlock()

		s.wg.Add(1)
		go s.serveSession(sess)
	}
}

func (s *Server) serveSession(sess *Session) {
	defer s.wg.Done()
	defer func() {
		_ = sess.Close()
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
	}()

	dec := NewDecoder(sess.conn)

	// Handshake: first frame must be CONNECT.
	first, err := dec.DecodeView()
	if err != nil {
		return
	}
	if first.Command != CmdConnect {
		sess.SendError("expected CONNECT", "")
		return
	}
	login := first.Headers.Header(HdrLogin)
	if s.cfg.Authenticate != nil {
		if err := s.cfg.Authenticate(login, first.Headers.Header(HdrPasscode)); err != nil {
			sess.SendError("authentication failed", err.Error())
			return
		}
	}
	sess.login = login
	if err := s.cfg.Handler.OnConnect(sess, login); err != nil {
		sess.SendError("connection rejected", err.Error())
		return
	}
	defer s.cfg.Handler.OnDisconnect(sess)

	connected := NewFrame(CmdConnected)
	connected.SetHeader(HdrSession, strconv.FormatUint(sess.id, 10))
	connected.SetHeader(HdrVersion, "1.1")
	if err := sess.Send(connected); err != nil {
		return
	}

	for {
		v, err := dec.DecodeView()
		if err != nil {
			if !errors.Is(err, io.EOF) && !isClosedConn(err) {
				var pe *ProtocolError
				if errors.As(err, &pe) {
					sess.SendError("protocol error", pe.Msg)
				}
				s.cfg.Logf("stomp: session %d read error: %v", sess.id, err)
			}
			return
		}
		if v.Command == CmdDisconnect {
			s.ack(sess, v)
			return
		}
		if err := s.cfg.Handler.OnFrameView(sess, v); err != nil {
			sess.SendError("frame rejected", err.Error())
			return
		}
		// The view's headers stay valid across the handler call (only the
		// body's ownership moved), so the receipt lookup is safe here.
		s.ack(sess, v)
	}
}

// ack sends a RECEIPT if the frame asked for one: the id itself is queued
// (a control frame, flushed with the writer's batch) and the writer's
// encoder emits the frame, so a receipt-tracked publish costs no Frame
// and no header map, and a burst of RECEIPTs leaves in one write. An id
// that is a canonical decimal — what every SafeWeb client sends — is
// queued as its number, so it costs no string either.
func (s *Server) ack(sess *Session, v *FrameView) {
	id, _ := v.Headers.GetBytes(HdrReceipt)
	if len(id) == 0 || sess.closed.Load() {
		return
	}
	of := outFrame{receiptNo: receiptNumber(id)}
	if of.receiptNo == 0 {
		of.receipt = string(id)
	}
	_ = sess.fw.send(of) // best effort; client may already be gone
}

// receiptNumber returns the value of a receipt id that is a canonical
// decimal — 1 to 19 digits, no leading zero, so exactly
// strconv.FormatUint of its value — and 0 for any other id.
func receiptNumber(id []byte) (n uint64) {
	if len(id) == 0 || len(id) > 19 || id[0] == '0' {
		return 0
	}
	for _, c := range id {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + uint64(c-'0')
	}
	return n
}

func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF)
}
