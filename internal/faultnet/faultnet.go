// Package faultnet wraps net.Conn and net.Listener with controlled fault
// injection for networked tests: per-operation latency, partial writes,
// indefinite stalls, and mid-stream connection resets. The chaos suites
// use it to stand in for the misbehaving peers a production broker meets —
// a consumer on a congested link (latency), a peer whose writes fragment
// (partial writes), one that stops reading entirely (stall), and one that
// crashes without a close handshake (reset) — without hand-rolling the
// same connection abuse in every test.
//
// A Conn is safe for the usual net.Conn concurrency (one reader, one
// writer, any goroutine may Close); Stall, Resume and Reset may be called
// from any goroutine at any time. Faults apply to operations that begin
// after the call: an operation already blocked inside the underlying
// connection is released only by Close/Reset, exactly as with a plain
// net.Conn.
//
// The package also holds Quiescent, the check a test binary's TestMain
// runs after its tests: no goroutine of the project may outlive them.
package faultnet

import (
	"net"
	"sync"
	"time"
)

// Plan selects the faults a Conn injects. The zero value injects nothing:
// Wrap with a zero Plan is a transparent pass-through (plus the dynamic
// Stall/Reset controls).
type Plan struct {
	// ReadLatency is slept before each Read reaches the underlying
	// connection — a slow or congested consumer link.
	ReadLatency time.Duration
	// WriteLatency is slept before each Write begins.
	WriteLatency time.Duration
	// WriteChunk caps the bytes handed to each underlying Write call, so
	// one caller Write becomes several wire writes — the partial-write
	// case peers with small socket buffers or odd MTUs produce. Zero
	// writes whole buffers.
	WriteChunk int
}

// Conn is a net.Conn with fault injection. See the package comment for
// the concurrency contract.
type Conn struct {
	net.Conn
	plan Plan

	mu     sync.Mutex
	gate   chan struct{} // non-nil while stalled; closed by Resume/Close
	done   chan struct{} // closed by Close/Reset, releasing stalled ops
	closed bool
}

// Wrap returns c with plan's faults injected.
func Wrap(c net.Conn, plan Plan) *Conn {
	return &Conn{Conn: c, plan: plan, done: make(chan struct{})}
}

// Dial connects like net.Dial and wraps the connection.
func Dial(network, addr string, plan Plan) (*Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return Wrap(c, plan), nil
}

// Stall blocks every subsequent Read and Write until Resume (or
// Close/Reset). Operations already inside the underlying connection are
// unaffected. Stalling an already-stalled connection is a no-op.
func (c *Conn) Stall() {
	c.mu.Lock()
	if c.gate == nil && !c.closed {
		c.gate = make(chan struct{})
	}
	c.mu.Unlock()
}

// Resume releases a Stall. Resuming a connection that is not stalled is a
// no-op.
func (c *Conn) Resume() {
	c.mu.Lock()
	if c.gate != nil {
		close(c.gate)
		c.gate = nil
	}
	c.mu.Unlock()
}

// Reset severs the connection mid-stream without a close handshake: on
// TCP the pending-data discard makes the peer observe a hard reset rather
// than a clean EOF. Stalled operations are released with net.ErrClosed.
func (c *Conn) Reset() error {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		// Linger 0 discards unsent data and sends RST on close.
		_ = tc.SetLinger(0)
	}
	return c.Close()
}

// Close closes the underlying connection and releases any stalled
// operations with net.ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.done)
		if c.gate != nil {
			close(c.gate)
			c.gate = nil
		}
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

// await sleeps d and then waits out a stall, reporting net.ErrClosed if
// the connection closes first.
func (c *Conn) await(d time.Duration) error {
	if d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-c.done:
			timer.Stop()
			return net.ErrClosed
		}
	}
	c.mu.Lock()
	gate := c.gate
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return net.ErrClosed
	}
	if gate != nil {
		select {
		case <-gate:
		case <-c.done:
			return net.ErrClosed
		}
		// Re-check: Close may have been what released the gate.
		c.mu.Lock()
		closed = c.closed
		c.mu.Unlock()
		if closed {
			return net.ErrClosed
		}
	}
	return nil
}

// Read implements net.Conn with the plan's read faults.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.await(c.plan.ReadLatency); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn with the plan's write faults. With WriteChunk
// set, each chunk re-checks the stall gate, so a Stall lands between
// fragments of one caller Write — the torn-frame case.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.await(c.plan.WriteLatency); err != nil {
		return 0, err
	}
	chunk := c.plan.WriteChunk
	if chunk <= 0 || chunk >= len(p) {
		return c.Conn.Write(p)
	}
	written := 0
	for written < len(p) {
		if written > 0 {
			if err := c.await(0); err != nil {
				return written, err
			}
		}
		end := written + chunk
		if end > len(p) {
			end = len(p)
		}
		n, err := c.Conn.Write(p[written:end])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Listener wraps every accepted connection in the plan's faults — the
// server-side counterpart of Dial.
type Listener struct {
	net.Listener
	plan Plan

	mu    sync.Mutex
	conns []*Conn
}

// WrapListener returns ln with plan's faults injected into every accepted
// connection.
func WrapListener(ln net.Listener, plan Plan) *Listener {
	return &Listener{Listener: ln, plan: plan}
}

// Listen listens like net.Listen and wraps the listener.
func Listen(network, addr string, plan Plan) (*Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return WrapListener(ln, plan), nil
}

// Accept wraps the next accepted connection. Accepted connections are
// retained so StallAll/ResetAll can act on the whole fleet.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := Wrap(c, l.plan)
	l.mu.Lock()
	l.conns = append(l.conns, fc)
	l.mu.Unlock()
	return fc, nil
}

// StallAll stalls every connection accepted so far.
func (l *Listener) StallAll() {
	l.mu.Lock()
	conns := append([]*Conn(nil), l.conns...)
	l.mu.Unlock()
	for _, c := range conns {
		c.Stall()
	}
}

// ResetAll resets every connection accepted so far.
func (l *Listener) ResetAll() {
	l.mu.Lock()
	conns := append([]*Conn(nil), l.conns...)
	l.mu.Unlock()
	for _, c := range conns {
		_ = c.Reset()
	}
}
