package broker

import "safeweb/internal/event"

// AbruptClose tears down the client's connections without a DISCONNECT
// handshake — the chaos test's stand-in for a client crashing
// mid-stream.
func (c *Client) AbruptClose() {
	_ = c.conn.Close()
	_ = c.pub.Close()
}

// KillSessionAndDeliver severs the transport of the given server session
// and then force-delivers ev to its captured state, so tests can exercise
// the dead-session drop accounting deterministically — without racing the
// read loop's disconnect teardown for the session map entry. Returns false
// if the session is unknown.
func (s *Server) KillSessionAndDeliver(sessionID uint64, clientSubID string, ev *event.Event) bool {
	s.mu.Lock()
	ss := s.sessions[sessionID]
	s.mu.Unlock()
	if ss == nil {
		return false
	}
	_ = ss.sess.Kill()
	s.deliver(ss, &wireSub{}, clientSubID, ev)
	return true
}

// RingParked reports how many publishers, process-wide, are parked on a
// full credit ring.
func RingParked() int { return ringSite.Parked() }

// subsSnapshot exposes the current subscription list for tests.
func (b *Broker) subsSnapshot() []*Subscription {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]*Subscription, 0, len(b.subs))
	for _, sub := range b.subs {
		out = append(out, sub)
	}
	return out
}
