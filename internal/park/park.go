// Package park is the one way a backend goroutine waits for another: a
// bounded queue send (Send) and a wait for a condition another goroutine
// makes true (Gate.Wait). Every wait ends on progress, on teardown, or at
// an optional deadline, and is counted at its Site while it is parked, so
// a wait that never ends shows as a count and an age instead of only in a
// goroutine dump.
package park

import (
	"errors"
	"net"
	"slices"
	"sync/atomic"
	"time"
)

// ErrDeadline is what Gate.Wait returns when its timeout passes before
// the condition holds.
var ErrDeadline = errors.New("park: deadline passed")

// Site is one kind of wait. It counts the goroutines parked there and
// stamps when the current parked run began: atomics touched only on the
// slow path, so a reader takes no lock.
type Site struct {
	name   string
	parked atomic.Int64
	since  atomic.Int64 // time since epoch when parked last rose from zero
}

// sites lists every Site. It takes no lock: NewSite is for package-level
// variable declarations, which initialise one at a time.
var sites []*Site

var epoch = time.Now()

// NewSite registers a kind of wait under name, once per kind.
func NewSite(name string) *Site {
	s := &Site{name: name}
	sites = append(sites, s)
	return s
}

// Sites returns every registered site, in registration order.
func Sites() []*Site { return slices.Clone(sites) }

// Name returns the name the site was registered under.
func (s *Site) Name() string { return s.name }

// Parked returns how many goroutines are parked at the site now.
func (s *Site) Parked() int { return int(s.parked.Load()) }

// Age returns how long the site has had a goroutine parked without a
// break, which bounds the age of its oldest wait; zero when none is
// parked.
func (s *Site) Age() time.Duration {
	if s.parked.Load() == 0 {
		return 0
	}
	return time.Since(epoch) - time.Duration(s.since.Load())
}

func (s *Site) enter() {
	if s.parked.Add(1) == 1 {
		s.since.Store(int64(time.Since(epoch)))
	}
}

func (s *Site) exit() { s.parked.Add(-1) }

// Send puts v on ch. While ch is full it parks at site, until there is
// room or teardown closes, which it reports as net.ErrClosed. The caller
// fences the send against the close of ch itself.
//
//safeweb:hotpath
func Send[T any](ch chan<- T, v T, teardown <-chan struct{}, site *Site) error {
	select {
	case ch <- v:
		return nil
	default:
	}
	return sendSlow(ch, v, teardown, site) //lint:ignore hotpathlock parking is the declared slow path once the queue is full
}

func sendSlow[T any](ch chan<- T, v T, teardown <-chan struct{}, site *Site) error {
	site.enter()
	defer site.exit()
	select {
	case ch <- v:
		return nil
	case <-teardown:
		return net.ErrClosed
	}
}

// Gate wakes the goroutines waiting for a condition another goroutine
// makes true. Its channel is made only when a waiter parks, and Wake
// closes and clears it. The zero Gate is ready to use.
type Gate struct {
	ch atomic.Value // chan struct{}; nil while nobody is parked
}

// Wake releases every goroutine parked on the gate. Call it after making
// their condition true. It takes no lock and never blocks, so it may be
// called under any lock; with nobody parked it is one atomic load.
func (g *Gate) Wake() {
	if ch, _ := g.ch.Load().(chan struct{}); ch != nil && g.ch.CompareAndSwap(ch, chan struct{}(nil)) {
		close(ch)
	}
}

// Wait returns nil once ready reports true, net.ErrClosed once teardown
// closes, or ErrDeadline once timeout passes; a zero timeout arms no
// timer. The gate holds no lock while ready runs, so ready may take the
// lock that guards its condition. ready is checked again on every exit:
// a condition that holds wins over a teardown or deadline that fires with
// it. A wait that does not return at once parks at site.
func (g *Gate) Wait(ready func() bool, teardown <-chan struct{}, timeout time.Duration, site *Site) error {
	if ready() {
		return nil
	}
	site.enter()
	defer site.exit()
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		// Armed before ready is read, so a Wake after that read closes
		// the channel this wait selects on.
		old := g.ch.Load()
		wake, _ := old.(chan struct{})
		if wake == nil {
			wake = make(chan struct{})
			if !g.ch.CompareAndSwap(old, wake) {
				continue
			}
		}
		if ready() {
			return nil
		}
		var err error
		select {
		case <-wake:
		case <-teardown:
			err = net.ErrClosed
		case <-expired:
			err = ErrDeadline
		}
		// Checked before re-arming: a waiter a Wake satisfied leaves the
		// gate without a channel, so the next Wake is one atomic load.
		if ready() {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
