package park

import (
	"errors"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitParked waits until site has n goroutines parked.
func waitParked(t *testing.T, site *Site, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for site.Parked() != n {
		if time.Now().After(deadline) {
			t.Fatalf("site %s: %d parked, want %d", site.Name(), site.Parked(), n)
		}
		runtime.Gosched()
	}
}

// TestGateNoMissedWake races Wake against Wait: eight waiters each wait,
// with no deadline, for every value of a counter that one waker raises
// 2,000 times, waking after each raise and then waiting for all eight to
// see it. A lost wake-up leaves a waiter parked on a value already
// reached, and the round never completes.
func TestGateNoMissedWake(t *testing.T) {
	const waiters, rounds = 8, 2000
	site := NewSite("test.storm")
	var g Gate
	var v atomic.Int64
	stop := make(chan struct{})
	seen := make(chan struct{}, waiters)
	var wg sync.WaitGroup
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for want := int64(1); want <= rounds; want++ {
				if g.Wait(func() bool { return v.Load() >= want }, stop, 0, site) != nil {
					return
				}
				seen <- struct{}{}
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)
	for r := 1; r <= rounds; r++ {
		v.Store(int64(r))
		g.Wake()
		for range waiters {
			select {
			case <-seen:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: a waiter missed its wake-up (%d parked)", r, site.Parked())
			}
		}
	}
	if n := site.Parked(); n != 0 {
		t.Fatalf("%d parked after every wait returned, want 0", n)
	}
}

// TestGateTeardownEndsWait: closing teardown ends a parked wait with
// net.ErrClosed, and the site reads zero parked afterwards.
func TestGateTeardownEndsWait(t *testing.T) {
	site := NewSite("test.teardown")
	var g Gate
	teardown := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- g.Wait(func() bool { return false }, teardown, 0, site) }()
	waitParked(t, site, 1)
	if site.Age() <= 0 {
		t.Errorf("Age = %v with a wait parked, want > 0", site.Age())
	}
	close(teardown)
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Wait = %v, want net.ErrClosed", err)
	}
	if site.Parked() != 0 || site.Age() != 0 {
		t.Fatalf("after return: parked %d, age %v; want 0, 0", site.Parked(), site.Age())
	}
}

// TestGateDeadlineEndsWait: a wait whose condition never holds ends at its
// timeout with ErrDeadline.
func TestGateDeadlineEndsWait(t *testing.T) {
	site := NewSite("test.deadline")
	var g Gate
	start := time.Now()
	err := g.Wait(func() bool { return false }, nil, 20*time.Millisecond, site)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Wait = %v, want ErrDeadline", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("Wait returned after %v, before its 20ms timeout", d)
	}
	if site.Parked() != 0 {
		t.Fatalf("%d parked after the wait returned, want 0", site.Parked())
	}
}

// TestGateReadyWins: a condition that holds when teardown or the deadline
// ends the wait is reported as met. Neither case calls Wake, so the wait
// learns of the condition only from its check on exit.
func TestGateReadyWins(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
	}{{"teardown", 0}, {"deadline", 50 * time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			site := NewSite("test.ready-wins." + tc.name)
			var g Gate
			var met atomic.Bool
			teardown := make(chan struct{})
			done := make(chan error, 1)
			go func() { done <- g.Wait(met.Load, teardown, tc.timeout, site) }()
			waitParked(t, site, 1)
			met.Store(true)
			if tc.timeout == 0 {
				close(teardown)
			}
			if err := <-done; err != nil {
				t.Fatalf("Wait = %v, want nil: the condition held on exit", err)
			}
		})
	}
	// Already met: no park, whatever else has fired.
	site := NewSite("test.ready-wins.at-once")
	var g Gate
	closed := make(chan struct{})
	close(closed)
	if err := g.Wait(func() bool { return true }, closed, time.Nanosecond, site); err != nil {
		t.Fatalf("Wait = %v, want nil", err)
	}
}

// TestGateWakeEmptiesGate: a waiter that a Wake satisfies returns without
// arming the gate again, so the next Wake finds no channel to close.
func TestGateWakeEmptiesGate(t *testing.T) {
	site := NewSite("test.wake-empties")
	var g Gate
	var met atomic.Bool
	done := make(chan error, 1)
	go func() { done <- g.Wait(met.Load, nil, 0, site) }()
	waitParked(t, site, 1)
	met.Store(true)
	g.Wake()
	if err := <-done; err != nil {
		t.Fatalf("Wait = %v, want nil", err)
	}
	if ch, _ := g.ch.Load().(chan struct{}); ch != nil {
		t.Fatal("the gate holds a channel after its only waiter was satisfied")
	}
}

// TestSendParksUntilRoomOrTeardown: Send on a full channel parks until a
// receive makes room, or until teardown, which it reports as
// net.ErrClosed without sending.
func TestSendParksUntilRoomOrTeardown(t *testing.T) {
	site := NewSite("test.send")
	ch := make(chan int, 1)
	ch <- 0
	done := make(chan error, 1)
	go func() { done <- Send(ch, 1, nil, site) }()
	waitParked(t, site, 1)
	if got := <-ch; got != 0 {
		t.Fatalf("received %d, want 0", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("Send = %v after a receive made room", err)
	}

	teardown := make(chan struct{})
	go func() { done <- Send(ch, 2, teardown, site) }()
	waitParked(t, site, 1)
	close(teardown)
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Send = %v, want net.ErrClosed", err)
	}
	if got := <-ch; got != 1 || len(ch) != 0 {
		t.Fatalf("queue holds %d (+%d more), want only 1", got, len(ch))
	}
	if site.Parked() != 0 {
		t.Fatalf("%d parked after every send returned, want 0", site.Parked())
	}
}

// TestSendFastPathAllocs: a send with room allocates nothing.
func TestSendFastPathAllocs(t *testing.T) {
	type frame struct {
		p *int
		s string
		n uint64
	}
	site := NewSite("test.send-allocs")
	ch := make(chan frame, 1)
	x := 1
	allocs := testing.AllocsPerRun(1000, func() {
		if err := Send(ch, frame{p: &x, s: "sub-1", n: 7}, nil, site); err != nil {
			t.Fatal(err)
		}
		<-ch
	})
	if allocs != 0 {
		t.Fatalf("Send fast path: %v allocs, want 0", allocs)
	}
}

// TestSitesRegistered: every site made by NewSite is listed by Sites.
func TestSitesRegistered(t *testing.T) {
	s := NewSite("test.registered")
	if !slices.Contains(Sites(), s) {
		t.Fatal("Sites does not list a site made by NewSite")
	}
}
