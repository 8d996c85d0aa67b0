package faultnet

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// quiescentGrace is how long goroutines started by the project's own code
// may outlive a test binary's tests: long enough for teardown in flight
// to finish, far shorter than a hang.
const quiescentGrace = 5 * time.Second

// Quiescent runs a test binary's tests (pass m.Run) and then requires
// every goroutine with a safeweb/internal/ frame, or created by one, to
// end within quiescentGrace. A read loop, writer or replay feed that
// outlives its test is a teardown that does not end; the stacks of any
// that remain are printed and the exit code becomes 1. Use it as
//
//	func TestMain(m *testing.M) { os.Exit(faultnet.Quiescent(m.Run)) }
func Quiescent(run func() int) int {
	code := run()
	deadline := time.Now().Add(quiescentGrace)
	for {
		leaked := internalGoroutines()
		if len(leaked) == 0 {
			return code
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "faultnet: %d goroutines of safeweb/internal/ outlived the tests by %v:\n\n%s\n",
				len(leaked), quiescentGrace, strings.Join(leaked, "\n\n"))
			return 1
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// internalGoroutines returns the stacks of every goroutine but the
// caller's that mentions safeweb/internal/.
func internalGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The caller's own stack comes first.
	var leaked []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if strings.Contains(g, "safeweb/internal/") {
			leaked = append(leaked, g)
		}
	}
	return leaked
}
