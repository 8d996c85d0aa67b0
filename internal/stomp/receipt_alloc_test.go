//go:build !race

// The race detector allocates on its own, so allocation counts are only
// exact without it.

package stomp

import (
	"bytes"
	"net"
	"runtime"
	"strconv"
	"testing"
)

// TestReceiptAckAllocs: a session that confirms a receipted SEND — the
// read loop's decode, the handler, the queued RECEIPT and its encode —
// allocates nothing on the server when the id is a canonical decimal, as
// every SafeWeb client's is. A raw client writes the SENDs and reads the
// RECEIPTs into one buffer, so every allocation counted is the server's.
func TestReceiptAckAllocs(t *testing.T) {
	const (
		warm  = 256
		count = 4096
	)
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Handler: &frameCounter{n: -1}, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	buf := make([]byte, 64<<10)
	// frames reads until n more frames have arrived and returns the bytes
	// read past them.
	frames := func(n int, rest []byte) []byte {
		for {
			for len(rest) > 0 {
				i := bytes.IndexByte(rest, 0)
				if i < 0 {
					break
				}
				if rest, n = rest[i+1:], n-1; n == 0 {
					return rest
				}
			}
			m, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			rest = buf[:m]
		}
	}
	sends := func(from, to int) []byte {
		var b []byte
		for id := from; id < to; id++ {
			b = append(b, CmdSend+"\n"+HdrDestination+":/t\n"+HdrReceipt+":"...)
			b = strconv.AppendInt(b, int64(id), 10)
			b = append(b, "\n"+HdrContentLength+":0\n\n\x00"...)
		}
		return b
	}
	written := make(chan []byte)
	go func() {
		for b := range written {
			if _, err := conn.Write(b); err != nil {
				return
			}
		}
	}()
	defer close(written)

	written <- []byte(CmdConnect + "\nlogin:u\n\n\x00")
	written <- sends(1, 1+warm)
	rest := frames(1+warm, nil)
	batch := sends(1+warm, 1+warm+count)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	written <- batch
	if rest = frames(count, rest); len(rest) != 0 {
		t.Fatalf("%d bytes past the last RECEIPT", len(rest))
	}
	runtime.ReadMemStats(&after)
	perAck := float64(after.Mallocs-before.Mallocs) / count
	t.Logf("%.3f allocs per receipted SEND", perAck)
	if perAck > 0.05 {
		t.Errorf("%.3f allocs per receipted SEND, want 0", perAck)
	}
}
