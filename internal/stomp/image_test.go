package stomp

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// imageFromFrame builds the wire image for a frame's headers and body, the
// way the event layer builds one from a published event.
func imageFromFrame(f *Frame) *WireImage {
	return NewMessageImage(f.Headers, f.Body)
}

// routedOracle is the independent reference for the bytes of one routed
// delivery. The reference codec (Encoder.Encode) encodes the logical
// frame — minus any stale routing headers, which a delivery replaces —
// and plain text surgery inserts the route's header lines just ahead of
// the content-length header, using its own escaper. It shares no code
// with the image splice it checks.
func routedOracle(t *testing.T, f *Frame, r Route) []byte {
	t.Helper()
	base := f.Clone()
	delete(base.Headers, HdrSubscription)
	delete(base.Headers, HdrMessageID)
	var buf bytes.Buffer
	var enc Encoder
	if err := enc.Encode(&buf, base); err != nil {
		t.Fatalf("reference Encode: %v", err)
	}
	wire := buf.Bytes()
	// Escaped headers never contain a raw newline, so the first blank line
	// ends the header block and content-length is its last line.
	end := bytes.Index(wire, []byte("\n\n"))
	at := bytes.LastIndex(wire[:end], []byte("\n"+HdrContentLength+":")) + 1
	esc := strings.NewReplacer("\\", "\\\\", "\n", "\\n", "\r", "\\r", ":", "\\c")
	lines := HdrSubscription + ":" + esc.Replace(r.Subscription) + "\n" +
		HdrMessageID + ":" + esc.Replace(r.IDPrefix) + strconv.FormatUint(r.Seq, 10) + "\n"
	return append(append(append([]byte(nil), wire[:at]...), lines...), wire[at:]...)
}

// materialised is the logical frame a consumer must see for one routed
// delivery of f: f's headers with the route's in place of any stale ones.
func materialised(f *Frame, r Route) *Frame {
	out := f.Clone()
	out.SetHeader(HdrSubscription, r.Subscription)
	out.SetHeader(HdrMessageID, r.IDPrefix+strconv.FormatUint(r.Seq, 10))
	if len(out.Body) == 0 {
		out.Body = nil
	}
	return out
}

// checkRouted asserts that wire is exactly the oracle's bytes for the
// delivery and that it decodes, through the reference decoder, to the
// equivalent materialised frame.
func checkRouted(t *testing.T, name string, wire []byte, f *Frame, r Route) {
	t.Helper()
	if want := routedOracle(t, f, r); !bytes.Equal(wire, want) {
		t.Errorf("%s: delivery bytes differ from the reference encoding:\n got %q\nwant %q", name, wire, want)
	}
	back, err := NewDecoder(bytes.NewReader(wire)).Decode()
	if err != nil {
		t.Fatalf("%s: decode delivery: %v", name, err)
	}
	delete(back.Headers, HdrContentLength)
	if want := materialised(f, r); !reflect.DeepEqual(back, want) {
		t.Errorf("%s: delivery decodes to %v, want %v", name, back, want)
	}
}

// imageCases is the shared set of logical MESSAGE frames the routed
// encodings are checked on: escaping, empty values, NUL bodies and stale
// routing headers.
func imageCases() map[string]*Frame {
	return map[string]*Frame{
		"delivery": messageFrame(),
		"attr-free no body": func() *Frame {
			f := NewFrame(CmdMessage)
			f.SetHeader(HdrDestination, "/t")
			return f
		}(),
		"escaped headers": func() *Frame {
			f := NewFrame(CmdMessage)
			f.SetHeader(HdrDestination, "/t")
			f.SetHeader("tricky:key", "line1\nline2:with\\slash\rcr")
			f.SetHeader("empty", "")
			f.Body = []byte("\x00\x01 body with NUL \x00")
			return f
		}(),
		"stale routing headers dropped": func() *Frame {
			// Base headers named like the routing headers must be
			// replaced by the per-delivery values.
			f := NewFrame(CmdMessage)
			f.SetHeader(HdrDestination, "/t")
			f.SetHeader(HdrSubscription, "stale-sub")
			f.SetHeader(HdrMessageID, "stale-id")
			return f
		}(),
	}
}

// TestEncodeImageMatchesReference is the wire-conformance anchor for the
// preencoded path: for the same logical MESSAGE and routing headers,
// EncodeImage must put on the wire exactly what the reference codec
// does — including header escaping, sorted order, routing-header
// replacement and content-length framing.
func TestEncodeImageMatchesReference(t *testing.T) {
	subs := map[string]string{"plain": "sub-7", "escaped": "sub:with\ncontrol"}
	for fname, f := range imageCases() {
		img := imageFromFrame(f)
		for sname, sub := range subs {
			var viaImage bytes.Buffer
			var enc Encoder
			if err := enc.EncodeImage(&viaImage, img, sub, "m-9-", 4711); err != nil {
				t.Fatalf("%s/%s: EncodeImage: %v", fname, sname, err)
			}
			checkRouted(t, fname+"/"+sname, viaImage.Bytes(), f,
				Route{Subscription: sub, IDPrefix: "m-9-", Seq: 4711})
		}
	}
}

// TestEncodeImageConformanceCorpus runs every successful corpus case
// through the image path as a MESSAGE, proving the preencoded splice
// speaks the exact dialect of the reference encoder on the shared
// canonical corpus.
func TestEncodeImageConformanceCorpus(t *testing.T) {
	for _, tc := range conformanceCorpus() {
		if tc.wantErr {
			continue
		}
		f := &Frame{Command: CmdMessage, Headers: tc.headers}
		if tc.body != "" {
			f.Body = []byte(tc.body)
		}
		var viaImage bytes.Buffer
		var enc Encoder
		if err := enc.EncodeImage(&viaImage, imageFromFrame(f), "sub-1", "m-1-", 1); err != nil {
			t.Fatalf("%s: EncodeImage: %v", tc.name, err)
		}
		checkRouted(t, tc.name, viaImage.Bytes(), f, Route{Subscription: "sub-1", IDPrefix: "m-1-", Seq: 1})
	}
}

// TestSessionDeliverWireBytes drives the one delivery call over both
// enqueue modes and a few routes through a real session writer: whatever
// the mode, the bytes that reach the peer are the reference encoding of
// the equivalent materialised frame.
func TestSessionDeliverWireBytes(t *testing.T) {
	modes := map[string]EnqueueMode{"block": EnqueueBlock, "try": EnqueueTry}
	routes := map[string]Route{
		"escaped": {Subscription: "sub:7", IDPrefix: "m-3-", Seq: 42},
		"plain":   {Subscription: "sub-9", IDPrefix: "m-3-", Seq: 1 << 40},
	}
	for fname, f := range imageCases() {
		img := imageFromFrame(f)
		for mname, mode := range modes {
			for rname, r := range routes {
				name := fname + "/" + mname + "/" + rname
				server, peer := net.Pipe()
				sess := &Session{conn: server, fw: newFrameWriter(server, 4, 0, nil)}
				queued, err := sess.Deliver(img, r, mode)
				if err != nil || !queued {
					t.Fatalf("%s: Deliver = %v, %v; want queued", name, queued, err)
				}
				wire := make([]byte, len(routedOracle(t, f, r)))
				if _, err := io.ReadFull(peer, wire); err != nil {
					t.Fatalf("%s: read delivery: %v", name, err)
				}
				checkRouted(t, name, wire, f, r)
				_ = sess.Close()
				_ = peer.Close()
				if queued, err := sess.Deliver(img, r, mode); queued || !errors.Is(err, net.ErrClosed) {
					t.Errorf("%s: Deliver on a closed session = %v, %v; want false, net.ErrClosed", name, queued, err)
				}
			}
		}
	}
}

// TestEncodeImageAllocs pins the per-delivery cost of the preencoded
// path: splicing routing headers around a shared image must not allocate
// once the encoder scratch is warm — the image itself was the one
// allocation, paid once per published event.
func TestEncodeImageAllocs(t *testing.T) {
	img := imageFromFrame(messageFrame())
	var enc Encoder
	if err := enc.EncodeImage(io.Discard, img, "sub-12", "m-3-", 1); err != nil {
		t.Fatalf("EncodeImage: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := enc.EncodeImage(io.Discard, img, "sub-12", "m-3-", 4711); err != nil {
			t.Fatalf("EncodeImage: %v", err)
		}
	})
	if avg > 0 {
		t.Errorf("EncodeImage allocs/op = %g, want 0", avg)
	}
}

func BenchmarkFrameEncodeImage(b *testing.B) {
	img := imageFromFrame(messageFrame())
	var enc Encoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.EncodeImage(io.Discard, img, "sub-12", "m-3-", uint64(i)); err != nil {
			b.Fatalf("EncodeImage: %v", err)
		}
	}
}
