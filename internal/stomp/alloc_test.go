package stomp

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
)

// messageFrame builds the 6-header MESSAGE frame used by the allocation
// regression tests — the shape of a broker delivery on the hot path.
func messageFrame() *Frame {
	f := NewFrame(CmdMessage)
	f.SetHeader(HdrDestination, "/patient_report")
	f.SetHeader(HdrSubscription, "sub-12")
	f.SetHeader(HdrMessageID, "m-3-4711")
	f.SetHeader("patient_id", "33812769")
	f.SetHeader("type", "cancer")
	f.SetHeader("x-safeweb-labels", "label:conf:ecric.org.uk/mdt/7")
	f.Body = []byte(`{"summary": "report", "mdt": 7}`)
	return f
}

// TestEncodeAllocs pins the encoder's per-frame allocation budget: once
// its scratch buffers are warm, encoding a 6-header MESSAGE frame must
// not allocate (budget ≤ 1 alloc/op guards against regression, steady
// state is 0).
func TestEncodeAllocs(t *testing.T) {
	f := messageFrame()
	var enc Encoder
	if err := enc.Encode(io.Discard, f); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := enc.Encode(io.Discard, f); err != nil {
			t.Fatalf("Encode: %v", err)
		}
	})
	if avg > 1 {
		t.Errorf("Encode allocs/op = %g, want <= 1", avg)
	}
}

// TestEncoderShedsLargeBuffer: encoding one huge body must not pin its
// scratch buffer for the connection's lifetime.
func TestEncoderShedsLargeBuffer(t *testing.T) {
	f := NewFrame(CmdSend)
	f.SetHeader(HdrDestination, "/t")
	f.Body = make([]byte, maxRetainedEncodeBuf+1)
	var enc Encoder
	if err := enc.Encode(io.Discard, f); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if cap(enc.buf) > maxRetainedEncodeBuf {
		t.Errorf("retained %d-byte scratch buffer, want <= %d", cap(enc.buf), maxRetainedEncodeBuf)
	}
}

func BenchmarkFrameEncode(b *testing.B) {
	f := messageFrame()
	var enc Encoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(io.Discard, f); err != nil {
			b.Fatalf("Encode: %v", err)
		}
	}
}

// TestDecodeViewAllocs pins the decoder's per-frame allocation budget on
// the map-free path: once its scratch buffers are warm, DecodeView of a
// 6-header MESSAGE frame must cost at most the body allocation (budget
// ≤ 2 allocs/op guards against regression, steady state is 1 — the body,
// whose ownership transfers to the consumer).
func TestDecodeViewAllocs(t *testing.T) {
	var wire bytes.Buffer
	if err := new(Encoder).Encode(&wire, messageFrame()); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	raw := bytes.NewReader(wire.Bytes())
	br := bufio.NewReaderSize(raw, 32*1024)
	dec := Decoder{r: br}
	decodeOne := func() {
		raw.Reset(wire.Bytes())
		br.Reset(raw)
		if _, err := dec.DecodeView(); err != nil {
			t.Fatalf("DecodeView: %v", err)
		}
	}
	decodeOne() // warm the scratch buffers
	avg := testing.AllocsPerRun(200, decodeOne)
	if avg > 2 {
		t.Errorf("DecodeView allocs/op = %g, want <= 2", avg)
	}
}

// TestDecoderShedsLargeBuffer: decoding one frame with huge headers must
// not pin the header scratch buffer for the connection's lifetime.
func TestDecoderShedsLargeBuffer(t *testing.T) {
	// Many medium headers: each line stays under MaxHeaderLen, but the
	// frame's header block overflows the retained-scratch cap.
	big := NewFrame(CmdSend)
	big.SetHeader(HdrDestination, "/t")
	val := strings.Repeat("x", 400)
	for i := 0; len(big.Headers)*len(val) < maxRetainedDecodeBuf+4096; i++ {
		big.SetHeader("h"+strconv.Itoa(i), val)
	}
	small := NewFrame(CmdSend)
	small.SetHeader(HdrDestination, "/t")
	var wire bytes.Buffer
	if err := new(Encoder).Encode(&wire, big); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := new(Encoder).Encode(&wire, small); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec := NewDecoder(&wire)
	for i := 0; i < 2; i++ {
		if _, err := dec.DecodeView(); err != nil {
			t.Fatalf("DecodeView %d: %v", i, err)
		}
	}
	if cap(dec.hbuf) > maxRetainedDecodeBuf {
		t.Errorf("retained %d-byte header scratch, want <= %d", cap(dec.hbuf), maxRetainedDecodeBuf)
	}

	// Idle-retention guard: a decoder whose connection goes quiet after an
	// oversized frame must drop the previous view's buffer reference when
	// the next DecodeView starts, even though no further frame arrives.
	var bigOnly bytes.Buffer
	if err := new(Encoder).Encode(&bigOnly, big); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	idle := NewDecoder(&bigOnly)
	if _, err := idle.DecodeView(); err != nil {
		t.Fatalf("DecodeView: %v", err)
	}
	if _, err := idle.DecodeView(); err != io.EOF {
		t.Fatalf("DecodeView at EOF: %v, want io.EOF", err)
	}
	if idle.view.Headers.buf != nil || cap(idle.hbuf) > maxRetainedDecodeBuf {
		t.Errorf("idle decoder pins %d-byte view buf + %d-byte scratch, want none retained",
			cap(idle.view.Headers.buf), cap(idle.hbuf))
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	var wire bytes.Buffer
	if err := new(Encoder).Encode(&wire, messageFrame()); err != nil {
		b.Fatalf("Encode: %v", err)
	}
	raw := bytes.NewReader(wire.Bytes())
	br := bufio.NewReaderSize(raw, 32*1024)
	dec := Decoder{r: br}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw.Reset(wire.Bytes())
		br.Reset(raw)
		if _, err := dec.Decode(); err != nil {
			b.Fatalf("Decode: %v", err)
		}
	}
}

func BenchmarkFrameDecodeView(b *testing.B) {
	var wire bytes.Buffer
	if err := new(Encoder).Encode(&wire, messageFrame()); err != nil {
		b.Fatalf("Encode: %v", err)
	}
	raw := bytes.NewReader(wire.Bytes())
	br := bufio.NewReaderSize(raw, 32*1024)
	dec := Decoder{r: br}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw.Reset(wire.Bytes())
		br.Reset(raw)
		if _, err := dec.DecodeView(); err != nil {
			b.Fatalf("DecodeView: %v", err)
		}
	}
}
