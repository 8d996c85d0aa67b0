package stomp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, f *Frame) *Frame {
	t.Helper()
	var buf bytes.Buffer
	if err := new(Encoder).Encode(&buf, f); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := NewDecoder(&buf).Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return back
}

func TestFrameRoundTrip(t *testing.T) {
	f := NewFrame(CmdSend)
	f.SetHeader(HdrDestination, "/patient_report")
	f.SetHeader("patient_id", "33812769")
	f.SetHeader("x-safeweb-labels", "label:conf:ecric.org.uk/mdt/7")
	f.Body = []byte(`{"record": true}`)

	back := roundTrip(t, f)
	if back.Command != CmdSend {
		t.Errorf("Command = %q", back.Command)
	}
	if back.Header(HdrDestination) != "/patient_report" {
		t.Errorf("destination = %q", back.Header(HdrDestination))
	}
	if back.Header("patient_id") != "33812769" {
		t.Errorf("patient_id = %q", back.Header("patient_id"))
	}
	if !bytes.Equal(back.Body, f.Body) {
		t.Errorf("body = %q", back.Body)
	}
}

func TestFrameRoundTripEmptyBody(t *testing.T) {
	f := NewFrame(CmdDisconnect)
	back := roundTrip(t, f)
	if back.Body != nil {
		t.Errorf("body = %q, want nil", back.Body)
	}
}

func TestHeaderEscaping(t *testing.T) {
	f := NewFrame(CmdSend)
	f.SetHeader(HdrDestination, "/t")
	f.SetHeader("tricky", "line1\nline2:with\\colon\rand-cr")
	back := roundTrip(t, f)
	if got := back.Header("tricky"); got != "line1\nline2:with\\colon\rand-cr" {
		t.Errorf("tricky header = %q", got)
	}
}

func TestBodyWithNulBytes(t *testing.T) {
	f := NewFrame(CmdSend)
	f.SetHeader(HdrDestination, "/t")
	f.Body = []byte{1, 0, 2, 0, 3}
	back := roundTrip(t, f)
	if !bytes.Equal(back.Body, f.Body) {
		t.Errorf("body = %v", back.Body)
	}
}

func TestReadFrameWithoutContentLength(t *testing.T) {
	raw := "SEND\ndestination:/t\n\nhello\x00"
	f, err := NewDecoder(strings.NewReader(raw)).Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if string(f.Body) != "hello" {
		t.Errorf("body = %q", f.Body)
	}
}

func TestReadFrameSkipsHeartbeats(t *testing.T) {
	raw := "\n\n\nSEND\ndestination:/t\n\n\x00"
	f, err := NewDecoder(strings.NewReader(raw)).Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if f.Command != CmdSend {
		t.Errorf("Command = %q", f.Command)
	}
}

func TestReadFrameErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"unknown command", "BOGUS\n\n\x00"},
		{"malformed header", "SEND\nno-colon-here\n\n\x00"},
		{"bad escape", "SEND\ndest\\qination:/t\n\n\x00"},
		{"bad content length", "SEND\ncontent-length:banana\n\n\x00"},
		{"negative content length", "SEND\ncontent-length:-5\n\n\x00"},
		{"missing terminator", "SEND\ncontent-length:2\n\nab"},
		{"wrong terminator", "SEND\ncontent-length:2\n\nabX"},
		{"unterminated", "SEND\ndestination:/t\n\nbody with no nul"},
		{"truncated headers", "SEND\ndestination:/t\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewDecoder(strings.NewReader(tc.raw)).Decode()
			if err == nil {
				t.Fatalf("NewDecoder(%q).Decode() succeeded", tc.raw)
			}
		})
	}
}

// TestReadFrameUnterminatedBodyBounded: a peer streaming a giant body
// with no content-length and no NUL terminator must hit MaxBodyLen, not
// grow the buffer until the process OOMs.
func TestReadFrameUnterminatedBodyBounded(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("SEND\ndestination:/t\n\n")
	buf.Write(bytes.Repeat([]byte{'x'}, MaxBodyLen+64*1024))
	_, err := NewDecoder(&buf).Decode()
	var pe *ProtocolError
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "exceeds limit") {
		t.Fatalf("err = %v, want body-limit protocol error", err)
	}
}

func TestReadFrameCleanEOF(t *testing.T) {
	_, err := NewDecoder(strings.NewReader("")).Decode()
	if !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF", err)
	}
	// EOF after heart-beats is also clean.
	_, err = NewDecoder(strings.NewReader("\n\n")).Decode()
	if !errors.Is(err, io.EOF) {
		t.Errorf("err after heartbeats = %v, want io.EOF", err)
	}
}

func TestRepeatedHeaderFirstWins(t *testing.T) {
	raw := "SEND\ndestination:/a\ndestination:/b\n\n\x00"
	f, err := NewDecoder(strings.NewReader(raw)).Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if f.Header(HdrDestination) != "/a" {
		t.Errorf("destination = %q, want /a", f.Header(HdrDestination))
	}
}

func TestWriteFrameEmptyCommand(t *testing.T) {
	if err := new(Encoder).Encode(io.Discard, &Frame{}); err == nil {
		t.Error("Encode with empty command succeeded")
	}
}

func TestFrameClone(t *testing.T) {
	f := NewFrame(CmdSend)
	f.SetHeader("k", "v")
	f.Body = []byte("b")
	c := f.Clone()
	c.SetHeader("k", "changed")
	c.Body[0] = 'X'
	if f.Header("k") != "v" || string(f.Body) != "b" {
		t.Error("Clone shares state")
	}
}

func TestEncodeImageRoutingHeaders(t *testing.T) {
	base := NewFrame(CmdMessage)
	base.SetHeader(HdrDestination, "/t")
	base.SetHeader(HdrSubscription, "stale") // must lose to the routed value
	base.Body = []byte("payload")

	var buf bytes.Buffer
	var enc Encoder
	if err := enc.EncodeImage(&buf, NewMessageImage(base.Headers, base.Body), "sub:7", "m-3-", 42); err != nil {
		t.Fatalf("EncodeImage: %v", err)
	}
	back, err := NewDecoder(&buf).Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got := back.Header(HdrSubscription); got != "sub:7" {
		t.Errorf("subscription = %q", got)
	}
	if got := back.Header(HdrMessageID); got != "m-3-42" {
		t.Errorf("message-id = %q", got)
	}
	if back.Header(HdrDestination) != "/t" || string(back.Body) != "payload" {
		t.Errorf("base frame content lost: %v", back)
	}
	// The base frame the image was built from must not have been touched.
	if base.Header(HdrSubscription) != "stale" || len(base.Headers) != 2 {
		t.Errorf("building the image mutated the base frame: %v", base)
	}
}

func TestFrameString(t *testing.T) {
	f := NewFrame(CmdSend)
	f.SetHeader("b", "2")
	f.SetHeader("a", "1")
	f.Body = []byte("xyz")
	s := f.String()
	if !strings.HasPrefix(s, "SEND") || !strings.Contains(s, `a="1"`) || !strings.Contains(s, "body=3B") {
		t.Errorf("String = %q", s)
	}
}

func TestUnescapeHeaderErrors(t *testing.T) {
	if _, err := unescapeHeader(`trailing\`); err == nil {
		t.Error("dangling escape accepted")
	}
	if _, err := unescapeHeader(`bad\q`); err == nil {
		t.Error("undefined escape accepted")
	}
}
