package stomp

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// conformanceCase is one canonical wire frame with its expected decode, or
// an expected decode failure. The corpus pins the wire dialect every
// decode path must speak identically: the Decoder's map and view forms,
// fresh and reused.
type conformanceCase struct {
	name string
	wire string

	wantErr     bool
	command     string
	headers     map[string]string
	body        string
	reencodable bool // encoding the expected frame reproduces wire byte-for-byte
}

// conformanceCorpus returns the canonical frame corpus. It is a function,
// not a package variable, so the fuzz seeds and the conformance tests
// cannot accidentally share mutated state.
func conformanceCorpus() []conformanceCase {
	return []conformanceCase{
		{
			name:        "minimal with content-length",
			wire:        "SEND\ncontent-length:0\ndestination:/t\n\n\x00",
			command:     CmdSend,
			headers:     map[string]string{"destination": "/t"},
			reencodable: false, // encoder emits content-length last
		},
		{
			name:    "canonical encoder form",
			wire:    "SEND\ndestination:/t\ncontent-length:0\n\n\x00",
			command: CmdSend,
			headers: map[string]string{"destination": "/t"},
			// This is exactly what the encoder emits (sorted headers,
			// trailing content-length), so re-encoding must reproduce it.
			reencodable: true,
		},
		{
			name:        "message with body and labels",
			wire:        "MESSAGE\ndestination:/patient_report\nmessage-id:m-3-1\npatient_id:33812769\nsubscription:sub-1\nx-safeweb-labels:label\\cconf\\cecric.org.uk/mdt/7\ncontent-length:16\n\n{\"record\": true}\x00",
			command:     CmdMessage,
			headers:     map[string]string{"destination": "/patient_report", "message-id": "m-3-1", "patient_id": "33812769", "subscription": "sub-1", "x-safeweb-labels": "label:conf:ecric.org.uk/mdt/7"},
			body:        `{"record": true}`,
			reencodable: true,
		},
		{
			name:    "no content-length, NUL-terminated body",
			wire:    "SEND\ndestination:/t\n\nhello\x00",
			command: CmdSend,
			headers: map[string]string{"destination": "/t"},
			body:    "hello",
		},
		{
			name:    "body with NUL bytes under content-length",
			wire:    "SEND\ndestination:/t\ncontent-length:5\n\n\x01\x00\x02\x00\x03\x00",
			command: CmdSend,
			headers: map[string]string{"destination": "/t"},
			body:    "\x01\x00\x02\x00\x03",
		},
		{
			name:    "escaped header key and value",
			wire:    "SEND\ndestination:/t\ntricky\\ckey:line1\\nline2\\cwith\\\\slash\\rcr\ncontent-length:0\n\n\x00",
			command: CmdSend,
			headers: map[string]string{"destination": "/t", "tricky:key": "line1\nline2:with\\slash\rcr"},
		},
		{
			name:    "empty header value",
			wire:    "SEND\ndestination:/t\nempty:\n\n\x00",
			command: CmdSend,
			headers: map[string]string{"destination": "/t", "empty": ""},
		},
		{
			name:    "empty header key",
			wire:    "SEND\ndestination:/t\n:anonymous\n\n\x00",
			command: CmdSend,
			headers: map[string]string{"destination": "/t", "": "anonymous"},
		},
		{
			name:    "repeated key, first occurrence wins",
			wire:    "SEND\ndestination:/a\ndestination:/b\nk:1\nk:2\n\n\x00",
			command: CmdSend,
			headers: map[string]string{"destination": "/a", "k": "1"},
		},
		{
			name:    "repeated content-length, first occurrence frames the body",
			wire:    "SEND\ndestination:/t\ncontent-length:2\ncontent-length:4\n\nab\x00",
			command: CmdSend,
			headers: map[string]string{"destination": "/t"},
			body:    "ab",
		},
		{
			name:    "CRLF line endings",
			wire:    "SEND\r\ndestination:/t\r\nk:v\r\n\r\nbody\x00",
			command: CmdSend,
			headers: map[string]string{"destination": "/t", "k": "v"},
			body:    "body",
		},
		{
			name:    "CRLF with content-length",
			wire:    "MESSAGE\r\ndestination:/t\r\ncontent-length:3\r\n\r\nabc\x00",
			command: CmdMessage,
			headers: map[string]string{"destination": "/t"},
			body:    "abc",
		},
		{
			name:    "heart-beats before frame",
			wire:    "\n\r\n\nRECEIPT\nreceipt-id:rcpt-1\n\n\x00",
			command: CmdReceipt,
			headers: map[string]string{"receipt-id": "rcpt-1"},
		},
		{
			name:    "value containing colons survives unescaped",
			wire:    "SUBSCRIBE\ndestination:/t\nselector:a = 'x:y:z'\nid:sub-9\n\n\x00",
			command: CmdSubscribe,
			headers: map[string]string{"destination": "/t", "selector": "a = 'x:y:z'", "id": "sub-9"},
		},
		{
			name:    "content-length with plus sign",
			wire:    "SEND\ndestination:/t\ncontent-length:+2\n\nab\x00",
			command: CmdSend,
			headers: map[string]string{"destination": "/t"},
			body:    "ab",
		},
		{
			// strconv.Atoi compatibility: "-0" is a valid zero, only
			// actually-negative lengths are rejected.
			name:    "content-length negative zero",
			wire:    "SEND\ndestination:/t\ncontent-length:-0\n\n\x00",
			command: CmdSend,
			headers: map[string]string{"destination": "/t"},
		},

		// Error cases: every path must reject these identically.
		{name: "unknown command", wire: "BOGUS\n\n\x00", wantErr: true},
		{name: "lowercase command", wire: "send\ndestination:/t\n\n\x00", wantErr: true},
		{name: "malformed header line", wire: "SEND\nno-colon-here\n\n\x00", wantErr: true},
		{name: "dangling escape in key", wire: "SEND\nbad\\:/t\n\n\x00", wantErr: true},
		{name: "undefined escape in value", wire: "SEND\ndestination:/t\\q\n\n\x00", wantErr: true},
		{name: "bad content-length", wire: "SEND\ncontent-length:banana\n\n\x00", wantErr: true},
		{name: "empty content-length", wire: "SEND\ncontent-length:\n\n\x00", wantErr: true},
		{name: "negative content-length", wire: "SEND\ncontent-length:-5\n\n\x00", wantErr: true},
		{name: "bad repeated content-length escape still validated", wire: "SEND\ncontent-length:2\ncontent-length:\\q\n\nab\x00", wantErr: true},
		{name: "content-length beyond MaxBodyLen", wire: "SEND\ncontent-length:999999999999\n\n\x00", wantErr: true},
		{name: "short body", wire: "SEND\ncontent-length:5\n\nab", wantErr: true},
		{name: "missing terminator after body", wire: "SEND\ncontent-length:2\n\nab", wantErr: true},
		{name: "wrong terminator after body", wire: "SEND\ncontent-length:2\n\nabX", wantErr: true},
		{name: "unterminated NUL body", wire: "SEND\ndestination:/t\n\nbody with no nul", wantErr: true},
		{name: "truncated header block", wire: "SEND\ndestination:/t\n", wantErr: true},
		{name: "empty command via colon", wire: ":\n\n\x00", wantErr: true},
	}
}

// decodeOutcome normalises one decode attempt for comparison.
type decodeOutcome struct {
	err     bool
	command string
	headers map[string]string
	body    string
}

func outcomeOf(f *Frame, err error) decodeOutcome {
	if err != nil {
		return decodeOutcome{err: true}
	}
	return decodeOutcome{command: f.Command, headers: f.Headers, body: string(f.Body)}
}

func (o decodeOutcome) equal(p decodeOutcome) bool {
	if o.err != p.err {
		return false
	}
	if o.err {
		return true
	}
	if o.command != p.command || o.body != p.body || len(o.headers) != len(p.headers) {
		return false
	}
	for k, v := range o.headers {
		if pv, ok := p.headers[k]; !ok || pv != v {
			return false
		}
	}
	return true
}

// TestWireConformance runs the canonical corpus through every decode path
// and checks each against the expected frame and against the others: a
// fresh Decoder.Decode, a persistent one (scratch reuse across the whole
// corpus is part of what is under test), and the map-free DecodeView
// materialised and read through the view API.
func TestWireConformance(t *testing.T) {
	persistent := NewDecoder(strings.NewReader("")) // replaced below per case
	for _, tc := range conformanceCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			want := decodeOutcome{err: tc.wantErr, command: tc.command, headers: tc.headers, body: tc.body}

			fresh := outcomeOf(NewDecoder(strings.NewReader(tc.wire)).Decode())
			if !fresh.equal(want) {
				t.Errorf("Decoder.Decode = %+v, want %+v", fresh, want)
			}

			// One decoder across the whole corpus: reused scratch buffers
			// must not leak state between frames.
			persistent.r = bufio.NewReader(strings.NewReader(tc.wire))
			reused := outcomeOf(persistent.Decode())
			if !reused.equal(want) {
				t.Errorf("persistent Decoder.Decode = %+v, want %+v", reused, want)
			}

			v, verr := NewDecoder(strings.NewReader(tc.wire)).DecodeView()
			var view decodeOutcome
			if verr != nil {
				view = decodeOutcome{err: true}
			} else {
				view = outcomeOf(v.Materialize(), nil)
				// The view accessors must agree with the materialised map.
				for k, mv := range view.headers {
					if got := v.Headers.Header(k); got != mv {
						t.Errorf("view Header(%q) = %q, want %q", k, got, mv)
					}
				}
				if v.Headers.Len() < len(view.headers) {
					t.Errorf("view Len() = %d < %d materialised headers", v.Headers.Len(), len(view.headers))
				}
			}
			if !view.equal(want) {
				t.Errorf("DecodeView = %+v, want %+v", view, want)
			}

			if tc.wantErr {
				return
			}

			// Encode→decode round-trip: decoding the encoded bytes
			// reproduces the frame.
			f := &Frame{Command: tc.command, Headers: tc.headers}
			if tc.body != "" {
				f.Body = []byte(tc.body)
			}
			var viaEncoder bytes.Buffer
			var enc Encoder
			if err := enc.Encode(&viaEncoder, f); err != nil {
				t.Fatalf("Encode: %v", err)
			}
			back := outcomeOf(NewDecoder(bytes.NewReader(viaEncoder.Bytes())).Decode())
			if !back.equal(want) {
				t.Errorf("encode→decode = %+v, want %+v", back, want)
			}
			if tc.reencodable && !bytes.Equal(viaEncoder.Bytes(), []byte(tc.wire)) {
				t.Errorf("re-encode differs from wire:\n%q\n%q", viaEncoder.Bytes(), tc.wire)
			}
		})
	}
}

// TestConformanceStreamed decodes the whole successful corpus back-to-back
// on one connection through one Decoder, interleaving Decode and
// DecodeView: frames must come out in order and identical to the per-frame
// decodes, proving the scratch reuse never bleeds across frames.
func TestConformanceStreamed(t *testing.T) {
	var stream bytes.Buffer
	var cases []conformanceCase
	for _, tc := range conformanceCorpus() {
		if tc.wantErr {
			continue
		}
		stream.WriteString(tc.wire)
		cases = append(cases, tc)
	}
	dec := NewDecoder(bytes.NewReader(stream.Bytes()))
	for i, tc := range cases {
		want := decodeOutcome{command: tc.command, headers: tc.headers, body: tc.body}
		var got decodeOutcome
		if i%2 == 0 {
			v, err := dec.DecodeView()
			if err != nil {
				t.Fatalf("frame %d (%s): DecodeView: %v", i, tc.name, err)
			}
			got = outcomeOf(v.Materialize(), nil)
		} else {
			got = outcomeOf(dec.Decode())
		}
		if !got.equal(want) {
			t.Errorf("frame %d (%s) = %+v, want %+v", i, tc.name, got, want)
		}
	}
}
