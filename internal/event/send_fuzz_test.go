package event

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// fuzzHeaderCap keeps fuzz-generated header lines under the decoder's
// MaxHeaderLen even after escaping doubles every byte.
const fuzzHeaderCap = stomp.MaxHeaderLen/2 - 64

// FuzzSendRoundTrip drives the whole producer wire path on arbitrary
// events: direct SEND encoding (with and without a spliced receipt) must
// stay byte-identical to the legacy map path, the bytes must decode
// through the server's view path without errors or panics, and
// UnmarshalView must reconstruct the published event losslessly.
func FuzzSendRoundTrip(f *testing.F) {
	f.Add("/t", "k", "v", "k2", "v2", []byte("body"), true, true)
	f.Add("/patient_report", "patient_id", "33812769", "type", "cancer",
		[]byte(`{"record": true}`), true, false)
	f.Add("/t", "tricky:key", "line1\nline2:with\\slash\rcr", "", "anonymous",
		[]byte{0x01, 0x00, 0x02}, false, true)
	f.Add("", "k", "v", "k", "v2", []byte(nil), false, false)                    // invalid topic
	f.Add("/t", "destination", "/evil", "receipt", "x", []byte(nil), true, true) // transport collision
	f.Add("/t", "x-safeweb-labels", "forged", "zz", "", []byte(nil), false, false)

	f.Fuzz(func(t *testing.T, topic, k1, v1, k2, v2 string, body []byte, labelled, withReceipt bool) {
		if len(topic) > fuzzHeaderCap || len(k1)+len(v1) > fuzzHeaderCap ||
			len(k2)+len(v2) > fuzzHeaderCap {
			return
		}
		ev := &Event{Topic: topic, Attrs: map[string]string{k1: v1, k2: v2}}
		if len(body) > 0 {
			ev.Body = body
		}
		if labelled {
			ev.Labels = label.NewSet(label.Conf("fuzz.test/x"), label.Int("fuzz.test/y"))
		}
		ev.Freeze()

		img, err := ev.SendImage()
		if err != nil {
			// The only admissible refusals: events the reference encoding
			// also rejects (validation) and transport-header collisions,
			// which fail the publish.
			if errors.Is(err, ErrTransportAttr) {
				if !skippedHeader(k1) && !skippedHeader(k2) {
					t.Fatalf("spurious ErrTransportAttr for attrs %q/%q", k1, k2)
				}
				return
			}
			if vErr := ev.Validate(); vErr == nil {
				t.Fatalf("SendImage rejected a valid event: %v", err)
			}
			return
		}

		receipt := ""
		if withReceipt {
			receipt = "rcpt-7"
		}
		var got bytes.Buffer
		var enc stomp.Encoder
		if err := enc.EncodeSendImage(&got, img, receipt); err != nil {
			t.Fatalf("EncodeSendImage: %v", err)
		}
		if want := legacySendWire(t, ev, receipt); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("wire bytes differ from legacy path:\nfast:   %q\nlegacy: %q",
				got.Bytes(), want)
		}

		// Server inbound path: decode the view, reconstruct the event.
		v, err := stomp.NewDecoder(bytes.NewReader(got.Bytes())).DecodeView()
		if err != nil {
			t.Fatalf("DecodeView of encoded SEND failed: %v", err)
		}
		if v.Command != stomp.CmdSend {
			t.Fatalf("decoded command %q, want SEND", v.Command)
		}
		if r := v.Headers.Header(stomp.HdrReceipt); r != receipt {
			t.Fatalf("decoded receipt %q, want %q", r, receipt)
		}
		back, err := UnmarshalView(&v.Headers, v.Body, nil)
		if err != nil {
			t.Fatalf("UnmarshalView of encoded SEND failed: %v", err)
		}
		if back.Topic != ev.Topic || !back.Labels.Equal(ev.Labels) ||
			!reflect.DeepEqual(back.Attrs, ev.Attrs) || !bytes.Equal(back.Body, ev.Body) {
			t.Fatalf("round trip changed event:\nsent: %v\ngot:  %v", ev, back)
		}
	})
}
