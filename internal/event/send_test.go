package event

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// legacySendWire replicates the pre-fast-path Client.Publish byte stream
// exactly: MarshalHeaders into a map, destination pulled out, a SEND
// frame built header by header (with the receipt set in the map, as
// SendReceipt did) and encoded. The direct SEND encoding is pinned
// byte-for-byte against this.
func legacySendWire(t testing.TB, e *Event, receipt string) []byte {
	t.Helper()
	headers, body, err := MarshalHeaders(e)
	if err != nil {
		t.Fatalf("MarshalHeaders: %v", err)
	}
	dest := headers[HeaderDestination]
	delete(headers, HeaderDestination)
	f := stomp.NewFrame(stomp.CmdSend)
	for k, v := range headers {
		f.SetHeader(k, v)
	}
	f.SetHeader(stomp.HdrDestination, dest)
	if receipt != "" {
		f.SetHeader(stomp.HdrReceipt, receipt)
	}
	f.Body = body
	var buf bytes.Buffer
	var enc stomp.Encoder
	if err := enc.Encode(&buf, f); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// sendConformanceCorpus returns the canonical publish-side corpus: every
// event shape the producer fast path must encode byte-identically to the
// legacy map path — labels, attributes needing escaping, empty keys and
// values, binary bodies, and keys that sort around the destination and
// receipt headers.
func sendConformanceCorpus() []struct {
	name string
	ev   *Event
} {
	withBody := func(e *Event, body []byte) *Event {
		e.Body = body
		return e
	}
	return []struct {
		name string
		ev   *Event
	}{
		{"attr-free unlabelled", New("/t", nil)},
		{"attr-free labelled", withBody(
			New("/patient_report", nil,
				label.Conf("ecric.org.uk/mdt/7"), label.Conf("a.org/x"), label.Int("b.org/y")),
			[]byte(`{"record": true}`))},
		{"attrs and labels", withBody(
			New("/patient_report", map[string]string{
				"patient_id": "33812769", "type": "cancer",
			}, label.Conf("ecric.org.uk/mdt/7")),
			[]byte(`{"summary": "report", "mdt": 7}`))},
		{"escaped attr key and value", New("/t", map[string]string{
			"tricky:key": "line1\nline2:with\\slash\rcr",
		})},
		{"empty attr value and empty attr key", New("/t", map[string]string{
			"empty": "", "": "anonymous",
		})},
		{"binary body with NULs", withBody(
			New("/t", map[string]string{"k": "v"}),
			[]byte{0x01, 0x00, 0x02, 0x00, 0x03})},
		{"keys sorting around transport headers", New("/t", map[string]string{
			"destinatio": "before", "destinatioz": "after",
			"rec": "before-receipt", "receipt1": "after-receipt", "zz": "last",
		})},
		{"unicode topic and values", withBody(
			New("/département/7", map[string]string{"patient": "Zoë"}, label.Conf("ecric.org.uk/é")),
			[]byte("café"))},
		{"empty body labelled", New("/t", nil, label.Conf("a.org/x"))},
	}
}

// TestSendEncodingConformance pins the producer fast path to the legacy
// wire dialect: for every corpus event, the SendImage written by
// EncodeSendImage — with and without a spliced receipt — must produce
// bytes identical to marshalling the event
// into a header map and encoding a SEND frame from it, and the bytes must
// decode back (through the server's view path) to the same event.
func TestSendEncodingConformance(t *testing.T) {
	for _, tc := range sendConformanceCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			tc.ev.Freeze()
			for _, receipt := range []string{"", "rcpt-42"} {
				img, err := tc.ev.SendImage()
				if err != nil {
					t.Fatalf("SendImage: %v", err)
				}
				var got bytes.Buffer
				var enc stomp.Encoder
				if err := enc.EncodeSendImage(&got, img, receipt); err != nil {
					t.Fatalf("EncodeSendImage(receipt=%q): %v", receipt, err)
				}
				want := legacySendWire(t, tc.ev, receipt)
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("receipt=%q: wire bytes differ:\nfast:   %q\nlegacy: %q",
						receipt, got.Bytes(), want)
				}

				// The server path must reconstruct the same event.
				v, err := stomp.NewDecoder(bytes.NewReader(got.Bytes())).DecodeView()
				if err != nil {
					t.Fatalf("DecodeView: %v", err)
				}
				back, err := UnmarshalView(&v.Headers, v.Body, nil)
				if err != nil {
					t.Fatalf("UnmarshalView: %v", err)
				}
				if back.Topic != tc.ev.Topic || !back.Labels.Equal(tc.ev.Labels) ||
					!reflect.DeepEqual(back.Attrs, tc.ev.Attrs) ||
					!bytes.Equal(back.Body, tc.ev.Body) {
					t.Errorf("round trip changed event:\nsent: %v\ngot:  %v", tc.ev, back)
				}
			}
		})
	}
}

// TestSendImageTransportAttrGate: SendImage is the one SEND encoding and
// the publish-time gate, so it must refuse every name in skippedHeaders
// as an attribute — a reserved one as a validation error, the rest with
// ErrTransportAttr — whether or not the event is frozen yet, memoise
// nothing when it does, and encode the event once the attribute is gone.
func TestSendImageTransportAttrGate(t *testing.T) {
	transport := 0
	for k := range skippedHeaders {
		want := ErrTransportAttr
		if strings.HasPrefix(k, ReservedPrefix) {
			want = ErrReservedAttribute
		} else {
			transport++
		}
		ev := &Event{Topic: "/t", Attrs: map[string]string{k: "v", "kept": "v"}}
		if _, err := ev.SendImage(); !errors.Is(err, want) {
			t.Errorf("SendImage with %q attr: err = %v, want %v", k, err, want)
		}
		delete(ev.Attrs, k)
		ev.Freeze()
		if _, err := ev.SendImage(); err != nil {
			t.Errorf("SendImage after removing %q: %v (refusal was memoised)", k, err)
		}
	}
	if transport != 10 {
		t.Errorf("%d non-reserved transport names in skippedHeaders, want 10 (update broker's transportAttrNames too)", transport)
	}
}

// TestSendImageMemoised pins the encode-once property of the producer
// path: repeated SendImage calls return the same image, the build counter
// moves exactly once, and the memo is independent of the MESSAGE-side
// WireImage memo.
func TestSendImageMemoised(t *testing.T) {
	ev := New("/t", map[string]string{"k": "v"}, label.Conf("a.org/x"))
	ev.Body = []byte("payload")
	ev.Freeze()

	before := SendImageBuilds()
	img1, err := ev.SendImage()
	if err != nil {
		t.Fatalf("SendImage: %v", err)
	}
	img2, err := ev.SendImage()
	if err != nil {
		t.Fatalf("SendImage (memo): %v", err)
	}
	if img1 != img2 {
		t.Error("SendImage rebuilt on second call; want shared memo")
	}
	if got := SendImageBuilds() - before; got != 1 {
		t.Errorf("SendImageBuilds delta = %d, want 1", got)
	}

	// The MESSAGE image is a separate memo with a different command line.
	msg, err := ev.WireImage()
	if err != nil {
		t.Fatalf("WireImage: %v", err)
	}
	if !bytes.HasPrefix(msg.Prefix(), []byte("MESSAGE\n")) {
		t.Errorf("WireImage prefix = %q, want MESSAGE frame", msg.Prefix())
	}
	var buf bytes.Buffer
	var enc stomp.Encoder
	if err := enc.EncodeSendImage(&buf, img1, ""); err != nil {
		t.Fatalf("EncodeSendImage: %v", err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("SEND\n")) {
		t.Errorf("SendImage wire = %q, want SEND frame", buf.Bytes())
	}
}

// TestSendImageErrorNeverBuilds: an event that cannot marshal reports the
// error on every call and never bumps the build counter.
func TestSendImageErrorNeverBuilds(t *testing.T) {
	ev := &Event{Topic: ""}
	ev.Freeze()
	before := SendImageBuilds()
	if _, err := ev.SendImage(); err == nil {
		t.Fatal("SendImage accepted an empty topic")
	}
	img, err := ev.SendImage()
	if err == nil || img != nil {
		t.Fatalf("second call lost the error: img=%v err=%v", img, err)
	}
	if got := SendImageBuilds() - before; got != 0 {
		t.Errorf("failed SendImage bumped build counter by %d", got)
	}
}

// TestCloneDropsSendImageMemo guards the federation bridge pattern for
// the SEND memo, like the MESSAGE-image test: Clone → relabel → the clone
// must encode its own image, not the original's.
func TestCloneDropsSendImageMemo(t *testing.T) {
	src := New("/t", nil, label.Conf("east.nhs.uk/agg"))
	src.Freeze()
	if _, err := src.SendImage(); err != nil {
		t.Fatalf("SendImage: %v", err)
	}

	out := src.Clone()
	out.Labels = label.NewSet(label.Conf("west.nhs.uk/agg"))
	out.Freeze()
	img, err := out.SendImage()
	if err != nil {
		t.Fatalf("clone SendImage: %v", err)
	}
	if !bytes.Contains(img.Prefix(), []byte("west.nhs.uk/agg")) {
		t.Errorf("clone image carries stale labels: %q", img.Prefix())
	}
}
