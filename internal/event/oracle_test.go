package event

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"safeweb/internal/stomp"
)

// MarshalHeaders is the reference encoding production code used before
// both wire images were built in a single pass (buildImage): it flattens
// the event into a STOMP header map and a body. The returned map contains
// the destination, every attribute, and the label header — always rendered
// from the label set, never taken from the event's memo, so the oracle
// also catches a stale one. The tests keep it as the conformance oracle
// for SendImage and WireImage.
func MarshalHeaders(e *Event) (map[string]string, []byte, error) {
	if err := e.Validate(); err != nil {
		return nil, nil, err
	}
	headers := make(map[string]string, len(e.Attrs)+2)
	for k, v := range e.Attrs {
		headers[k] = v
	}
	headers[HeaderDestination] = e.Topic
	if !e.Labels.IsEmpty() {
		headers[HeaderLabels] = e.Labels.String()
	}
	return headers, e.Body, nil
}

// messageOracle is the reference for the bytes of one delivery of e as a
// MESSAGE: the reference codec (Encoder.Encode) encodes the MarshalHeaders
// frame — minus the routing headers, which a delivery sets itself — and
// text surgery inserts the route's lines just ahead of content-length. It
// shares no code with WireImage or the image splice. sub and idPrefix
// must need no escaping.
func messageOracle(t testing.TB, e *Event, sub, idPrefix string, seq uint64) []byte {
	t.Helper()
	headers, body, err := MarshalHeaders(e)
	if err != nil {
		t.Fatalf("MarshalHeaders: %v", err)
	}
	delete(headers, stomp.HdrSubscription)
	delete(headers, stomp.HdrMessageID)
	var buf bytes.Buffer
	var enc stomp.Encoder
	if err := enc.Encode(&buf, &stomp.Frame{Command: stomp.CmdMessage, Headers: headers, Body: body}); err != nil {
		t.Fatalf("reference Encode: %v", err)
	}
	wire := buf.Bytes()
	// Escaped headers never contain a raw newline, so the first blank line
	// ends the header block and content-length is its last line.
	end := bytes.Index(wire, []byte("\n\n"))
	at := bytes.LastIndex(wire[:end], []byte("\n"+stomp.HdrContentLength+":")) + 1
	route := stomp.HdrSubscription + ":" + sub + "\n" +
		stomp.HdrMessageID + ":" + idPrefix + strconv.FormatUint(seq, 10) + "\n"
	return append(append(append([]byte(nil), wire[:at]...), route...), wire[at:]...)
}

// deliveryWire returns the bytes WireImage puts on the wire for the same
// delivery.
func deliveryWire(t testing.TB, e *Event, sub, idPrefix string, seq uint64) []byte {
	t.Helper()
	img, err := e.WireImage()
	if err != nil {
		t.Fatalf("WireImage: %v", err)
	}
	var buf bytes.Buffer
	var enc stomp.Encoder
	if err := enc.EncodeImage(&buf, img, sub, idPrefix, seq); err != nil {
		t.Fatalf("EncodeImage: %v", err)
	}
	return buf.Bytes()
}

// The map-walk decode below was the inbound path before UnmarshalView; no
// production code calls it any more and the tests keep it as the decode
// oracle.

// UnmarshalHeaders reconstructs an event from STOMP headers and a body.
// Standard STOMP headers that are not event attributes (subscription,
// message-id, content-length, receipt) are skipped; the attribute map is
// sized to the attributes that survive the skip, and stays nil when none
// do. The event takes ownership of body without copying; callers must
// not reuse it.
func UnmarshalHeaders(headers map[string]string, body []byte) (*Event, error) {
	return UnmarshalHeadersCached(headers, body, nil)
}

// UnmarshalHeadersCached is UnmarshalHeaders with an optional label-parse
// memo for connection read loops (see LabelCache).
func UnmarshalHeadersCached(headers map[string]string, body []byte, cache *LabelCache) (*Event, error) {
	e := &Event{Topic: headers[HeaderDestination]}
	if e.Topic == "" {
		return nil, fmt.Errorf("event: missing %s header", HeaderDestination)
	}
	attrs := 0
	for k := range headers {
		if !skippedHeader(k) {
			attrs++
		}
	}
	if attrs > 0 {
		e.Attrs = make(map[string]string, attrs)
	}
	for k, v := range headers {
		if k == HeaderLabels {
			labels, err := cache.Parse(v)
			if err != nil {
				return nil, fmt.Errorf("event: bad label header: %w", err)
			}
			e.Labels = labels
		}
		if skippedHeader(k) {
			continue
		}
		e.Attrs[k] = v
	}
	if len(body) > 0 {
		e.Body = body
	}
	return e, nil
}
