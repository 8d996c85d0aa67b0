package event

import (
	"errors"
	"fmt"

	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// Wire-format header names. The paper encodes labels "as event headers with
// special semantics in SEND and SUBSCRIBE messages" (§4.2); these are those
// headers.
const (
	// HeaderLabels carries the event's label set as a comma-separated
	// list of label URIs on SEND/MESSAGE frames.
	HeaderLabels = ReservedPrefix + "labels"
	// HeaderClearance carries a subscriber's clearance set on SUBSCRIBE
	// frames, as narrowed by the engine from the unit's policy.
	HeaderClearance = ReservedPrefix + "clearance"
	// HeaderDestination is STOMP's standard destination header.
	HeaderDestination = "destination"
)

// ErrTransportAttr reports an event whose attribute names collide with
// STOMP transport headers (destination, receipt, content-length, ...; see
// skippedHeaders). On the wire such an attribute would be silently
// stripped by the receiving side, or — worse — steer the frame (a
// "receipt" attribute elicits an unsolicited RECEIPT), so a networked
// publish fails closed with this error before anything is sent and
// before the event is frozen.
var ErrTransportAttr = errors.New("event: attribute name collides with a transport header")

// buildImage encodes the event's wire image for command — SEND on the
// producer side, MESSAGE on the broker's — into dst in a single pass:
// destination, label header and attributes are merged in canonical sorted
// order straight into the image buffer, with no intermediate map. The one
// difference between the kinds is what an attribute named like a transport
// header means: a SEND refuses it (ErrTransportAttr); a MESSAGE, which an
// in-process publisher may have given any attribute, leaves out the four
// names the frame sets itself (destination, content-length and the
// per-delivery subscription and message-id) and carries the rest.
func buildImage(e *Event, command string, dst *stomp.WireImage) error {
	if err := e.Validate(); err != nil {
		return err
	}
	labels := e.LabelHeader()
	hint := len(command) + len(stomp.HdrContentLength) + 24 +
		len(HeaderDestination) + len(e.Topic) + 2 + len(e.Body)
	n := len(e.Attrs) + 1
	if labels != "" {
		hint += len(HeaderLabels) + len(labels) + 2
		n++
	}
	// Typical events carry a handful of attributes; the sorted-key scratch
	// stays on the stack for them and only outsized events pay for it.
	var kbuf [12]string
	keys := kbuf[:0]
	if n > len(kbuf) {
		keys = make([]string, 0, n)
	}
	keys = append(keys, HeaderDestination)
	if labels != "" {
		keys = append(keys, HeaderLabels) // "x-safeweb-" sorts after "destination"
	}
	for k, v := range e.Attrs {
		switch {
		case command == stomp.CmdSend:
			if skippedHeader(k) {
				return fmt.Errorf("%w: %q", ErrTransportAttr, k)
			}
		case k == HeaderDestination, k == stomp.HdrContentLength,
			k == stomp.HdrSubscription, k == stomp.HdrMessageID:
			continue
		}
		hint += len(k) + len(v) + 2
		// Insertion sort, as the encoder's sorted-key helper does; attrs
		// cannot collide with the two fixed keys (destination is gated or
		// left out above, the reserved prefix refused by Validate).
		keys = append(keys, k)
		for i := len(keys) - 1; i > 0 && keys[i-1] > k; i-- {
			keys[i], keys[i-1] = keys[i-1], keys[i]
		}
	}
	b := stomp.NewImageBuilder(command, hint)
	for _, k := range keys {
		switch k {
		case HeaderDestination:
			b.Header(k, e.Topic)
		case HeaderLabels:
			b.Header(k, labels)
		default:
			b.Header(k, e.Attrs[k])
		}
	}
	*dst = b.Finish(e.Body)
	return nil
}

// skippedHeaders is the single source of truth for STOMP headers that are
// transport metadata rather than event attributes. The single-pass view
// walk, the SEND gate and the map-walk oracle the tests keep all consult
// this table, so they cannot silently diverge when a header is added.
var skippedHeaders = map[string]struct{}{
	HeaderDestination: {}, HeaderLabels: {}, HeaderClearance: {},
	"subscription": {}, "message-id": {}, "content-length": {},
	"receipt": {}, "receipt-id": {}, "id": {}, "ack": {},
	"selector": {}, "transaction": {},
}

// skippedHeader reports whether a STOMP header is transport metadata
// rather than an event attribute.
func skippedHeader(k string) bool {
	_, ok := skippedHeaders[k]
	return ok
}

// skippedHeaderBytes is skippedHeader for keys still in wire-byte form
// (the map index elides the string conversion).
func skippedHeaderBytes(k []byte) bool {
	_, ok := skippedHeaders[string(k)]
	return ok
}

// LabelCache memoises the most recent label-header parse. Wire traffic
// between two units typically repeats one label set for long runs of
// messages, and parsed label sets are immutable, so a one-entry memo
// keyed on the raw header string removes the per-message parse from the
// connection read loop. A LabelCache must be confined to one goroutine
// (each connection read loop owns one, inside its DecodeCache).
type LabelCache struct {
	hdr string
	set label.Set
	// canonical records that hdr is set's canonical rendering
	// (label.ParseCanonical), so an event may carry hdr as its label header.
	canonical bool
}

// DecodeCache memoises per-read-loop decode state for the map-free view
// path: the most recent label-header parse (label sets are immutable and
// wire traffic repeats one set for long runs) and the most recent topic
// string (fan-out consumers see the same destination on every frame). A
// label header that is the canonical rendering of its set — what every
// SafeWeb publisher sends — is handed to the decoded event as its label
// header, so re-publishing the event forwards the bytes it arrived with
// instead of sorting and rendering the set again; any other header is
// only ever parsed, and the event renders its own. Like
// LabelCache, a DecodeCache must be confined to one goroutine — each
// connection read loop owns one. A nil *DecodeCache is valid and simply
// never hits.
type DecodeCache struct {
	labels LabelCache
	topic  string
	keys   map[string]string
}

// maxCachedAttrKeys bounds the attribute-key intern table: a peer
// streaming unbounded distinct keys must not grow the cache forever.
// Beyond the cap, unseen keys simply allocate per frame again.
const maxCachedAttrKeys = 256

// attrKey returns an owned string for an attribute key given as wire
// bytes. Connections repeat the same few attribute keys on essentially
// every frame, so the interned copy makes the steady-state key cost zero.
func (c *DecodeCache) attrKey(b []byte) string {
	if c == nil {
		return string(b)
	}
	if k, ok := c.keys[string(b)]; ok { // conversion elided
		return k
	}
	k := string(b)
	if len(c.keys) < maxCachedAttrKeys {
		if c.keys == nil {
			c.keys = make(map[string]string)
		}
		c.keys[k] = k
	}
	return k
}

// parseLabels parses a label header given as wire bytes into e's label
// set, consulting and updating the memo. The bytes are not retained. A
// canonical header becomes e's label-header memo: it has been proved equal
// to Labels.String(), and its string is already allocated as the memo key.
func (c *DecodeCache) parseLabels(e *Event, hdr []byte) error {
	var parsed LabelCache
	if c != nil && c.labels.set != nil && string(hdr) == c.labels.hdr {
		parsed = c.labels
	} else {
		var err error
		parsed.hdr = string(hdr)
		parsed.set, parsed.canonical, err = label.ParseCanonical(parsed.hdr)
		if err != nil {
			return err
		}
		if c != nil && parsed.set != nil {
			c.labels = parsed
		}
	}
	e.Labels = parsed.set
	if parsed.canonical {
		e.labelHeader, e.labelHeaderOf = parsed.hdr, parsed.set
	}
	return nil
}

// topicString returns an owned string for a destination header given as
// wire bytes, reusing the memoised copy when the topic repeats.
func (c *DecodeCache) topicString(b []byte) string {
	if c != nil && string(b) == c.topic && c.topic != "" {
		return c.topic
	}
	t := string(b)
	if c != nil {
		c.topic = t
	}
	return t
}

// addWireAttr records one attribute decoded off the wire: the map is
// created lazily with the given size hint and repeated keys keep the
// first occurrence, matching the map-materialisation semantics. k must be
// an owned string; vb is copied.
func (e *Event) addWireAttr(k string, vb []byte, hint int) {
	if e.Attrs == nil {
		e.Attrs = make(map[string]string, hint)
	}
	if _, dup := e.Attrs[k]; !dup {
		e.Attrs[k] = string(vb)
	}
}

// UnmarshalView reconstructs an event from a decoded STOMP frame view in a
// single pass over the headers: no header map is ever built for transport
// metadata, label parses and the topic string are memoised via cache, and
// the event takes ownership of body without copying (callers must not
// reuse it). The semantics — skipped transport headers, first-occurrence-
// wins for repeated keys, missing-destination error — match the
// UnmarshalHeaders oracle (in the tests) over the materialised map.
//
// The view must follow the stomp.HeaderView ownership rules: UnmarshalView
// runs on the view's read loop and retains nothing from the view's scratch
// buffer.
func UnmarshalView(hv *stomp.HeaderView, body []byte, cache *DecodeCache) (*Event, error) {
	return unmarshalView(&Event{}, hv, body, cache)
}

// UnmarshalViewDelivery is UnmarshalView for delivery pipelines with a
// strict per-event lifecycle: the returned event comes from the delivery
// pool and is recycled by Release once its callback completes (the
// engine does this for every delivered event). The caller's pipeline must
// own the event exclusively and must not retain it past Release; events
// that are re-published or otherwise escape the delivery lifecycle must
// use UnmarshalView instead. A pooled event reuses its attribute map, so
// a fan-out consumer's steady state allocates only the body and the
// attribute value strings.
func UnmarshalViewDelivery(hv *stomp.HeaderView, body []byte, cache *DecodeCache) (*Event, error) {
	e := newPooledEvent()
	if _, err := unmarshalView(e, hv, body, cache); err != nil {
		e.Release() // malformed frame: recycle the unused pooled event
		return nil, err
	}
	return e, nil
}

// unmarshalView builds the event into e, which must be zero-valued apart
// from a reusable (empty) attribute map.
func unmarshalView(e *Event, hv *stomp.HeaderView, body []byte, cache *DecodeCache) (*Event, error) {
	n := hv.Len()
	seenTopic, seenLabels := false, false
	for i := 0; i < n; i++ {
		k := hv.InternedKey(i)
		if k == "" {
			kb := hv.KeyBytes(i)
			if skippedHeaderBytes(kb) {
				continue
			}
			e.addWireAttr(cache.attrKey(kb), hv.ValueBytes(i), n-i)
			continue
		}
		switch k {
		case HeaderDestination:
			if !seenTopic {
				seenTopic = true
				e.Topic = cache.topicString(hv.ValueBytes(i))
			}
		case HeaderLabels:
			if !seenLabels {
				seenLabels = true
				if err := cache.parseLabels(e, hv.ValueBytes(i)); err != nil {
					return nil, fmt.Errorf("event: bad label header: %w", err)
				}
			}
		default:
			if skippedHeader(k) {
				continue // transport metadata, not an event attribute
			}
			// Interned but attribute-like (login, session, ...): same
			// treatment as any application header.
			e.addWireAttr(k, hv.ValueBytes(i), n-i)
		}
	}
	if e.Topic == "" {
		return nil, fmt.Errorf("event: missing %s header", HeaderDestination)
	}
	if len(body) > 0 {
		e.Body = body
	}
	return e, nil
}
