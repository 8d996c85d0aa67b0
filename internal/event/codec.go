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

// skippedHeader reports whether a STOMP header, given as a string or in
// wire-byte form (the map index elides the string conversion), is transport
// metadata rather than an event attribute.
func skippedHeader[K string | []byte](k K) bool {
	_, ok := skippedHeaders[string(k)]
	return ok
}

// LabelCache memoises label-header parses: header → the set it denotes,
// and whether the header is that set's canonical rendering
// (label.ParseCanonical), so an event may carry it as its label header.
// Parsed label sets are immutable, so a hit is shared. Wire traffic
// repeats one header for long runs, and a topic's events draw on a few
// sets, so the memo holds up to maxCachedAttrKeys headers behind a
// last-hit compare: a run of one header costs one string compare, and a
// reader whose traffic carries no more distinct headers than that parses
// each once. A header met once the memo is full is parsed on every miss, as
// with no memo. Only parses are memoised: a clearance verdict depends on
// the policy generation, and a header that fails to parse fails again each
// time it is met. A LabelCache must be confined to one goroutine: each
// connection read loop owns one inside its DecodeCache, and each replay
// feed owns one.
type LabelCache struct {
	last labelParse
	m    map[string]labelParse
}

// labelParse is one memoised parse.
type labelParse struct {
	hdr       string
	set       label.Set
	canonical bool
}

// Parse returns the label set hdr denotes, through the memo.
func (c *LabelCache) Parse(hdr string) (label.Set, error) {
	p, err := parseLabelHeader(c, hdr)
	return p.set, err
}

// Header returns the label header hdr as a string: the memo's own string
// when the memo holds hdr, a new copy otherwise. A reader that parses the
// headers it keeps through the same memo copies each one it memoises once.
func (c *LabelCache) Header(hdr []byte) string {
	if c != nil {
		if p, ok := c.m[string(hdr)]; ok {
			return p.hdr
		}
	}
	return string(hdr)
}

// parseLabelHeader looks hdr up in the memo (a nil c is an empty one) and
// parses it on a miss. A header given as wire bytes is copied only on a
// miss, into the string the memo keeps.
func parseLabelHeader[H string | []byte](c *LabelCache, hdr H) (labelParse, error) {
	if c != nil {
		if string(hdr) == c.last.hdr {
			return c.last, nil
		}
		if p, ok := c.m[string(hdr)]; ok {
			c.last = p
			return p, nil
		}
	}
	p := labelParse{hdr: string(hdr)}
	var err error
	if p.set, p.canonical, err = label.ParseCanonical(p.hdr); err == nil && c != nil {
		c.last = p
		memoAdd(&c.m, p.hdr, p)
	}
	return p, err
}

// DecodeCache memoises per-read-loop decode state for the map-free view
// path: label-header parses (a LabelCache) and an intern table of the
// attribute keys and destinations a connection repeats on essentially
// every frame. A label header that is the canonical rendering of its set —
// what every SafeWeb publisher sends — is handed to the decoded event as
// its label header, so re-publishing the event forwards the bytes it
// arrived with instead of sorting and rendering the set again; any other
// header is only ever parsed, and the event renders its own. Like
// LabelCache, a DecodeCache must be confined to one goroutine — each
// connection read loop owns one. A nil *DecodeCache is valid and simply
// never hits.
type DecodeCache struct {
	labels LabelCache
	keys   map[string]string
}

// maxCachedAttrKeys bounds each memo table — the intern table and the
// label memo: a peer streaming unbounded distinct keys or headers must not
// grow the cache forever. Beyond the cap, unseen keys simply allocate per
// frame again, and unseen headers are parsed again.
const maxCachedAttrKeys = 256

// memoAdd stores v under k in the memo table *m, made on first use, while
// the table holds fewer than maxCachedAttrKeys entries.
func memoAdd[V any](m *map[string]V, k string, v V) {
	if len(*m) < maxCachedAttrKeys {
		if *m == nil {
			*m = make(map[string]V)
		}
		(*m)[k] = v
	}
}

// intern returns an owned string for an attribute key or destination
// given as wire bytes: the interned copy makes the steady-state cost zero.
func (c *DecodeCache) intern(b []byte) string {
	if c == nil {
		return string(b)
	}
	if k, ok := c.keys[string(b)]; ok { // conversion elided
		return k
	}
	k := string(b)
	memoAdd(&c.keys, k, k)
	return k
}

// parseLabels parses a label header given as wire bytes into e's label
// set, through the memo. The bytes are not retained. A canonical header
// becomes e's label-header memo: it has been proved equal to
// Labels.String(), and its string is already allocated as the memo key.
func (c *DecodeCache) parseLabels(e *Event, hdr []byte) error {
	var labels *LabelCache
	if c != nil {
		labels = &c.labels
	}
	p, err := parseLabelHeader(labels, hdr)
	if err != nil {
		return err
	}
	e.Labels = p.set
	if p.canonical {
		e.labelHeader, e.labelHeaderOf = p.hdr, p.set
	}
	return nil
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
			if skippedHeader(kb) {
				continue
			}
			e.addWireAttr(cache.intern(kb), hv.ValueBytes(i), n-i)
			continue
		}
		switch k {
		case HeaderDestination:
			if !seenTopic {
				seenTopic = true
				e.Topic = cache.intern(hv.ValueBytes(i))
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
