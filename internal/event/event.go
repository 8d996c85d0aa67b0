// Package event defines SafeWeb events: the unit of data exchanged between
// processing components in the backend (paper §4.1).
//
// An event consists of a set of key-value attribute pairs and an optional
// data payload; keys, values and the body are untyped strings. Every event
// carries a set of security labels. Deriving an event from others composes
// labels per the sticky/fragile rules of package label.
//
// # Wire image and delivery lifecycles
//
// A frozen (published) event lazily memoises its STOMP MESSAGE wire form
// (WireImage): the first networked delivery encodes it, every other
// session shares the immutable image, and the memo dies with
// the event. The producer side is symmetric: an event publishing over
// the wire memoises its SEND form (SendImage); both forms come from one
// single-pass builder with no intermediate header map, byte-identical to
// the reference map-and-Encoder encoding the tests keep as an oracle, so
// retried and fan-in publishes encode once.
// It is the only SEND encoding: an attribute named like a STOMP transport
// header would be stripped — or steer the frame — on the wire, so
// SendImage refuses it (ErrTransportAttr) and the publish fails before
// the event is frozen.
// Per-delivery events — Delivery copies of attr-carrying
// events and networked UnmarshalViewDelivery events — come from a pool
// and are recycled by Release when their consumer's callback completes
// (the engine does this for every delivered event); consumers on that
// lifecycle must not retain a delivered event past their callback, and
// must Clone what outlives it. Label sets and bodies are shared immutable
// data and survive Release.
package event

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// ErrReservedAttribute is returned when application code attempts to set an
// attribute in the reserved "x-safeweb-" namespace used for label transport.
var ErrReservedAttribute = errors.New("event: attribute name is reserved")

// ReservedPrefix is the attribute namespace reserved for SafeWeb metadata;
// labels travel in these attributes on the wire, so application code may
// not set them directly.
const ReservedPrefix = "x-safeweb-"

// Event is a labelled message. Events are created by units and by the
// producer components that import data into the system. An Event and its
// attribute map must not be mutated after publishing; units receive
// defensive copies from the engine.
type Event struct {
	// Topic is the destination the event is published to,
	// e.g. "/patient_report".
	Topic string
	// Attrs holds the key-value attribute pairs. Keys and values are
	// untyped strings. A nil map means no attributes; Set initialises it
	// on first write.
	Attrs map[string]string
	// Body is the optional payload. The broker shares the body between
	// the publisher and all subscribers (payloads are treated as
	// immutable once published), so it must not be modified in place
	// after publishing or on receipt.
	Body []byte
	// Labels is the event's security label set (confidentiality and
	// integrity labels together).
	Labels label.Set

	// labelHeader memoises labelHeaderOf.String(), the sorted wire form
	// the SEND and MESSAGE images and the journal record carry, so a label
	// set is rendered once per event: by Freeze, by the first image build,
	// or not at all when the event was decoded from a header proved
	// canonical (DecodeCache). The memo is bound to the set it was rendered
	// from and stands only while Labels is that same set value (sets are
	// immutable, so identity is equality); Labels is an exported field, and
	// re-labelling an event — a Delivery copy included — makes every
	// reader render the new set instead of forwarding a stale header. The
	// set itself is kept, not its address, so it cannot be collected and
	// its address reused under the comparison.
	labelHeader   string
	labelHeaderOf label.Set

	// wire memoises the preencoded STOMP MESSAGE image of a frozen event
	// (see WireImage): encoded lazily at first networked delivery, then
	// shared across every session, so fan-out to S sessions
	// marshals once instead of S times. Nil until first use; the memo
	// lives and dies with the event, so — unlike the per-session frame
	// memo it replaced — it never pins a payload past the event's own
	// lifetime and needs no size cap.
	wire atomic.Pointer[wireMemo]

	// send memoises the preencoded STOMP SEND image of a published event
	// (see SendImage): the producer-side counterpart of wire, encoded at
	// first networked publish with no intermediate header map or frame,
	// then reused by retried and fan-in publishes of the same event. Like
	// wire, the memo lives and dies with the event.
	send atomic.Pointer[stomp.WireImage]

	// frozen is set by Freeze when the broker publishes the event. A
	// frozen event may be shared between the publisher and several
	// subscribers, so Set refuses to mutate it.
	frozen bool

	// pooled marks an event owned by the delivery pool: a per-subscriber
	// Delivery copy or a networked UnmarshalViewDelivery event. Release
	// recycles pooled events; on everything else it is a no-op.
	pooled bool

	// onRelease, when set on a pooled delivery event, runs exactly once,
	// with releaseN, when Release retires the event — the
	// delivery-consumed signal the networked client's credit replenishment
	// rides (NotifyRelease).
	onRelease func(int64)
	releaseN  int64

	// gen is the pooled-lifecycle generation stamp enforcing the
	// non-retention contract fail closed: even while the event is live,
	// bumped to odd when Release recycles it into the pool, bumped back to
	// even when the pool hands it out again. Accessors check the parity
	// and panic with ErrEventReleased on a released event, so a callback
	// that retained a delivery past its Release reads a loud lifecycle
	// violation instead of silently aliasing whatever delivery the pool
	// recycled the struct into.
	gen uint32
}

// wireMemo is the once-computed result of building an event's wire image;
// memo and image are one allocation.
type wireMemo struct {
	img stomp.WireImage
	err error
}

// ErrFrozen is returned by Set on an event that has been published.
var ErrFrozen = errors.New("event: frozen after publish")

// ErrEventReleased is the panic value (wrapped) raised by accessing a
// pooled delivery event after Release recycled it — a use-after-release
// lifecycle violation. Catching it via errors.Is in a recover lets tests
// and supervisors classify the failure; production code should treat it
// as the bug it is.
var ErrEventReleased = errors.New("event: use after Release")

// checkLive panics when the event is a recycled pool entry: a consumer
// retained the delivery past its Release and is now aliasing pool state.
// Failing loudly here is the fail-closed half of the non-retention
// contract — the alternative is silently reading another subscriber's
// delivery.
func (e *Event) checkLive() {
	if e.gen&1 == 1 {
		panic(fmt.Errorf("%w (clone or copy what outlives the callback)", ErrEventReleased))
	}
}

// New creates an event on the given topic with a copy of the given
// attributes and labels. An empty attribute map is stored as nil, so
// attribute-free events cost no map allocation anywhere downstream.
func New(topic string, attrs map[string]string, labels ...label.Label) *Event {
	e := &Event{
		Topic:  topic,
		Labels: label.NewSet(labels...),
	}
	if len(attrs) > 0 {
		e.Attrs = make(map[string]string, len(attrs))
		for k, v := range attrs {
			e.Attrs[k] = v
		}
	}
	return e
}

// Validate checks structural invariants: a non-empty topic and no reserved
// attribute names.
func (e *Event) Validate() error {
	if e.Topic == "" {
		return errors.New("event: empty topic")
	}
	for k := range e.Attrs {
		if strings.HasPrefix(k, ReservedPrefix) {
			return fmt.Errorf("%w: %q", ErrReservedAttribute, k)
		}
	}
	return nil
}

// Get returns the attribute value for key and whether it was present.
// Get panics with ErrEventReleased on a recycled pooled event.
func (e *Event) Get(key string) (string, bool) {
	e.checkLive()
	v, ok := e.Attrs[key]
	return v, ok
}

// Attr returns the attribute value for key, or "" if absent. Attr panics
// with ErrEventReleased on a recycled pooled event.
func (e *Event) Attr(key string) string {
	e.checkLive()
	return e.Attrs[key]
}

// Set sets an attribute, initialising the map if needed. It returns an
// error for reserved attribute names, and ErrFrozen for events that have
// been published: a published event may be shared between the publisher
// and all its subscribers, so in-place mutation would leak across
// isolation boundaries. To modify a received event, Clone it (or build a
// new one with Derive).
func (e *Event) Set(key, value string) error {
	e.checkLive()
	if e.frozen {
		return fmt.Errorf("%w: %q", ErrFrozen, key)
	}
	if strings.HasPrefix(key, ReservedPrefix) {
		return fmt.Errorf("%w: %q", ErrReservedAttribute, key)
	}
	if e.Attrs == nil {
		e.Attrs = make(map[string]string)
	}
	e.Attrs[key] = value
	return nil
}

// Clone returns a deep copy of the event. Label sets are immutable by
// convention and therefore shared. The clone is independent: it is not
// frozen and does not inherit the label-header or image memos; callers
// may re-label it (as the federation bridge does).
func (e *Event) Clone() *Event {
	e.checkLive()
	out := &Event{
		Topic:  e.Topic,
		Labels: e.Labels,
	}
	if e.Attrs != nil {
		out.Attrs = make(map[string]string, len(e.Attrs))
		for k, v := range e.Attrs {
			out.Attrs[k] = v
		}
	}
	if e.Body != nil {
		out.Body = append([]byte(nil), e.Body...)
	}
	return out
}

// Delivery returns the event to hand to one subscriber. Published events
// are frozen — the publisher must not touch them after Publish — so
// everything immutable is shared: topic, body, labels and the cached
// label header. Only the attribute map is copied, because handlers are
// allowed to annotate their own view of an event in place and a buggy
// unit must not be able to affect its peers. Attribute-free events are
// shared outright, making delivery allocation-free; the shared event
// stays frozen, so Set on it fails instead of leaking across subscribers,
// while per-subscriber copies are mutable.
//
// Per-subscriber copies come from the delivery pool: consumers that
// process events on a strict per-delivery lifecycle (the engine's
// subscription workers) call Release when the callback completes, so the
// steady state reuses the Event struct and its attribute map instead of
// allocating per delivery. Callbacks must not retain a delivered event
// past their own return — the same non-retention contract as the pooled
// engine Context; Clone what must outlive the callback.
func (e *Event) Delivery() *Event {
	e.checkLive()
	if len(e.Attrs) == 0 {
		return e
	}
	d := newPooledEvent()
	d.Topic = e.Topic
	d.Body = e.Body
	d.Labels = e.Labels
	d.labelHeader, d.labelHeaderOf = e.labelHeader, e.labelHeaderOf
	if d.Attrs == nil {
		d.Attrs = make(map[string]string, len(e.Attrs))
	}
	for k, v := range e.Attrs {
		d.Attrs[k] = v
	}
	return d
}

// deliveryPool recycles per-delivery events (Delivery copies and
// networked UnmarshalViewDelivery events). Pooled events keep their
// cleared attribute map across round-trips, so a fan-out consumer's
// steady state allocates neither the Event nor the map.
var deliveryPool = sync.Pool{New: func() any { return new(Event) }}

// newPooledEvent returns a cleared event from the delivery pool, marked
// for recycling by Release. Its Attrs map, when non-nil, is empty and
// ready for reuse.
func newPooledEvent() *Event {
	e := deliveryPool.Get().(*Event)
	e.pooled = true
	if e.gen&1 == 1 {
		e.gen++ // back to even: the struct is live again
	}
	return e
}

// maxPooledAttrs bounds the attribute map retained by a pooled event: a
// one-off delivery with a huge attribute set must not pin its buckets in
// the pool forever.
const maxPooledAttrs = 64

// Release returns a pooled delivery event to the delivery pool, clearing
// its fields (the attribute map is kept, emptied, for reuse). It is a
// no-op on events that did not come from the pool — notably the shared
// attribute-free delivery and published events — so callers on the
// delivery path may call it unconditionally. The caller must be the
// event's sole owner and must not touch the event afterwards; the engine
// calls it when a subscription callback completes, extending the pooled
// Context's invalidation lifecycle to the event itself.
func (e *Event) Release() {
	if e == nil || !e.pooled {
		return
	}
	if fn := e.onRelease; fn != nil {
		// The consumed notification fires exactly once, before the
		// frozen-escapee check: an event that escapes recycling was still
		// processed, so credit replenishment must still see it.
		e.onRelease = nil
		fn(e.releaseN)
	}
	if e.frozen {
		// The delivered event escaped its lifecycle: a callback
		// re-published it through a direct broker handle, so it may now
		// be shared with other subscribers. Leak it to the GC instead of
		// clearing live shared state — a pool miss, not a corruption.
		return
	}
	e.pooled = false
	e.Topic = ""
	e.Body = nil
	e.Labels = nil
	e.labelHeader, e.labelHeaderOf = "", nil
	e.frozen = false
	e.wire.Store(nil)
	e.send.Store(nil)
	if len(e.Attrs) > maxPooledAttrs {
		e.Attrs = nil
	} else {
		clear(e.Attrs)
	}
	// Stamp the struct released (odd generation) only on the real recycle
	// path: a frozen escapee above stays live — it may still be shared
	// with other subscribers — while a recycled struct must fail any late
	// access loudly (checkLive).
	e.gen++
	deliveryPool.Put(e)
}

// NotifyRelease arranges for fn(n) to run exactly once when Release
// retires this pooled delivery event — the moment the consumer has
// finished with the delivery. The networked client uses it to count
// consumed deliveries for credit replenishment without wrapping the
// handler: n is the delivery's number (0 for none), kept in the event, so
// a caller that binds fn once allocates nothing per delivery. It is a
// no-op on non-pooled events (which are never Released) and overwrites any
// earlier notification; the caller must set it before handing the event
// to its consumer.
func (e *Event) NotifyRelease(fn func(int64), n int64) {
	if e == nil || !e.pooled {
		return
	}
	e.onRelease, e.releaseN = fn, n
}

// Freeze marks the event as published: it settles the label header (see
// LabelHeader; nothing is rendered for an event that already carries the
// header of its current label set) and blocks further Set calls, since
// the event may now be shared between the publisher and any number of
// subscribers, whose concurrent image builds then only read the header.
// The broker calls it once per publish before fan-out, on the publishing
// goroutine; it must not be called concurrently with readers of the same
// event.
func (e *Event) Freeze() {
	e.frozen = true
	e.LabelHeader()
}

// LabelHeader returns the sorted wire form of the event's label set —
// the value of the labels transport header in the SEND and MESSAGE
// images — rendering it only when the event holds no header for the set
// Labels currently is. The durable journal persists this string with each
// record so replay can re-parse and re-enforce clearance at read time
// without touching the wire image.
func (e *Event) LabelHeader() string {
	if !e.labelHeaderOf.Is(e.Labels) {
		e.labelHeader, e.labelHeaderOf = e.Labels.String(), e.Labels
	}
	return e.labelHeader
}

// NewDraft returns a pooled event for a producer to fill and publish —
// the producer-side counterpart of the delivery pool. A draft behaves
// exactly like a New event (Set, Body, Labels all work) until it is
// published; after the publish completes, a producer that owns the
// networked-client fast path exclusively may call ReleasePublished to
// recycle the struct, dropping the per-publish Event and map allocations
// from the cold-publish cost. Producers that publish through an
// in-process broker handle must NOT release drafts: the broker shares
// the pointer with subscribers.
func NewDraft(topic string) *Event {
	e := newPooledEvent()
	e.Topic = topic
	return e
}

// ReleasePublished recycles a published draft back into the pool. It is
// safe only when the caller is the event's sole remaining owner — i.e.
// the event was created with NewDraft and published exclusively through
// the networked Client, whose write queue holds the event's heap-separate
// SEND image, never the Event struct itself. A no-op on non-pooled
// events, so callers may guard a mixed fleet of drafts and New events
// with a single unconditional call.
func (e *Event) ReleasePublished() {
	if e == nil || !e.pooled {
		return
	}
	// Freeze marked the event shared for the duration of the publish; the
	// caller asserting sole ownership un-marks it so Release recycles
	// instead of leaking the struct as a frozen escapee.
	e.frozen = false
	e.Release()
}

// wireBuilds counts wire-image encodes across all events, for tests and
// monitoring that assert the publish-once property (an event delivered to
// N sessions must bump this exactly once).
var wireBuilds atomic.Uint64

// WireImageBuilds returns the process-wide count of wire-image encodes.
// Regression tests use the delta across a publish fan-out to prove that
// the MESSAGE header block and body are marshalled once per published
// event, not once per session.
func WireImageBuilds() uint64 { return wireBuilds.Load() }

// WireImage returns the preencoded STOMP MESSAGE image for a frozen
// event, building it at most once and through the single-pass builder
// SendImage uses (no header map; the label header is the one Freeze
// settled): the first caller encodes the canonical header block and body
// (sync.Once-style, via an atomic memo), every later caller — any session
// delivering the same event — shares the immutable image.
// Concurrent first calls are safe; both compute identical bytes and one
// becomes canonical.
//
// The event must be frozen (published): the image is derived from the
// topic, attributes, labels and body, all of which are immutable after
// Freeze. An error (an event that fails validation despite publish-time
// checks) is memoised too, so a broken event does not re-marshal per
// delivery; callers route it to their drop accounting rather than
// discarding it silently.
func (e *Event) WireImage() (*stomp.WireImage, error) {
	m := e.wire.Load()
	if m == nil {
		m = &wireMemo{}
		m.err = buildImage(e, stomp.CmdMessage, &m.img)
		if !e.wire.CompareAndSwap(nil, m) {
			m = e.wire.Load()
		} else if m.err == nil {
			wireBuilds.Add(1) // one canonical build per event
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	return &m.img, nil
}

// sendBuilds counts SEND-image encodes across all events, for tests and
// monitoring that assert the encode-once property of the producer path.
var sendBuilds atomic.Uint64

// SendImageBuilds returns the process-wide count of SEND-image encodes.
func SendImageBuilds() uint64 { return sendBuilds.Load() }

// SendImage returns the event's preencoded STOMP SEND image — the
// producer-side counterpart of WireImage, built at most once and in a
// single pass over the event's fields: no intermediate header map, no
// Frame, wire bytes byte-identical to the reference map-and-Encoder
// encoding (with a splice point where a per-publish receipt header lands
// in its canonical sorted position, see stomp.Encoder.EncodeSendImage).
// Concurrent first calls are safe; both compute identical bytes and one
// becomes canonical.
//
// SendImage is also the publish-time gate: it validates the event and
// refuses, with ErrTransportAttr, attributes named like STOMP transport
// headers (destination, receipt, ...). A refusal memoises no image, so the
// networked client calls it before Freeze and a refused event stays
// mutable. A successful build is memoised, so the caller must freeze the
// event before anything else can touch it — the image is derived from the
// topic, attributes, labels and body, which must no longer change.
func (e *Event) SendImage() (*stomp.WireImage, error) {
	if img := e.send.Load(); img != nil {
		return img, nil
	}
	img := new(stomp.WireImage)
	if err := buildImage(e, stomp.CmdSend, img); err != nil {
		return nil, err
	}
	if !e.send.CompareAndSwap(nil, img) {
		return e.send.Load(), nil
	}
	sendBuilds.Add(1) // one canonical build per event
	return img, nil
}

// Derive creates a new event on the given topic whose labels are composed
// from the labels of the source events: confidentiality labels are sticky
// (union) and integrity labels are fragile (intersection). This is the only
// supported way for unit code to construct output events from inputs, so
// the composition rule cannot be forgotten.
func Derive(topic string, attrs map[string]string, body []byte, sources ...*Event) *Event {
	sets := make([]label.Set, len(sources))
	for i, src := range sources {
		sets[i] = src.Labels
	}
	e := New(topic, attrs)
	e.Body = append([]byte(nil), body...)
	e.Labels = label.Derive(sets...)
	return e
}

// SortedKeys returns the attribute keys in lexicographic order, for
// deterministic encoding and display.
func (e *Event) SortedKeys() []string {
	keys := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders a compact human-readable form for logs and debugging.
// Attribute values are not truncated; events in SafeWeb deployments are
// small records, not blobs.
func (e *Event) String() string {
	var b strings.Builder
	b.WriteString(e.Topic)
	b.WriteByte('{')
	for i, k := range e.SortedKeys() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", k, e.Attrs[k])
	}
	b.WriteByte('}')
	if !e.Labels.IsEmpty() {
		fmt.Fprintf(&b, "[%s]", e.Labels)
	}
	if len(e.Body) > 0 {
		fmt.Fprintf(&b, "+%dB", len(e.Body))
	}
	return b.String()
}
