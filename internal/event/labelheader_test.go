package event

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// parentLabelHeader renders a label set the way the parent commit's
// Set.String did — URIs sorted as strings, joined — with no code shared
// with the one-pass rendering or with the memo that forwards a header.
func parentLabelHeader(s label.Set) string {
	var uris []string
	for l := range s {
		uris = append(uris, l.String())
	}
	sort.Strings(uris)
	return strings.Join(uris, ",")
}

// sendWithLabelHeader is a SEND as a client — ours or a foreign one —
// puts it on the wire: the label header is whatever string the client
// chose to send.
func sendWithLabelHeader(t testing.TB, hdr string) []byte {
	t.Helper()
	f := stomp.NewFrame(stomp.CmdSend)
	f.SetHeader(stomp.HdrDestination, "/patient_report")
	f.SetHeader("patient_id", "33812769")
	f.SetHeader("type", "cancer")
	f.SetHeader(HeaderLabels, hdr)
	f.Body = []byte(`{"summary": "report", "mdt": 7}`)
	var buf bytes.Buffer
	var enc stomp.Encoder
	if err := enc.Encode(&buf, f); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// sameBytes reports whether two strings are one allocation, not merely
// equal: how the tests below tell a forwarded header from a re-rendered
// one without a counter in production code.
func sameBytes(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// TestCanonicalHeaderForwardedNotRendered is the new ≡ old check for the
// broker's hop: a SEND decoded by UnmarshalView and frozen, as
// Server.OnFrameView and Broker.Publish do, yields a MESSAGE and a journal
// label header byte-identical to the parent's — the set rendered from
// scratch — whatever the incoming header looked like. What differs is the
// work: a header proved canonical is the event's header (the very string
// the decoder allocated; Freeze renders nothing and allocates nothing),
// while an unsorted, duplicated, padded or gappy header denotes the same
// set but is never forwarded: the event renders its own, once.
func TestCanonicalHeaderForwardedNotRendered(t *testing.T) {
	want := label.NewSet(label.Conf("ecric.org.uk/mdt/7"), label.Conf("ecric.org.uk/patient/12"), label.Int("ecric.org.uk/mdt"))
	canonical := "label:conf:ecric.org.uk/mdt/7,label:conf:ecric.org.uk/patient/12,label:int:ecric.org.uk/mdt"
	for _, tc := range []struct {
		name, hdr string
		renders   int
	}{
		{"canonical", canonical, 0},
		{"unsorted", "label:int:ecric.org.uk/mdt,label:conf:ecric.org.uk/patient/12,label:conf:ecric.org.uk/mdt/7", 1},
		{"duplicated", canonical + ",label:int:ecric.org.uk/mdt", 1},
		{"space-padded", strings.ReplaceAll(canonical, ",", ", "), 1},
		{"padded at the edge", canonical + " ", 1},
		{"empty element", strings.Replace(canonical, ",", ",,", 1), 1},
		{"trailing comma", canonical + ",", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := sendWithLabelHeader(t, tc.hdr)
			for _, mode := range []struct {
				name   string
				cached bool
				warm   int // decodes of the same frame before the one under test
			}{{"no cache", false, 0}, {"cache miss", true, 0}, {"cache hit", true, 1}} {
				decode := func() *Event {
					var cache *DecodeCache
					if mode.cached {
						cache = new(DecodeCache)
					}
					var ev *Event
					for i := 0; i <= mode.warm; i++ {
						v := decodeWire(t, raw)
						var err error
						if ev, err = UnmarshalView(&v.Headers, v.Body, cache); err != nil {
							t.Fatalf("%s: UnmarshalView: %v", mode.name, err)
						}
					}
					return ev
				}
				evs := []*Event{decode(), decode()} // AllocsPerRun(1, f) calls f twice
				ev, decoded := evs[1], evs[1].labelHeader
				if !ev.Labels.Equal(want) {
					t.Fatalf("%s: labels = %v, want %v", mode.name, ev.Labels, want)
				}
				i := 0
				allocs := testing.AllocsPerRun(1, func() {
					evs[i].Freeze()
					i++
				})
				if int(allocs) != tc.renders {
					t.Errorf("Freeze made %v allocations, want %d (one per rendering of the set)", allocs, tc.renders)
				}
				if forwarded := decoded != "" && sameBytes(ev.LabelHeader(), decoded); forwarded != (tc.renders == 0) {
					t.Errorf("header forwarded = %v (decoded %q, frozen %q)", forwarded, decoded, ev.LabelHeader())
				}
				if tc.renders > 0 && decoded != "" {
					t.Errorf("a non-canonical header became the event's header: %q", decoded)
				}
				if got := ev.LabelHeader(); got != parentLabelHeader(want) {
					t.Errorf("journal label header = %q, the parent's = %q", got, parentLabelHeader(want))
				}
				got, ref := deliveryWire(t, ev, "sub-1", "m-1-", 7), messageOracle(t, ev, "sub-1", "m-1-", 7)
				if !bytes.Equal(got, ref) {
					t.Errorf("MESSAGE differs from the reference encoding:\n got %q\nwant %q", got, ref)
				}
				if !bytes.Contains(got, []byte(strings.ReplaceAll(canonical, ":", `\c`))) {
					t.Errorf("MESSAGE does not carry the canonical header: %q", got)
				}
			}
		})
	}
}

// TestCanonicalForwardingNeedsProof: the cache memoises "canonical" with
// the header it was proved for, so a canonical header followed by a
// different rendering of the same set (and the reverse) is judged on its
// own bytes.
func TestCanonicalForwardingNeedsProof(t *testing.T) {
	var cache DecodeCache
	canonical, padded := "label:conf:a,label:conf:b", "label:conf:a, label:conf:b"
	for i, hdr := range []string{canonical, padded, padded, canonical, canonical, "label:conf:b,label:conf:a"} {
		v := decodeWire(t, sendWithLabelHeader(t, hdr))
		ev, err := UnmarshalView(&v.Headers, v.Body, &cache)
		if err != nil {
			t.Fatalf("UnmarshalView(%q): %v", hdr, err)
		}
		ev.Freeze()
		if got := ev.LabelHeader(); got != canonical {
			t.Errorf("step %d, header %q: event carries %q, want %q", i, hdr, got, canonical)
		}
	}
}

// TestLabelHeaderFollowsRelabel is the stale-memo bug: Labels is an
// exported field and Delivery hands a mutable copy to each subscriber, so
// an event can be re-labelled after its header was rendered. Every reader
// of the header — Freeze, LabelHeader, both wire images — must then speak
// for the set the event has now, not the one it had. At the parent the
// patient label below was gone from the wire for every networked consumer.
func TestLabelHeaderFollowsRelabel(t *testing.T) {
	const want = "label:conf:x/mdt/1,label:conf:x/patient/9"
	relabelled := func() *Event {
		src := New("/t", map[string]string{"k": "v"}, label.Conf("x/mdt/1"))
		src.Freeze()
		d := src.Delivery()
		d.Labels = d.Labels.With(label.Conf("x/patient/9"))
		return d
	}
	wireHas := func(t *testing.T, img *stomp.WireImage, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("image: %v", err)
		}
		if hdr := HeaderLabels + ":" + strings.ReplaceAll(want, ":", `\c`) + "\n"; !bytes.Contains(img.Prefix(), []byte(hdr)) {
			t.Errorf("image carries a stale label header: %q", img.Prefix())
		}
	}
	t.Run("LabelHeader", func(t *testing.T) {
		if got := relabelled().LabelHeader(); got != want {
			t.Errorf("LabelHeader = %q, want %q", got, want)
		}
	})
	t.Run("Freeze then WireImage", func(t *testing.T) {
		d := relabelled()
		d.Freeze()
		img, err := d.WireImage()
		wireHas(t, img, err)
		if got := d.LabelHeader(); got != want {
			t.Errorf("journal header = %q, want %q", got, want)
		}
	})
	t.Run("WireImage alone", func(t *testing.T) {
		img, err := relabelled().WireImage()
		wireHas(t, img, err)
	})
	t.Run("SendImage", func(t *testing.T) {
		img, err := relabelled().SendImage()
		wireHas(t, img, err)
	})
	t.Run("decoded delivery", func(t *testing.T) {
		// A networked delivery carries the header it arrived with; a
		// callback that adds a label and re-publishes must not send it.
		v := decodeWire(t, sendWithLabelHeader(t, "label:conf:x/mdt/1"))
		d, err := UnmarshalViewDelivery(&v.Headers, v.Body, new(DecodeCache))
		if err != nil {
			t.Fatalf("UnmarshalViewDelivery: %v", err)
		}
		d.Labels = d.Labels.With(label.Conf("x/patient/9"))
		d.Freeze()
		img, err := d.WireImage()
		wireHas(t, img, err)
	})
	t.Run("a set swapped for an equal one keeps a true header", func(t *testing.T) {
		d := relabelled()
		d.Freeze()
		//lint:ignore frozenmutate probing the memo binding: a header must stay true even for a write the contract forbids
		d.Labels = label.NewSet(label.Conf("x/patient/9"), label.Conf("x/mdt/1"))
		if got := d.LabelHeader(); got != want {
			t.Errorf("LabelHeader = %q, want %q", got, want)
		}
	})
	t.Run("labels dropped altogether", func(t *testing.T) {
		d := relabelled()
		d.Freeze()
		//lint:ignore frozenmutate probing the memo binding: a header must stay true even for a write the contract forbids
		d.Labels = nil
		if got := d.LabelHeader(); got != "" {
			t.Errorf("LabelHeader of an unlabelled event = %q", got)
		}
		img, err := d.WireImage()
		if err != nil || bytes.Contains(img.Prefix(), []byte(HeaderLabels)) {
			t.Errorf("unlabelled event's image: %v, %q", err, img.Prefix())
		}
	})
}

// TestLabelHeaderReleaseClearsMemo: a recycled pooled event must not hand
// its old header (or keep its old set alive) to the next delivery.
func TestLabelHeaderReleaseClearsMemo(t *testing.T) {
	src := New("/t", map[string]string{"k": "v"}, label.Conf("x/mdt/1"))
	src.Freeze()
	d := src.Delivery()
	if !sameBytes(d.labelHeader, src.labelHeader) || !d.labelHeaderOf.Is(src.Labels) {
		t.Error("Delivery did not share the published event's header")
	}
	d.Release()
	if d.labelHeader != "" || d.labelHeaderOf != nil {
		t.Errorf("Release left the memo behind: %q of %v", d.labelHeader, d.labelHeaderOf)
	}
}

// TestCanonicalWireImageMatchesOracle: WireImage no longer builds through
// the MarshalHeaders map, so pin it to that encoding — Encoder.Encode of
// the MarshalHeaders frame with the route spliced — over the whole send
// corpus plus what only an in-process publisher can produce: attributes
// named like the headers a MESSAGE sets itself, which the map overwrote
// (destination), the key sort skipped (content-length) or the old image
// builder dropped (subscription, message-id), and transport names a
// MESSAGE has always carried (receipt, id).
func TestCanonicalWireImageMatchesOracle(t *testing.T) {
	corpus := sendConformanceCorpus()
	for _, name := range []string{"subscription", "message-id", "content-length", "destination", "receipt", "id"} {
		ev := New("/t", map[string]string{name: "forged", "kept": "v", "zz": "last"}, label.Conf("a.org/x"))
		ev.Body = []byte("payload")
		corpus = append(corpus, struct {
			name string
			ev   *Event
		}{"attribute named " + name, ev})
	}
	all := New("/t", map[string]string{
		"subscription": "s", "message-id": "m", "content-length": "9999", "destination": "/evil", "a": "1",
	}, label.Int("b.org/y"), label.Conf("a.org/x"))
	corpus = append(corpus, struct {
		name string
		ev   *Event
	}{"all four at once", all})
	for _, tc := range corpus {
		t.Run(tc.name, func(t *testing.T) {
			tc.ev.Freeze()
			got, want := deliveryWire(t, tc.ev, "sub:7", "m-3-", 42), messageOracle(t, tc.ev, `sub\c7`, "m-3-", 42)
			if !bytes.Equal(got, want) {
				t.Fatalf("MESSAGE differs from the reference encoding:\n got %q\nwant %q", got, want)
			}
			back, err := stomp.NewDecoder(bytes.NewReader(got)).Decode()
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if back.Header(stomp.HdrDestination) != tc.ev.Topic || back.Header(stomp.HdrSubscription) != "sub:7" {
				t.Errorf("delivery decodes to %v", back)
			}
		})
	}
}

// coldEvent is the pipeline workload's event shape: four attributes, three
// labels, a 1 KiB body.
func coldEvent() *Event {
	ev := New("/patient_report", map[string]string{
		"patient_id": "33812769", "type": "cancer", "mdt": "7", "site": "C50.9",
	}, label.Conf("ecric.org.uk/mdt/7"), label.Conf("ecric.org.uk/patient/33812769"), label.Int("ecric.org.uk/mdt"))
	ev.Body = bytes.Repeat([]byte("x"), 1024)
	return ev
}

// TestCanonicalCosts holds the per-event costs to their counts. Freezing
// an event decoded from a canonical header allocates nothing (the parent
// rendered the set again: 13 allocations at three labels). A cold
// WireImage is the memo-with-image and the image bytes, plus one rendering
// of the label set when nothing has settled the header yet: at most 3,
// where the map-built image took 6 with the header already rendered. And
// MESSAGE and SEND are one routine, so a cold WireImage allocates no more
// than a cold SendImage.
func TestCanonicalCosts(t *testing.T) {
	raw := sendWithLabelHeader(t, coldEvent().Labels.String())
	var cache DecodeCache
	events := make([]*Event, 101) // AllocsPerRun(100, f) calls f 101 times
	for i := range events {
		v := decodeWire(t, raw)
		var err error
		if events[i], err = UnmarshalView(&v.Headers, v.Body, &cache); err != nil {
			t.Fatalf("UnmarshalView: %v", err)
		}
	}
	i := 0
	if got := testing.AllocsPerRun(100, func() {
		events[i].Freeze()
		i++
	}); got != 0 {
		t.Errorf("Freeze of an event decoded from a canonical header: %v allocs/op, want 0", got)
	}

	for i := range events {
		events[i] = coldEvent()
	}
	i = 0
	if got := testing.AllocsPerRun(100, func() {
		if _, err := events[i].WireImage(); err != nil {
			t.Fatalf("WireImage: %v", err)
		}
		i++
	}); got > 3 {
		t.Errorf("cold WireImage: %v allocs/op, want <= 3", got)
	}
	// Frozen: the header is settled, so only the image itself allocates.
	cold := func(build func(*Event) error) float64 {
		for i := range events {
			events[i] = coldEvent()
			events[i].Freeze()
		}
		i := 0
		return testing.AllocsPerRun(100, func() {
			if err := build(events[i]); err != nil {
				t.Fatalf("image: %v", err)
			}
			i++
		})
	}
	wire := cold(func(ev *Event) error { _, err := ev.WireImage(); return err })
	if wire > 2 {
		t.Errorf("cold WireImage of a frozen event: %v allocs/op, want <= 2", wire)
	}
	if send := cold(func(ev *Event) error { _, err := ev.SendImage(); return err }); wire > send {
		t.Errorf("cold WireImage of a frozen event: %v allocs/op, cold SendImage %v: WireImage dearer", wire, send)
	}
}
