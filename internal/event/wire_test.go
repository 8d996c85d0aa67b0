package event

import (
	"bytes"
	"testing"

	"safeweb/internal/label"
)

// TestWireImageMemoised pins the publish-once property at the event
// level: repeated WireImage calls on a frozen event return the same
// image, the build counter moves exactly once, and the bytes match an
// independent encode of the event's marshalled headers.
func TestWireImageMemoised(t *testing.T) {
	ev := New("/patient_report", map[string]string{"patient_id": "1"}, label.Conf("ecric.org.uk/mdt/7"))
	ev.Body = []byte(`{"record": true}`)
	ev.Freeze()

	before := WireImageBuilds()
	img1, err := ev.WireImage()
	if err != nil {
		t.Fatalf("WireImage: %v", err)
	}
	img2, err := ev.WireImage()
	if err != nil {
		t.Fatalf("WireImage (memo): %v", err)
	}
	if img1 != img2 {
		t.Error("WireImage rebuilt on second call; want shared memo")
	}
	if got := WireImageBuilds() - before; got != 1 {
		t.Errorf("WireImageBuilds delta = %d, want 1", got)
	}

	got, want := deliveryWire(t, ev, "sub-1", "m-1-", 1), messageOracle(t, ev, "sub-1", "m-1-", 1)
	if !bytes.Equal(got, want) {
		t.Errorf("event wire image differs from reference encode:\n%q\n%q", got, want)
	}
}

// TestWireImageErrorMemoised: an event that cannot marshal (reserved
// attribute smuggled past validation) reports the error on every call
// without re-marshalling, and never bumps the build counter.
func TestWireImageErrorMemoised(t *testing.T) {
	ev := &Event{Topic: "/t", Attrs: map[string]string{ReservedPrefix + "labels": "x"}}
	ev.Freeze()
	before := WireImageBuilds()
	if _, err := ev.WireImage(); err == nil {
		t.Fatal("WireImage accepted a reserved attribute")
	}
	img, err := ev.WireImage()
	if err == nil || img != nil {
		t.Fatalf("memoised error lost: img=%v err=%v", img, err)
	}
	if got := WireImageBuilds() - before; got != 0 {
		t.Errorf("failed WireImage bumped build counter by %d", got)
	}
}

// TestCloneDropsWireImageMemo guards the federation bridge pattern for
// the image memo, like the label-header memo test above it in spirit:
// Clone → relabel → the clone must encode its own image, not the
// original's.
func TestCloneDropsWireImageMemo(t *testing.T) {
	src := New("/t", nil, label.Conf("east.nhs.uk/agg"))
	src.Freeze()
	if _, err := src.WireImage(); err != nil {
		t.Fatalf("WireImage: %v", err)
	}

	out := src.Clone()
	out.Labels = label.NewSet(label.Conf("west.nhs.uk/agg"))
	out.Freeze()
	img, err := out.WireImage()
	if err != nil {
		t.Fatalf("clone WireImage: %v", err)
	}
	if !bytes.Contains(img.Prefix(), []byte("west.nhs.uk/agg")) {
		t.Errorf("clone image carries stale labels: %q", img.Prefix())
	}
}

// TestDeliveryReleaseLifecycle pins the delivery pool contract: Delivery
// copies of attr-carrying events are pooled and cleared by Release, the
// shared attr-free delivery is not pooled (Release is a no-op on it), and
// double Release does not corrupt the pool.
func TestDeliveryReleaseLifecycle(t *testing.T) {
	ev := New("/t", map[string]string{"k": "v"}, label.Conf("a.org/x"))
	ev.Body = []byte("payload")
	ev.Freeze()

	d := ev.Delivery()
	if d == ev {
		t.Fatal("attr-carrying delivery shared the published event")
	}
	if !d.pooled {
		t.Error("attr-carrying delivery copy not marked pooled")
	}
	if d.Attr("k") != "v" || !bytes.Equal(d.Body, ev.Body) || !d.Labels.Equal(ev.Labels) {
		t.Fatalf("delivery copy lost data: %v", d)
	}

	d.Release()
	if d.pooled || d.Topic != "" || d.Body != nil || d.Labels != nil || len(d.Attrs) != 0 {
		t.Errorf("Release left state behind: %+v", d)
	}
	d.Release() // second release must be a no-op, not a double pool put

	shared := New("/t", nil)
	shared.Freeze()
	sd := shared.Delivery()
	if sd != shared {
		t.Fatal("attr-free delivery was copied")
	}
	sd.Release()
	if sd.Topic != "/t" {
		t.Error("Release touched a shared (non-pooled) event")
	}

	// A pooled delivery that escaped its lifecycle — re-published, hence
	// frozen and possibly shared — must be leaked to the GC, not cleared
	// back into the pool.
	escaped := ev.Delivery()
	escaped.Freeze()
	escaped.Release()
	if escaped.Topic != "/t" || escaped.Attr("k") != "v" {
		t.Errorf("Release cleared a re-published (frozen) delivery: %+v", escaped)
	}
}

// TestUnmarshalViewDeliveryPooled: the networked delivery unmarshal
// matches UnmarshalView's semantics while drawing the event (and its
// reused attribute map) from the delivery pool.
func TestUnmarshalViewDeliveryPooled(t *testing.T) {
	raw := messageWire(t)
	var cache DecodeCache

	v := decodeWire(t, raw)
	plain, err := UnmarshalView(&v.Headers, append([]byte(nil), v.Body...), &cache)
	if err != nil {
		t.Fatalf("UnmarshalView: %v", err)
	}
	v = decodeWire(t, raw)
	pooled, err := UnmarshalViewDelivery(&v.Headers, v.Body, &cache)
	if err != nil {
		t.Fatalf("UnmarshalViewDelivery: %v", err)
	}
	if !pooled.pooled {
		t.Error("UnmarshalViewDelivery event not marked pooled")
	}
	if pooled.Topic != plain.Topic || pooled.Attr("patient_id") != plain.Attr("patient_id") ||
		!pooled.Labels.Equal(plain.Labels) || !bytes.Equal(pooled.Body, plain.Body) {
		t.Errorf("pooled unmarshal diverged:\npooled: %v\nplain:  %v", pooled, plain)
	}
	pooled.Release()

	// Steady state: event struct and attr map come from the pool; only
	// the attribute value strings allocate (the body is owned by the
	// caller here and not re-allocated per run).
	v = decodeWire(t, raw)
	avg := testing.AllocsPerRun(200, func() {
		ev, err := UnmarshalViewDelivery(&v.Headers, nil, &cache)
		if err != nil {
			t.Fatalf("UnmarshalViewDelivery: %v", err)
		}
		ev.Release()
	})
	if avg > 2 {
		t.Errorf("pooled unmarshal allocs/op = %g, want <= 2 (attr value strings only)", avg)
	}
}
