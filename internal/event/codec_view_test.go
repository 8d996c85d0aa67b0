package event

import (
	"bytes"
	"reflect"
	"testing"

	"safeweb/internal/label"
	"safeweb/internal/stomp"
)

// decodeWire builds a frame view by running raw wire bytes through the
// stomp decoder, the same way a connection read loop produces them.
func decodeWire(t testing.TB, raw []byte) *stomp.FrameView {
	t.Helper()
	v, err := stomp.NewDecoder(bytes.NewReader(raw)).DecodeView()
	if err != nil {
		t.Fatalf("DecodeView: %v", err)
	}
	return v
}

// messageWire encodes the 6-header MESSAGE frame of a broker delivery —
// the decode hot path's canonical shape.
func messageWire(t testing.TB) []byte {
	t.Helper()
	f := stomp.NewFrame(stomp.CmdMessage)
	f.SetHeader(stomp.HdrDestination, "/patient_report")
	f.SetHeader(stomp.HdrSubscription, "sub-12")
	f.SetHeader(stomp.HdrMessageID, "m-3-4711")
	f.SetHeader("patient_id", "33812769")
	f.SetHeader("type", "cancer")
	f.SetHeader(HeaderLabels, label.NewSet(label.Conf("ecric.org.uk/mdt/7")).String())
	f.Body = []byte(`{"summary": "report", "mdt": 7}`)
	var buf bytes.Buffer
	if err := new(stomp.Encoder).Encode(&buf, f); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// TestUnmarshalViewMatchesUnmarshalHeaders: the single-pass view path and
// the legacy map path must build identical events from the same frame,
// including transport-header skipping, labels, and missing-destination
// errors.
func TestUnmarshalViewMatchesUnmarshalHeaders(t *testing.T) {
	frames := []*stomp.Frame{
		func() *stomp.Frame {
			f := stomp.NewFrame(stomp.CmdMessage)
			f.SetHeader(stomp.HdrDestination, "/t")
			f.SetHeader(stomp.HdrSubscription, "sub-1")
			f.SetHeader(stomp.HdrMessageID, "m-1-1")
			f.SetHeader(stomp.HdrReceipt, "r-9")
			f.SetHeader("ack", "client")
			f.SetHeader("transaction", "tx-1")
			f.SetHeader("login", "alice") // interned but attribute-like
			f.SetHeader("custom", "value")
			f.SetHeader(HeaderLabels, label.NewSet(label.Conf("a.org/x"), label.Int("b.org/y")).String())
			f.SetHeader(HeaderClearance, "label:conf:a.org/*")
			f.Body = []byte("payload")
			return f
		}(),
		func() *stomp.Frame {
			f := stomp.NewFrame(stomp.CmdSend)
			f.SetHeader(stomp.HdrDestination, "/attr-free")
			return f
		}(),
		func() *stomp.Frame { // no destination: both paths must fail
			f := stomp.NewFrame(stomp.CmdSend)
			f.SetHeader("k", "v")
			return f
		}(),
		func() *stomp.Frame { // bad label header: both paths must fail
			f := stomp.NewFrame(stomp.CmdSend)
			f.SetHeader(stomp.HdrDestination, "/t")
			f.SetHeader(HeaderLabels, "not a label uri")
			return f
		}(),
	}
	for i, f := range frames {
		var buf bytes.Buffer
		if err := new(stomp.Encoder).Encode(&buf, f); err != nil {
			t.Fatalf("frame %d: Encode: %v", i, err)
		}
		v := decodeWire(t, buf.Bytes())
		fromView, errView := UnmarshalView(&v.Headers, append([]byte(nil), v.Body...), nil)
		fromMap, errMap := UnmarshalHeaders(v.Materialize().Headers, v.Body)
		if (errView == nil) != (errMap == nil) {
			t.Fatalf("frame %d: error disagreement: view=%v map=%v", i, errView, errMap)
		}
		if errView != nil {
			continue
		}
		if fromView.Topic != fromMap.Topic ||
			!reflect.DeepEqual(fromView.Attrs, fromMap.Attrs) ||
			!bytes.Equal(fromView.Body, fromMap.Body) ||
			!fromView.Labels.Equal(fromMap.Labels) {
			t.Errorf("frame %d:\nview: %v\nmap:  %v", i, fromView, fromMap)
		}
	}
}

// TestUnmarshalViewRepeatedHeaders: the view preserves repeated keys, and
// the single pass must apply the same first-occurrence-wins rule the map
// materialisation does.
func TestUnmarshalViewRepeatedHeaders(t *testing.T) {
	raw := []byte("MESSAGE\ndestination:/a\ndestination:/b\nk:1\nk:2\n\n\x00")
	v := decodeWire(t, raw)
	ev, err := UnmarshalView(&v.Headers, nil, nil)
	if err != nil {
		t.Fatalf("UnmarshalView: %v", err)
	}
	if ev.Topic != "/a" {
		t.Errorf("Topic = %q, want /a", ev.Topic)
	}
	if ev.Attrs["k"] != "1" {
		t.Errorf("Attrs[k] = %q, want 1", ev.Attrs["k"])
	}
}

// TestUnmarshalViewAllocs pins the single-pass budget for the hot-path
// MESSAGE shape: with a warm DecodeCache (repeated topic and label set,
// the steady state of a fan-out consumer), the event build must stay
// within the event allocation itself, the right-sized attribute map, and
// the owned strings of the two application attributes.
func TestUnmarshalViewAllocs(t *testing.T) {
	raw := messageWire(t)
	v := decodeWire(t, raw)
	var cache DecodeCache
	if _, err := UnmarshalView(&v.Headers, nil, &cache); err != nil {
		t.Fatalf("UnmarshalView: %v", err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := UnmarshalView(&v.Headers, nil, &cache); err != nil {
			t.Fatalf("UnmarshalView: %v", err)
		}
	})
	// Event + attrs map + 2 attr value strings (attr keys, topic and
	// labels all hit the cache) = 5 at present; budget 7 guards against
	// regression without overfitting the runtime's map internals.
	if avg > 7 {
		t.Errorf("UnmarshalView allocs/op = %g, want <= 7", avg)
	}
}

// TestDecodeUnmarshalViewAllocs pins the whole read-loop budget — wire
// bytes to delivered event — at less than half the legacy Decode +
// UnmarshalHeaders cost for the same frame (the ISSUE's ≥50%% decode-path
// reduction, asserted structurally).
func TestDecodeUnmarshalViewAllocs(t *testing.T) {
	raw := messageWire(t)

	viewPath := pipelineAllocs(t, raw, true)
	legacyPath := pipelineAllocs(t, raw, false)
	if viewPath > legacyPath/2 {
		t.Errorf("view pipeline = %g allocs/op, legacy = %g: want view <= legacy/2", viewPath, legacyPath)
	}
	// Absolute guard so the ratio cannot drift up in lockstep.
	if viewPath > 8 {
		t.Errorf("view pipeline allocs/op = %g, want <= 8", viewPath)
	}
}

func pipelineAllocs(t *testing.T, raw []byte, useView bool) float64 {
	t.Helper()
	rd := bytes.NewReader(raw)
	dec := stomp.NewDecoder(rd)
	var cache DecodeCache
	var labelCache LabelCache
	run := func() {
		rd.Reset(raw)
		var err error
		var ev *Event
		if useView {
			var v *stomp.FrameView
			if v, err = dec.DecodeView(); err == nil {
				ev, err = UnmarshalView(&v.Headers, v.Body, &cache)
			}
		} else {
			var f *stomp.Frame
			if f, err = dec.Decode(); err == nil {
				ev, err = UnmarshalHeadersCached(f.Headers, f.Body, &labelCache)
			}
		}
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		if ev.Topic != "/patient_report" || len(ev.Attrs) != 2 || ev.Labels.IsEmpty() {
			t.Fatalf("pipeline decoded wrong event: %v", ev)
		}
	}
	run() // warm scratch buffers and memos
	return testing.AllocsPerRun(200, run)
}
