package broker

import (
	"bytes"
	"strings"
	"testing"

	"safeweb/internal/event"
	"safeweb/internal/journal"
	"safeweb/internal/label"
)

// TestLabelHeaderRelabelledRepublish drives the stale-header bug end to
// end. A subscriber's callback adds a label to the event it was delivered
// — its own Delivery copy in process, a decoded pooled event over the
// network, which arrives carrying the canonical header it was sent with —
// and re-publishes it through a direct broker handle onto a durable topic.
// The header the event carried belongs to the set it no longer has: both
// the MESSAGE every networked consumer receives and the journal record
// that replay re-enforces clearance from must name the added label. (At
// the parent the in-process case put the old header on the wire and on
// disk: the patient label was gone for everyone downstream.)
func TestLabelHeaderRelabelledRepublish(t *testing.T) {
	const out = "/d/relabelled"
	const want = "label:conf:ecric.org.uk/mdt/7,label:conf:ecric.org.uk/patient/9"
	b, srv := startDurableBroker(t, testPolicy(), t.TempDir(), out)

	tapped, tappedEvents := collect()
	tap := dialBus(t, srv.Addr(), "wild")
	if _, err := tap.Subscribe(out, "", func(ev *event.Event) { tapped(ev.Clone()) }); err != nil {
		t.Fatalf("tap Subscribe: %v", err)
	}
	relabel := func(ev *event.Event) {
		ev.Labels = ev.Labels.With(label.Conf("ecric.org.uk/patient/9"))
		ev.Topic = out
		if err := b.Publish("wild", ev); err != nil {
			t.Errorf("re-publish: %v", err)
		}
	}
	if _, err := b.Subscribe("wild", "/in/process", "", relabel); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	networked := dialBus(t, srv.Addr(), "wild")
	if _, err := networked.Subscribe("/in/network", "", relabel); err != nil {
		t.Fatalf("networked Subscribe: %v", err)
	}

	for _, topic := range []string{"/in/process", "/in/network"} {
		src := event.New(topic, map[string]string{"via": topic}, label.Conf("ecric.org.uk/mdt/7"))
		src.Body = []byte("payload")
		if err := b.Publish("producer", src); err != nil {
			t.Fatalf("Publish(%s): %v", topic, err)
		}
	}
	waitFor(t, "both re-published events", func() bool {
		return len(tappedEvents()) == 2 && srv.Stats().DurableAppends == 2
	})

	for _, ev := range tappedEvents() {
		if got := ev.Labels.String(); got != want {
			t.Errorf("consumer of the event re-published from %s received labels %q, want %q", ev.Attr("via"), got, want)
		}
	}
	j, err := srv.journals.open(out)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	for off := j.FirstOffset(); off < j.NextOffset(); off++ {
		var rec journal.Record
		if err := j.Read(off, &rec); err != nil {
			t.Fatalf("Read(%d): %v", off, err)
		}
		if rec.Labels != want {
			t.Errorf("journal record %d persisted label header %q, want %q", off, rec.Labels, want)
		}
		if hdr := strings.ReplaceAll(want, ":", `\c`); !bytes.Contains(rec.Image, []byte(hdr)) {
			t.Errorf("journal record %d image does not carry %q: %q", off, want, rec.Image)
		}
	}
}
