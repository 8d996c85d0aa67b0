package mdt

import (
	"net/http"
	"testing"

	"safeweb/internal/docstore"
	"safeweb/internal/taint"
)

var benchSink int

// BenchmarkPortalPage measures whole portal requests at the repository
// benchmark's size (400 patients, work factor 2000) over documents already
// labelled — front, records, detail, denied: the page kinds of its mix —
// and what labelling costs when it does happen:
//
//   - first-read: every stored document at a revision nobody has read —
//     wrapped through WrapDocs, and again (at another fresh revision)
//     serialised through DocsJSON;
//   - parent-path: the same two reads by the per-request oracle, which is
//     what every read cost before a revision was labelled once.
//
// CI (.github/bench-gate.sh) holds the page series to allocation ceilings
// and first-read within 1.1x of parent-path, which is why that series runs
// first: a memo must not make the first read dearer than no memo.
func BenchmarkPortalPage(b *testing.B) {
	d := deployPortalSized(b, 2000)
	user, pages := portalPages(b, d)
	var docs []*docstore.Document
	for _, id := range d.DMZDB.AllIDs() {
		doc, err := d.DMZDB.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		docs = append(docs, doc)
	}
	// unread gives every document as a revision with an empty memo, the
	// way replication builds one.
	unread := func() []*docstore.Document {
		out := make([]*docstore.Document, len(docs))
		for i, doc := range docs {
			out[i] = &docstore.Document{ID: doc.ID, Rev: doc.Rev, Seq: doc.Seq, Data: doc.Data, Labels: doc.Labels}
		}
		return out
	}

	b.Run("parent-path", func(b *testing.B) {
		o := oracle{d.WebApp}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wrapped, err := o.wrapDocs(docs)
			if err != nil {
				b.Fatal(err)
			}
			again, err := o.wrapDocs(docs)
			if err != nil {
				b.Fatal(err)
			}
			js, err := taint.ToJSONList(again)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = len(wrapped) + js.Len()
		}
	})
	b.Run("first-read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			toWrap, toSerialise := unread(), unread()
			b.StartTimer()
			wrapped, err := d.Frontend.WrapDocs(toWrap)
			if err != nil {
				b.Fatal(err)
			}
			js, err := d.Frontend.DocsJSON(toSerialise)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = len(wrapped) + js.Len()
		}
	})
	for _, series := range []string{"front", "records", "detail", "denied"} {
		b.Run(series, func(b *testing.B) {
			w := &pageWriter{header: make(http.Header)}
			req := preparedRequest(pages[series], user, d.Creds[user])
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w.serve(d.Frontend, req)
			}
			if want := map[bool]int{false: http.StatusOK, true: http.StatusForbidden}[series == "denied"]; w.status != want {
				b.Fatalf("%s: status %d, want %d", pages[series], w.status, want)
			}
		})
	}
}
