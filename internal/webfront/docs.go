package webfront

import (
	"strings"
	"sync/atomic"

	"safeweb/internal/docstore"
	"safeweb/internal/label"
	"safeweb/internal/taint"
)

// Fig. 3 step 2 — "SafeWeb's taint tracking library transparently adds the
// labels produced by units in the backend to the data fetched from the
// application database" (§4.4) — is a pure function of a stored revision,
// and a stored revision never changes. So a revision is labelled once: the
// first request to read it builds its labelled form, the form is kept in
// the document's own memo slot (docstore.Document.Memo), and it goes when
// the revision goes. There is no table of documents here, nothing to
// evict and nothing to invalidate: the next revision is another document.
//
// Only the data-access step is kept. Authentication, the privilege fetch,
// the handler's own access check, label accumulation through Ctx.Write and
// the check on release run on every request; no response is kept.

// revision is what the frontend keeps with a stored revision: one form per
// tracking mode, since an App with DisableTracking and one without may
// read the same store and must each see their own labelling.
type revision struct {
	tracked, untracked form
}

// form is one labelling of a revision. Each half is built on first use
// and never replaced; readers that race to build one agree on the winner.
type form struct {
	wrapped atomic.Pointer[wrappedDoc]
	json    atomic.Pointer[docJSON]
}

// wrappedDoc is the outcome of taint.WrapJSON over the revision's body.
// The document is never handed out, only clones of it.
type wrappedDoc struct {
	doc taint.Doc
	err error
}

// docJSON is the outcome of Doc.ToJSON over the wrapped document.
type docJSON struct {
	text taint.String
	// leaves is false for a document without a single leaf value. Such a
	// document is no source of labels: composed into a list as an empty
	// source it would wipe the integrity labels of its neighbours.
	leaves bool
	err    error
}

func newRevision() any { return new(revision) }

func (a *App) form(doc *docstore.Document) *form {
	rev := doc.Memo(newRevision).(*revision)
	if a.cfg.DisableTracking {
		return &rev.untracked
	}
	return &rev.tracked
}

// wrappedForm returns the revision's wrapped document, building it on
// first use. With tracking disabled it wraps without labels, which is the
// unprotected baseline — through the same mechanism, so that comparing the
// two modes compares tracking and nothing else.
func (a *App) wrappedForm(doc *docstore.Document) *wrappedDoc {
	a.docReads.Add(1)
	f := a.form(doc)
	if w := f.wrapped.Load(); w != nil {
		return w
	}
	a.docBuilds.Add(1)
	labels := doc.Labels
	if a.cfg.DisableTracking {
		labels = nil
	}
	w := new(wrappedDoc)
	w.doc, w.err = taint.WrapJSON(doc.Data, labels)
	if f.wrapped.CompareAndSwap(nil, w) {
		return w
	}
	return f.wrapped.Load()
}

// jsonForm returns the revision's labelled JSON, building it (and the
// wrapped document it is serialised from) on first use.
func (a *App) jsonForm(doc *docstore.Document) *docJSON {
	a.docReads.Add(1)
	f := a.form(doc)
	if j := f.json.Load(); j != nil {
		return j
	}
	a.docBuilds.Add(1)
	j := new(docJSON)
	if w := a.wrappedForm(doc); w.err != nil {
		j.err = w.err
	} else {
		j.text, j.err = w.doc.ToJSON()
		j.leaves = hasLeaf(w.doc)
	}
	if f.json.CompareAndSwap(nil, j) {
		return j
	}
	return f.json.Load()
}

// hasLeaf reports whether a wrapped value holds anything but containers.
func hasLeaf(v any) bool {
	switch t := v.(type) {
	case taint.Doc:
		for _, e := range t {
			if hasLeaf(e) {
				return true
			}
		}
		return false
	case []any:
		for _, e := range t {
			if hasLeaf(e) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// WrapDoc converts an application-database document into a labelled
// taint.Doc (Fig. 3 step 2). The returned document is the caller's own:
// its maps and lists are fresh copies over the revision's shared,
// immutable leaf values, so a handler may write to it without reaching any
// other request's data.
func (a *App) WrapDoc(doc *docstore.Document) (taint.Doc, error) {
	w := a.wrappedForm(doc)
	if w.err != nil {
		return nil, w.err
	}
	return w.doc.Clone(), nil
}

// WrapDocs converts a document list.
func (a *App) WrapDocs(docs []*docstore.Document) ([]taint.Doc, error) {
	out := make([]taint.Doc, len(docs))
	for i, d := range docs {
		wrapped, err := a.WrapDoc(d)
		if err != nil {
			return nil, err
		}
		out[i] = wrapped
	}
	return out, nil
}

// DocJSON returns the document as labelled JSON: what WrapDoc followed by
// Doc.ToJSON gives, serialised once per revision.
func (a *App) DocJSON(doc *docstore.Document) (taint.String, error) {
	j := a.jsonForm(doc)
	return j.text, j.err
}

// DocsJSON returns the documents as one labelled JSON array: what WrapDocs
// followed by taint.ToJSONList gives, byte for byte and label for label,
// assembled from the per-revision JSON.
func (a *App) DocsJSON(docs []*docstore.Document) (taint.String, error) {
	parts := make([]string, len(docs))
	size := len("[]")
	var labels label.Set
	composed := false
	for i, d := range docs {
		j := a.jsonForm(d)
		if j.err != nil {
			return taint.String{}, j.err
		}
		parts[i] = j.text.Raw()
		size += len(parts[i]) + len(",")
		if !j.leaves {
			continue
		}
		// Derive is associative, so folding the documents in one at a
		// time composes what deriving from every leaf at once would.
		if composed {
			labels = label.Derive(labels, j.text.Labels())
		} else {
			labels, composed = j.text.Labels(), true
		}
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('[')
	for i, part := range parts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(part)
	}
	b.WriteByte(']')
	return taint.WrapString(b.String(), labels), nil
}
