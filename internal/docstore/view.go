package docstore

import (
	"fmt"
	"slices"
	"strings"
)

// ViewFunc maps a document to zero or more view keys (a CouchDB map
// function restricted to key emission, which is all SafeWeb needs). It
// must depend on the document alone, must not call back into the store
// (it runs under the store's lock), and gives up the slice it returns.
type ViewFunc func(doc *Document) []string

// viewIndex is one materialised view, as of the last catch-up.
type viewIndex struct {
	fn ViewFunc
	// rows maps a key to the live documents that emit it, in id order.
	rows map[string][]*Document
	// emitted maps a document id to the keys it is filed under in rows,
	// which is what has to be undone when the document changes.
	emitted map[string][]string
}

// RegisterView installs a named map view, e.g. "by_mid", replacing any
// view of that name. The view is built by the next Query.
func (s *Store) RegisterView(name string, fn ViewFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.views[name] = &viewIndex{
		fn:      fn,
		rows:    make(map[string][]*Document),
		emitted: make(map[string][]string),
	}
	for id := range s.docs {
		s.changed[id] = struct{}{}
	}
}

// Query returns the live documents emitting the given key in a view, in id
// order. This is the frontend's Listing 2 query:
// Records.by_mid(:key => params[:mid]). Every write that returned before
// the call is reflected; the documents are the stored ones (see Document).
func (s *Store) Query(view, key string) ([]*Document, error) {
	s.mu.RLock()
	if len(s.changed) == 0 {
		defer s.mu.RUnlock()
		return s.row(view, key)
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.catchUp()
	return s.row(view, key)
}

// row copies one row out of a caught-up view. The caller holds s.mu.
func (s *Store) row(view, key string) ([]*Document, error) {
	v := s.views[view]
	if v == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoView, view)
	}
	return slices.Clone(v.rows[key]), nil
}

// catchUp folds every document changed since the last catch-up into every
// view. The caller holds s.mu for writing.
func (s *Store) catchUp() {
	for id := range s.changed {
		doc := s.docs[id]
		for _, v := range s.views {
			v.update(doc)
		}
	}
	clear(s.changed)
}

// update brings the view's entries for one document in line with the
// document's current revision.
func (v *viewIndex) update(doc *Document) {
	var keys []string
	if !doc.Deleted {
		keys = v.fn(doc)
	}
	for _, k := range v.emitted[doc.ID] {
		if !slices.Contains(keys, k) {
			v.unfile(k, doc.ID)
		}
	}
	for _, k := range keys {
		v.file(k, doc)
	}
	if len(keys) == 0 {
		delete(v.emitted, doc.ID)
	} else {
		v.emitted[doc.ID] = keys
	}
}

func byID(d *Document, id string) int { return strings.Compare(d.ID, id) }

// file puts doc into a key's row, in place of any earlier revision of it.
func (v *viewIndex) file(key string, doc *Document) {
	row := v.rows[key]
	i, found := slices.BinarySearchFunc(row, doc.ID, byID)
	if found {
		row[i] = doc
		return
	}
	v.rows[key] = slices.Insert(row, i, doc)
}

// unfile takes a document out of a key's row.
func (v *viewIndex) unfile(key, id string) {
	row := v.rows[key]
	i, found := slices.BinarySearchFunc(row, id, byID)
	if !found {
		return
	}
	if len(row) == 1 {
		delete(v.rows, key)
		return
	}
	v.rows[key] = slices.Delete(row, i, i+1)
}
