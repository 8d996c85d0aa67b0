// Package docstore implements SafeWeb's application database: a
// CouchDB-style document store (paper §5.1) holding the labelled result
// records produced by the event-processing backend and read by the web
// frontend.
//
// Like the deployment in Fig. 4, a store supports: labelled JSON documents
// with revision-checked updates, named map views (the frontend's
// "Records.by_mid(:key => mid)" query from Listing 2), a monotonic changes
// feed, one-way push replication between instances (Intranet → DMZ), and a
// read-only mode for the DMZ replica so the web frontend cannot modify
// application data (security requirement S1).
//
// # Views
//
// Views are materialised at read time, as CouchDB's are. A write runs no
// view function; it only records the document's id in the set of documents
// changed since the views last caught up. Query first folds that set into
// every view's index — one view-function call per changed document per
// view, under the write lock — and then answers from the index in time
// proportional to the number of hits, already in id order. So a write that
// returned before Query began is visible to it (read-your-writes), the
// first query after a batch of writes pays for the batch, and a store that
// is written and never queried pays nothing: its changed-set is a set of
// ids, bounded by the number of documents it holds however often they are
// rewritten. View functions run under the store's lock and must not call
// back into the store.
//
// # Documents are shared
//
// A stored *Document is never modified once installed; an update installs
// a new one. Put, Get, Query, Changes and replication therefore hand out
// the stored pointer itself, and a replica shares its source's Data and
// Labels. See Document for what that asks of callers. Because a revision
// never changes, a reader may keep what it derives from one with the
// revision itself (Document.Memo) and never has to invalidate it.
package docstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"safeweb/internal/label"
)

// Common errors.
var (
	// ErrNotFound is returned for missing or deleted documents.
	ErrNotFound = errors.New("docstore: document not found")
	// ErrConflict is returned when the supplied revision does not match
	// the current revision.
	ErrConflict = errors.New("docstore: revision conflict")
	// ErrReadOnly is returned for writes to a read-only replica.
	ErrReadOnly = errors.New("docstore: store is read-only")
	// ErrNoView is returned for queries against unregistered views.
	ErrNoView = errors.New("docstore: no such view")
)

// Document is a stored document. Documents are shared and read-only: the
// pointers the store returns are the ones it holds (and the ones its
// replicas' documents share Data and Labels with), so callers must not
// modify a returned document, its Data or its Labels. Copy what needs
// changing. A Document holds a memo slot and must not be copied; build a
// new one from its fields instead.
type Document struct {
	// ID is the document id.
	ID string `json:"_id"`
	// Rev is the revision, "N-hash".
	Rev string `json:"_rev"`
	// Seq is the store-local change sequence of this revision.
	Seq uint64 `json:"_seq"`
	// Deleted marks a tombstone (kept for replication).
	Deleted bool `json:"_deleted,omitempty"`
	// Data is the document body (JSON object).
	Data json.RawMessage `json:"data,omitempty"`
	// Labels is the document's security label set, stored alongside the
	// data exactly as the backend's storage unit wrote it.
	Labels label.Set `json:"labels,omitempty"`

	// memo is what a reader keeps with this revision; see Memo.
	memo atomic.Pointer[any]
}

// Memo returns the value kept with this revision, calling build for it on
// first use. A revision never changes, so whatever a reader derives from
// one — the web frontend keeps its labelled form here — stays true for as
// long as the revision exists: the value is owned by the document, is
// collected with it, and needs no invalidation, because an update is
// another *Document with an empty memo (so is a replica's document). The
// store itself never calls Memo; nothing is built at write time.
//
// Memo takes no lock. First readers that race may each call build; one
// result is kept and every caller gets that one. The slot is a single one:
// all callers must keep the same kind of value in it, and the value must be
// safe for concurrent use.
func (d *Document) Memo(build func() any) any {
	if kept := d.memo.Load(); kept != nil {
		return *kept
	}
	built := build()
	if d.memo.CompareAndSwap(nil, &built) {
		return built
	}
	return *d.memo.Load()
}

// Options configure a store.
type Options struct {
	// ReadOnly rejects all writes through Put/Delete. Replication
	// deliveries bypass it: the DMZ replica is read-only towards the
	// frontend yet receives pushed updates from the Intranet instance.
	ReadOnly bool
}

// Store is one database instance. It is safe for concurrent use.
type Store struct {
	name string
	opts Options

	mu    sync.RWMutex
	docs  map[string]*Document
	seq   uint64
	views map[string]*viewIndex
	// changed holds the ids written since the views last caught up.
	changed map[string]struct{}
}

// New creates an empty store with the given name.
func New(name string, opts Options) *Store {
	return &Store{
		name:    name,
		opts:    opts,
		docs:    make(map[string]*Document),
		views:   make(map[string]*viewIndex),
		changed: make(map[string]struct{}),
	}
}

// Name returns the store name.
func (s *Store) Name() string { return s.name }

// ReadOnly reports whether the store rejects direct writes.
func (s *Store) ReadOnly() bool { return s.opts.ReadOnly }

// revFor computes the next revision string from a revision counter and
// content hash, CouchDB-style: "N-" and the first 8 bytes, in hex, of
// SHA-256(data ‖ deleted flag byte).
func revFor(prevRev string, data []byte, deleted bool) string {
	n := 0
	if idx := strings.IndexByte(prevRev, '-'); idx > 0 {
		n, _ = strconv.Atoi(prevRev[:idx])
	}
	var flag [1]byte
	if deleted {
		flag[0] = 1
	}
	h := sha256.New()
	h.Write(data)
	h.Write(flag[:])
	var sum [sha256.Size]byte
	var buf [20 + 1 + 16]byte // decimal counter, '-', 8 bytes in hex
	rev := strconv.AppendInt(buf[:0], int64(n)+1, 10)
	rev = append(rev, '-')
	rev = hex.AppendEncode(rev, h.Sum(sum[:0])[:8])
	return string(rev)
}

// Put creates or updates a document. For updates, rev must equal the
// current revision; pass "" for creation. data is marshalled to JSON; it
// may be a json.RawMessage to store pre-encoded bodies.
func (s *Store) Put(id string, data any, labels label.Set, rev string) (*Document, error) {
	if s.opts.ReadOnly {
		return nil, fmt.Errorf("%w: %s", ErrReadOnly, s.name)
	}
	return s.put(id, data, labels, rev)
}

func (s *Store) put(id string, data any, labels label.Set, rev string) (*Document, error) {
	if id == "" {
		return nil, errors.New("docstore: empty document id")
	}
	raw, err := toRaw(data)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	existing := s.docs[id]
	switch {
	case existing == nil || existing.Deleted:
		if rev != "" && (existing == nil || rev != existing.Rev) {
			return nil, fmt.Errorf("%w: %s has no revision %q", ErrConflict, id, rev)
		}
	case rev != existing.Rev:
		return nil, fmt.Errorf("%w: %s is at %s, not %q", ErrConflict, id, existing.Rev, rev)
	}

	prevRev := ""
	if existing != nil {
		prevRev = existing.Rev
	}
	s.seq++
	doc := &Document{
		ID:     id,
		Rev:    revFor(prevRev, raw, false),
		Seq:    s.seq,
		Data:   raw,
		Labels: labels.Clone(),
	}
	s.docs[id] = doc
	s.changed[id] = struct{}{}
	return doc, nil
}

func toRaw(data any) (json.RawMessage, error) {
	switch t := data.(type) {
	case json.RawMessage:
		if !json.Valid(t) {
			return nil, errors.New("docstore: invalid raw JSON body")
		}
		return append(json.RawMessage(nil), t...), nil
	case []byte:
		if !json.Valid(t) {
			return nil, errors.New("docstore: invalid raw JSON body")
		}
		return append(json.RawMessage(nil), t...), nil
	default:
		raw, err := json.Marshal(data)
		if err != nil {
			return nil, fmt.Errorf("docstore: encode body: %w", err)
		}
		return raw, nil
	}
}

// Get returns the current revision of a document.
func (s *Store) Get(id string) (*Document, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	doc := s.docs[id]
	if doc == nil || doc.Deleted {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return doc, nil
}

// Delete tombstones a document at the given revision.
func (s *Store) Delete(id, rev string) error {
	if s.opts.ReadOnly {
		return fmt.Errorf("%w: %s", ErrReadOnly, s.name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := s.docs[id]
	if doc == nil || doc.Deleted {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if rev != doc.Rev {
		return fmt.Errorf("%w: %s is at %s, not %q", ErrConflict, id, doc.Rev, rev)
	}
	s.seq++
	s.docs[id] = &Document{
		ID:      id,
		Rev:     revFor(doc.Rev, nil, true),
		Seq:     s.seq,
		Deleted: true,
		Labels:  doc.Labels,
	}
	s.changed[id] = struct{}{}
	return nil
}

// AllIDs returns the ids of all live documents, sorted.
func (s *Store) AllIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.docs))
	for id, doc := range s.docs {
		if !doc.Deleted {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of live documents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, doc := range s.docs {
		if !doc.Deleted {
			n++
		}
	}
	return n
}

// Seq returns the store's current change sequence.
func (s *Store) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// Change is one changes-feed entry.
type Change struct {
	// Seq is the change sequence.
	Seq uint64 `json:"seq"`
	// Doc is the document at that revision.
	Doc *Document `json:"doc"`
}

// Changes returns all changes with sequence greater than since, in
// sequence order. Only the latest revision of each document appears, as in
// CouchDB's default feed.
func (s *Store) Changes(since uint64) []Change {
	out, _ := s.changesSince(since)
	return out
}

// changesSince is Changes plus the store's sequence at the same instant,
// so that a feed's "last_seq" never runs ahead of its results. A caller
// that is up to date costs one comparison, not a walk of the store.
func (s *Store) changesSince(since uint64) ([]Change, uint64) {
	s.mu.RLock()
	seq := s.seq
	if since >= seq {
		s.mu.RUnlock()
		return nil, seq
	}
	var out []Change
	for _, doc := range s.docs {
		if doc.Seq > since {
			out = append(out, Change{Seq: doc.Seq, Doc: doc})
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, seq
}

// applyReplicated installs a replicated document, bypassing the read-only
// gate (replication is the one permitted inbound path to a DMZ replica,
// matching CouchDB push replication through the firewall in Fig. 4). The
// incoming revision wins unconditionally: replication is one-way, so the
// source is authoritative. The destination's document is built afresh:
// the sequence and the memo are its own, the body and the labels are
// shared with the source's document.
func (s *Store) applyReplicated(doc *Document) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	s.docs[doc.ID] = &Document{
		ID:      doc.ID,
		Rev:     doc.Rev,
		Seq:     s.seq,
		Deleted: doc.Deleted,
		Data:    doc.Data,
		Labels:  doc.Labels,
	}
	s.changed[doc.ID] = struct{}{}
}
