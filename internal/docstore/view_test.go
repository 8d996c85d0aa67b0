package docstore

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// keyed is the body the view tests store: the keys a document should be
// filed under, and a value that changes without changing them.
type keyed struct {
	K []string `json:"k"`
	V int      `json:"v"`
}

// The view functions the tests register. emitAll files a document under
// every key of its body (so under a key twice, if the body repeats it);
// emitFirst under the first only; emitDoubled emits every key twice.
func emitAll(doc *Document) []string {
	var b keyed
	if err := json.Unmarshal(doc.Data, &b); err != nil {
		return nil
	}
	return b.K
}

func emitFirst(doc *Document) []string {
	if keys := emitAll(doc); len(keys) > 0 {
		return keys[:1]
	}
	return nil
}

func emitDoubled(doc *Document) []string {
	keys := emitAll(doc)
	return append(keys, keys...)
}

// scanQuery is the query this package ran before views were materialised —
// the view function over every document, hits sorted by id — kept as the
// oracle the index is checked against.
func scanQuery(s *Store, fn ViewFunc, key string) []*Document {
	s.mu.RLock()
	var out []*Document
	for _, doc := range s.docs {
		if doc.Deleted {
			continue
		}
		for _, k := range fn(doc) {
			if k == key {
				out = append(out, doc)
				break
			}
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestViewIndexModel drives seeded random histories through a source store
// and its replica and checks after every step that Query agrees with the
// scan, document for document, for every key the history has used.
func TestViewIndexModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runViewHistory(t, seed, 150)
	}
}

// modelStore is a store under test and the functions its views were last
// registered with, which the oracle needs.
type modelStore struct {
	s     *Store
	views map[string]ViewFunc
}

func (m *modelStore) register(name string, fn ViewFunc) {
	m.s.RegisterView(name, fn)
	m.views[name] = fn
}

func runViewHistory(t *testing.T, seed int64, steps int) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	src := &modelStore{s: New("src", Options{}), views: map[string]ViewFunc{}}
	dst := &modelStore{s: New("dst", Options{ReadOnly: true}), views: map[string]ViewFunc{}}
	src.register("v0", emitAll)
	dst.register("v0", emitAll)
	var checkpoint uint64

	fns := []ViewFunc{emitAll, emitFirst, emitDoubled}
	alphabet := []string{"a", "b", "c", "d", "e"}
	seen := map[string]bool{"never-emitted": true}
	// With replacement, so bodies that repeat a key occur.
	randomKeys := func() []string {
		keys := make([]string, rnd.Intn(4))
		for i := range keys {
			keys[i] = alphabet[rnd.Intn(len(alphabet))]
			seen[keys[i]] = true
		}
		return keys
	}
	docID := func() string { return fmt.Sprintf("doc-%02d", rnd.Intn(24)) }
	write := func(id string, body keyed) {
		rev := ""
		if cur := src.s.docs[id]; cur != nil {
			rev = cur.Rev // a tombstone's revision re-creates over it
		}
		if _, err := src.s.Put(id, body, nil, rev); err != nil {
			t.Fatalf("seed %d: Put %s: %v", seed, id, err)
		}
	}

	for step := 0; step < steps; step++ {
		var op string
		switch r := rnd.Intn(100); {
		case r < 30:
			// A new id, or a re-creation over a tombstone, or (where the id
			// is live) an update that changes the emitted keys.
			id := docID()
			op = "put " + id
			write(id, keyed{K: randomKeys(), V: step})
		case r < 45:
			id := docID()
			op = "update keeping keys " + id
			if cur, err := src.s.Get(id); err == nil {
				var body keyed
				if err := json.Unmarshal(cur.Data, &body); err != nil {
					t.Fatal(err)
				}
				body.V = step
				write(id, body)
			}
		case r < 60:
			id := docID()
			op = "delete " + id
			if cur, err := src.s.Get(id); err == nil {
				if err := src.s.Delete(id, cur.Rev); err != nil {
					t.Fatalf("seed %d: Delete %s: %v", seed, id, err)
				}
			}
		case r < 80:
			// Tombstones replicate too, also of documents the replica
			// never saw alive.
			op = "replicate"
			checkpoint, _ = ReplicateOnce(src.s, dst.s, checkpoint)
		default:
			// Up to three views a store: a new name on a populated store,
			// or a registered name with what may be another function.
			m := []*modelStore{src, dst}[rnd.Intn(2)]
			name := fmt.Sprintf("v%d", rnd.Intn(min(len(m.views)+1, 3)))
			op = "register " + name + " on " + m.s.Name()
			m.register(name, fns[rnd.Intn(len(fns))])
		}

		for _, m := range []*modelStore{src, dst} {
			for name, fn := range m.views {
				for key := range seen {
					got, err := m.s.Query(name, key)
					if err != nil {
						t.Fatalf("seed %d step %d (%s): Query(%s, %s) on %s: %v", seed, step, op, name, key, m.s.Name(), err)
					}
					want := scanQuery(m.s, fn, key)
					// Pointer equality: the same documents, so the same
					// revisions, in the same (id) order, each once.
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d (%s): Query(%s, %s) on %s = %v, scan says %v",
							seed, step, op, name, key, m.s.Name(), revs(got), revs(want))
					}
				}
			}
		}
	}
}

func revs(docs []*Document) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.ID + "@" + d.Rev
	}
	return out
}

// TestViewIndexOncePerKey: a document emitting two keys is in both rows,
// and one emitting a key twice is in that row once.
func TestViewIndexOncePerKey(t *testing.T) {
	s := New("app", Options{})
	s.RegisterView("all", emitAll)
	mustPut(t, s, "two", keyed{K: []string{"a", "b"}})
	mustPut(t, s, "twice", keyed{K: []string{"a", "a"}})
	for key, want := range map[string][]string{"a": {"twice", "two"}, "b": {"two"}} {
		docs, err := s.Query("all", key)
		if err != nil {
			t.Fatal(err)
		}
		if got := ids(docs); !slices.Equal(got, want) {
			t.Errorf("key %s: %v, want %v", key, got, want)
		}
	}
}

// TestViewIndexCosts pins, as counts, what a write and a query cost.
func TestViewIndexCosts(t *testing.T) {
	calls := 0
	counting := func(doc *Document) []string {
		calls++
		return emitAll(doc)
	}
	src := New("src", Options{})
	dst := New("dst", Options{ReadOnly: true})
	for _, s := range []*Store{src, dst} {
		s.RegisterView("one", counting)
		s.RegisterView("two", counting)
	}

	const n = 40
	for i := 0; i < n; i++ {
		doc := mustPut(t, src, fmt.Sprintf("d%02d", i), keyed{K: []string{"k"}, V: i})
		if i%4 == 0 { // some are rewritten before anything reads them
			if _, err := src.Put(doc.ID, keyed{K: []string{"k"}, V: -i}, nil, doc.Rev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, pushed := ReplicateOnce(src, dst, 0); pushed != n {
		t.Fatalf("pushed %d documents, want %d", pushed, n)
	}
	if calls != 0 {
		t.Errorf("%d writes and %d replicated writes ran the view function %d times, want 0", n+n/4, n, calls)
	}

	// The first query pays: once per changed document per view.
	docs, err := dst.Query("one", "k")
	if err != nil || len(docs) != n {
		t.Fatalf("Query: %d documents, err %v", len(docs), err)
	}
	if calls != 2*n {
		t.Errorf("catch-up ran the view function %d times, want %d (documents) x 2 (views)", calls, n)
	}
	// The second pays nothing but its result slice.
	calls = 0
	if allocs := testing.AllocsPerRun(100, func() {
		if docs, _ = dst.Query("two", "k"); len(docs) != n {
			t.Fatalf("Query: %d documents", len(docs))
		}
	}); allocs > 1 {
		t.Errorf("a caught-up Query allocates %v times, want at most 1", allocs)
	}
	if calls != 0 {
		t.Errorf("caught-up queries ran the view function %d times", calls)
	}
	if allocs := testing.AllocsPerRun(100, func() { docs, _ = dst.Query("two", "no-such-key") }); allocs != 0 || docs != nil {
		t.Errorf("a Query without hits allocates %v times and returns %v", allocs, docs)
	}

	// Sharing is real: one revision is one Document wherever it is read,
	// and a replica's document shares its source's body.
	put := mustPut(t, src, "shared", keyed{K: []string{"s"}})
	got, _ := src.Get("shared")
	hits, _ := src.Query("one", "s")
	feed := src.Changes(put.Seq - 1)
	if got != put || len(hits) != 1 || hits[0] != put || len(feed) != 1 || feed[0].Doc != put {
		t.Errorf("Put, Get, Query and Changes returned different documents for one revision")
	}
	ReplicateOnce(src, dst, put.Seq-1)
	replica, err := dst.Get("shared")
	if err != nil {
		t.Fatal(err)
	}
	if replica == put || &replica.Data[0] != &put.Data[0] || replica.Rev != put.Rev {
		t.Errorf("the replica's document should be its own with the source's body")
	}

	// A store that is written and never queried stays bounded.
	idle := New("idle", Options{})
	idle.RegisterView("one", counting)
	for round := 0; round < 1000; round++ {
		for i := 0; i < 10; i++ {
			id := fmt.Sprintf("d%d", i)
			rev := ""
			if cur, err := idle.Get(id); err == nil {
				rev = cur.Rev
			}
			if _, err := idle.Put(id, keyed{V: round}, nil, rev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(idle.changed) > 10 {
		t.Errorf("changed-set holds %d ids after rewriting 10 documents", len(idle.changed))
	}
}

// TestViewIndexConcurrent: readers on the replica, under -race, while a
// replicator pushes a writer's updates, deletions and key changes. Every
// result must be a consistent snapshot: in id order, without tombstones,
// and made of documents whose own body emits the queried key.
func TestViewIndexConcurrent(t *testing.T) {
	src := New("intranet", Options{})
	dst := New("dmz", Options{ReadOnly: true})
	src.RegisterView("all", emitAll)
	dst.RegisterView("all", emitAll)
	repl := NewReplicator(src, dst, time.Millisecond, t.Logf)
	repl.Start()
	defer repl.Stop()

	keys := []string{"a", "b", "c", "d"}
	const nIDs, writes, minReads = 32, 3000, 200
	written := make(chan struct{})
	var wg sync.WaitGroup
	var queries atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= minReads {
					select {
					case <-written:
						return
					default:
					}
				}
				key := keys[(i+r)%len(keys)]
				docs, err := dst.Query("all", key)
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				queries.Add(1)
				for j, doc := range docs {
					switch {
					case j > 0 && docs[j-1].ID >= doc.ID:
						t.Errorf("key %s: %s listed before %s", key, docs[j-1].ID, doc.ID)
					case doc.Deleted:
						t.Errorf("key %s: tombstone %s in the result", key, doc.ID)
					case !slices.Contains(emitAll(doc), key):
						t.Errorf("key %s: %s@%s does not emit it: %s", key, doc.ID, doc.Rev, doc.Data)
					}
				}
				if doc, err := dst.Get(fmt.Sprintf("doc-%02d", i%nIDs)); err == nil && doc.Deleted {
					t.Errorf("Get returned tombstone %s", doc.ID)
				}
			}
		}(r)
	}

	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < writes; i++ {
		// Every so often let the replicator's tick catch up, so that its
		// pushes are spread over the readers' run and not one at its end.
		if i%25 == 0 {
			awaitCheckpoint(t, repl, src.Seq())
		}
		id := fmt.Sprintf("doc-%02d", rnd.Intn(nIDs))
		cur := src.docs[id] // this goroutine is the only writer of src
		switch {
		case cur != nil && !cur.Deleted && rnd.Intn(4) == 0:
			if err := src.Delete(id, cur.Rev); err != nil {
				t.Fatal(err)
			}
		default:
			rev := ""
			if cur != nil {
				rev = cur.Rev
			}
			body := keyed{K: []string{keys[rnd.Intn(len(keys))], keys[rnd.Intn(len(keys))]}, V: i}
			if _, err := src.Put(id, body, nil, rev); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(written)
	wg.Wait()
	repl.Stop() // with its final push
	for _, key := range keys {
		want, _ := src.Query("all", key)
		got, _ := dst.Query("all", key)
		if !slices.Equal(revs(got), revs(want)) {
			t.Errorf("key %s after the final push: replica has %v, source %v", key, revs(got), revs(want))
		}
	}
	t.Logf("%d queries overlapped %d writes and %d replicated documents", queries.Load(), writes, repl.Pushed())
}

// awaitCheckpoint waits for the replicator's own ticks to have pushed
// everything up to seq.
func awaitCheckpoint(t *testing.T, r *Replicator, seq uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		r.mu.Lock()
		checkpoint := r.checkpoint
		r.mu.Unlock()
		if checkpoint >= seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the replicator stopped at change %d of %d", checkpoint, seq)
		}
	}
}

// TestRevForPinned holds revision strings to the values this package has
// always produced (taken from the commit before revFor stopped copying the
// body), and revFor to the bytes it was given.
func TestRevForPinned(t *testing.T) {
	for _, c := range []struct {
		prev, body string
		deleted    bool
		want       string
	}{
		{"", `{"mid":"7","name":"Smith"}`, false, "1-de61851bea45a7cc"},
		{"41-00ff00ff00ff00ff", `{"mdt":"mdt-3","patient_id":"100200300","sites":["C50.9"]}`, false, "42-1741724e1f435961"},
		{"9-0123456789abcdef", "", true, "10-4bf5122f344554c5"},
		{"bogus", `[]`, false, "1-9ee588ba2521e5a7"},
	} {
		var body []byte
		if c.body != "" {
			body = []byte(c.body)
		}
		if got := revFor(c.prev, body, c.deleted); got != c.want {
			t.Errorf("revFor(%q, %s, %v) = %s, want %s", c.prev, c.body, c.deleted, got, c.want)
		}
	}

	// The caller's slice may have room behind its length; that room is not
	// the store's to write.
	backing := []byte(`{"a":1}#`)
	revFor("", backing[:len(backing)-1], false)
	if backing[len(backing)-1] != '#' {
		t.Errorf("revFor wrote past the end of the body: %q", backing)
	}
}

// TestChangesIdle: a feed reader that is up to date gets nothing, and gets
// it without the store being walked.
func TestChangesIdle(t *testing.T) {
	s := New("app", Options{})
	for i := 0; i < 100; i++ {
		mustPut(t, s, fmt.Sprintf("d%d", i), record{})
	}
	var got []Change
	if allocs := testing.AllocsPerRun(100, func() { got = s.Changes(s.Seq()) }); allocs != 0 || got != nil {
		t.Errorf("Changes at the current sequence: %d entries, %v allocations", len(got), allocs)
	}
	if got = s.Changes(s.Seq() + 10); got != nil {
		t.Errorf("Changes beyond the current sequence: %d entries", len(got))
	}
}

// TestChangesSnapshot: the feed and the sequence it is reported up to are
// one snapshot. The newest entry is the store's newest change, so a reader
// that resumes from the reported sequence misses nothing.
func TestChangesSnapshot(t *testing.T) {
	s := New("app", Options{})
	mustPut(t, s, "first", record{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if _, err := s.Put(fmt.Sprintf("d%d", i), record{}, nil, ""); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for seq := uint64(0); seq < 2000; {
		var feed []Change
		feed, seq = s.changesSince(0)
		if newest := feed[len(feed)-1].Seq; newest != seq {
			t.Fatalf("feed ends at change %d but is reported up to %d", newest, seq)
		}
	}
	wg.Wait()
}

// BenchmarkStoreQuery is the portal's query at the portal benchmark's size:
// 349 documents under 16 keys, read from the replica. "steady" is a query
// against caught-up views; in "after-reimport" every document has been
// rewritten and replicated since the last query, so each query pays a full
// catch-up of both views. CI holds steady's allocations (bench-gate.sh).
func BenchmarkStoreQuery(b *testing.B) {
	const nDocs, nKeys = 349, 16
	type caseRecord struct {
		MDT       string   `json:"mdt"`
		PatientID string   `json:"patient_id"`
		Name      string   `json:"name"`
		Sites     []string `json:"sites"`
		Region    string   `json:"region"`
	}
	byField := func(field func(*caseRecord) string) ViewFunc {
		return func(doc *Document) []string {
			var rec caseRecord
			if err := json.Unmarshal(doc.Data, &rec); err != nil {
				return nil
			}
			return []string{field(&rec)}
		}
	}
	src := New("intranet", Options{})
	dst := New("dmz", Options{ReadOnly: true})
	for _, s := range []*Store{src, dst} {
		s.RegisterView("by_mdt", byField(func(r *caseRecord) string { return r.MDT }))
		s.RegisterView("by_region", byField(func(r *caseRecord) string { return r.Region }))
	}
	var checkpoint uint64
	reimport := func(round int) {
		for i := 0; i < nDocs; i++ {
			id := fmt.Sprintf("record/%03d", i)
			rev := ""
			if cur, err := src.Get(id); err == nil {
				rev = cur.Rev
			}
			rec := caseRecord{
				MDT:       fmt.Sprintf("mdt-%02d", i%nKeys),
				PatientID: fmt.Sprintf("%09d", 100000000+i),
				Name:      fmt.Sprintf("Patient %d, import %d", i, round),
				Sites:     []string{"C50.9", "C18.7"},
				Region:    fmt.Sprintf("region-%d", i%4),
			}
			if _, err := src.Put(id, rec, nil, rev); err != nil {
				b.Fatal(err)
			}
		}
		checkpoint, _ = ReplicateOnce(src, dst, checkpoint)
	}
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("mdt-%02d", i)
	}
	query := func(i int) {
		docs, err := dst.Query("by_mdt", keys[i%nKeys])
		if err != nil || len(docs) < nDocs/nKeys {
			b.Fatalf("Query: %d documents, err %v", len(docs), err)
		}
	}

	b.Run("steady", func(b *testing.B) {
		reimport(0)
		query(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(i)
		}
	})
	b.Run("after-reimport", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			reimport(i + 1)
			b.StartTimer()
			query(i)
		}
	})
}
