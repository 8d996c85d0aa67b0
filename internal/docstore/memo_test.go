package docstore

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStoreDocumentMemo: a document's memo is built on first use, once,
// and belongs to that *Document alone — the next revision and the
// replica's document each start empty; the store never fills one; and the
// slot shows in no encoding.
func TestStoreDocumentMemo(t *testing.T) {
	src := New("app", Options{})
	dst := New("dmz", Options{ReadOnly: true})
	var builds int
	build := func(v string) func() any {
		return func() any {
			builds++
			return v
		}
	}

	doc, err := src.Put("a", json.RawMessage(`{"v":1}`), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := doc.Memo(build("first")); got != "first" {
			t.Fatalf("read %d: Memo = %v, want the first value built", i, got)
		}
	}
	if got := doc.Memo(build("second")); got != "first" || builds != 1 {
		t.Errorf("a later build replaced the memo: %v after %d builds", got, builds)
	}
	if got, _ := src.Get("a"); got != doc || got.Memo(build("x")) != "first" {
		t.Error("Get returned a document without the memo of the one Put returned")
	}

	// Every other *Document has a memo of its own.
	ReplicateOnce(src, dst, 0)
	replica, err := dst.Get("a")
	if err != nil || replica == doc {
		t.Fatalf("replica Get: same pointer %v, err %v", replica == doc, err)
	}
	if &replica.Data[0] != &doc.Data[0] {
		t.Error("the replica's document does not share the source's Data")
	}
	next, err := src.Put("a", json.RawMessage(`{"v":2}`), nil, doc.Rev)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Document{"replica": replica, "next revision": next} {
		before := builds
		if got := d.Memo(build(name)); got != name || builds != before+1 {
			t.Errorf("%s: Memo = %v after %d builds, want its own", name, got, builds-before)
		}
	}
	if got := doc.Memo(build("x")); got != "first" {
		t.Errorf("the superseded revision's memo changed: %v", got)
	}
	if raw, err := json.Marshal(doc); err != nil || string(raw) != `{"_id":"a","_rev":"`+doc.Rev+`","_seq":1,"data":{"v":1}}` {
		t.Errorf("encoded document = %s, %v", raw, err)
	}
}

// TestStoreDocumentMemoRace: first readers that race may each build, but
// one value is kept and every reader, then and later, gets that one.
func TestStoreDocumentMemoRace(t *testing.T) {
	s := New("app", Options{})
	const readers = 8
	var builds atomic.Int64
	for round := 0; round < 500; round++ {
		doc, err := s.Put("a", map[string]int{"round": round}, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		var (
			start, done sync.WaitGroup
			got         [readers]any
		)
		start.Add(1)
		for r := 0; r < readers; r++ {
			done.Add(1)
			go func(r int) {
				defer done.Done()
				start.Wait()
				got[r] = doc.Memo(func() any {
					builds.Add(1)
					return &struct{ by int }{r}
				})
			}(r)
		}
		start.Done()
		done.Wait()
		for r := range got {
			if got[r] != got[0] {
				t.Fatalf("round %d: readers 0 and %d were given different values", round, r)
			}
		}
		if again := doc.Memo(func() any { return nil }); again != got[0] {
			t.Fatalf("round %d: a later reader was given another value", round)
		}
		if err := s.Delete("a", doc.Rev); err != nil {
			t.Fatal(err)
		}
	}
	if n := builds.Load(); n < 500 || n > 500*readers {
		t.Errorf("%d builds for 500 revisions", n)
	}
}
