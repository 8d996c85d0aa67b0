package webfront

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"safeweb/internal/docstore"
	"safeweb/internal/label"
	"safeweb/internal/taint"
	"safeweb/internal/template"
)

// The oracle: the per-request path this package had before a revision was
// labelled once — parse, wrap and serialise afresh on every call. The memo
// must be indistinguishable from it.

func oracleWrap(doc *docstore.Document, tracking bool) (taint.Doc, error) {
	labels := doc.Labels
	if !tracking {
		labels = nil
	}
	return taint.WrapJSON(doc.Data, labels)
}

func oracleJSON(doc *docstore.Document, tracking bool) (taint.String, error) {
	wrapped, err := oracleWrap(doc, tracking)
	if err != nil {
		return taint.String{}, err
	}
	return wrapped.ToJSON()
}

func oracleListJSON(docs []*docstore.Document, tracking bool) (taint.String, error) {
	wrapped := make([]taint.Doc, len(docs))
	for i, d := range docs {
		w, err := oracleWrap(d, tracking)
		if err != nil {
			return taint.String{}, err
		}
		wrapped[i] = w
	}
	return taint.ToJSONList(wrapped)
}

// corpusBodies are the document bodies no generator would find quickly.
var corpusBodies = []string{
	`{}`,
	`{"a":{}}`,
	`{"a":[]}`,
	`{"a":[{},[]],"b":{"c":{}}}`,
	`{"a":null}`,
	`{"only":true}`,
	`{"s":"<script>alert(\"x\")</script> & 'q' \\ /"}`,
	`{"s":"line\nbreak\ttab\u0000nul\u2028sep\u2029"}`,
	`{"s":"Ærøskøbing 東京 🙂","k€y":"v"}`,
	// encoding/json switches to e-notation below 1e-6 and from 1e21.
	`{"f":[0.000001,0.00000099,999999999999999900000,1e21,1e-7,-1e21,-0.000001]}`,
	`{"f":[0,-0,1.5,-2,100,1e20,123456789012345680000,3.141592653589793,5e-324,1.7976931348623157e308]}`,
	`{"b":[true,false,null],"n":{"m":{"deep":[1,"two",{"three":3}]}}}`,
	`{"patient_id":"107420419","name":"O'Brien <x>","sites":["C34.9","C34.1"],"max_stage":1,"completeness":0.667,"consented":true}`,
	`null`,
	// Valid JSON that is not an object: it stores, and does not wrap.
	`[1,2]`,
	`"text"`,
}

// genValue draws a JSON value. depth bounds nesting.
func genValue(rnd *rand.Rand, depth int) any {
	n := 8
	if depth <= 0 {
		n = 6
	}
	switch rnd.Intn(n) {
	case 0:
		return nil
	case 1:
		return rnd.Intn(2) == 0
	case 2:
		return float64(rnd.Intn(2000) - 1000)
	case 3:
		return rnd.NormFloat64() * [...]float64{1e-9, 1e-6, 1, 1e6, 1e21, 1e300}[rnd.Intn(6)]
	case 4, 5:
		alphabet := []rune(`ab<>&"'\/ é東🙂` + "\n\u2028")
		s := make([]rune, rnd.Intn(8))
		for i := range s {
			s[i] = alphabet[rnd.Intn(len(alphabet))]
		}
		return string(s)
	case 6:
		list := make([]any, rnd.Intn(4))
		for i := range list {
			list[i] = genValue(rnd, depth-1)
		}
		return list
	default:
		return genObject(rnd, depth-1)
	}
}

func genObject(rnd *rand.Rand, depth int) map[string]any {
	obj := make(map[string]any)
	for i, n := 0, rnd.Intn(5); i < n; i++ {
		obj[fmt.Sprintf("k%d", rnd.Intn(7))] = genValue(rnd, depth)
	}
	return obj
}

// corpusLabels are the label sets documents are stored under: none,
// confidentiality only, integrity only, and both, overlapping in part.
func corpusLabels() []label.Set {
	integ, integ2 := label.Int("ecric.org.uk/mdt"), label.Int("ecric.org.uk/audited")
	return []label.Set{
		nil,
		label.NewSet(mdt7),
		label.NewSet(mdt8),
		label.NewSet(integ),
		label.NewSet(mdt7, integ),
		label.NewSet(mdt8, integ, integ2),
		label.NewSet(mdt7, mdt8, integ2),
	}
}

// storeCorpus stores the fixed bodies under every label set and some
// generated ones under random label sets, and returns the stored documents.
func storeCorpus(t *testing.T, seed int64) []*docstore.Document {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	store := docstore.New("corpus", docstore.Options{})
	sets := corpusLabels()
	var docs []*docstore.Document
	put := func(body []byte, labels label.Set) {
		doc, err := store.Put(fmt.Sprintf("doc/%d", len(docs)), json.RawMessage(body), labels, "")
		if err != nil {
			t.Fatalf("Put(%s): %v", body, err)
		}
		docs = append(docs, doc)
	}
	for _, body := range corpusBodies {
		for _, labels := range sets {
			put([]byte(body), labels)
		}
	}
	for i := 0; i < 150; i++ {
		body, err := json.Marshal(genObject(rnd, 3))
		if err != nil {
			t.Fatal(err)
		}
		put(body, sets[rnd.Intn(len(sets))])
	}
	return docs
}

// sameString compares two labelled strings in bytes and in label set.
func sameString(a, b taint.String) bool {
	return a.Raw() == b.Raw() && a.Labels().Equal(b.Labels())
}

// TestMemoMatchesOracle is the model check: over a seeded corpus, what
// WrapDoc, DocJSON and DocsJSON answer from a revision's memo is what the
// per-request path computes from its body — bytes and labels — on first
// read and on every later one, in both tracking modes on one *Document.
func TestMemoMatchesOracle(t *testing.T) {
	tracked, _ := newTestApp(t, Config{})
	untracked, _ := newTestApp(t, Config{DisableTracking: true})
	docs := storeCorpus(t, 20)
	rnd := rand.New(rand.NewSource(21))

	for _, mode := range []struct {
		app      *App
		tracking bool
	}{{tracked, true}, {untracked, false}, {tracked, true}} {
		for _, doc := range docs {
			for read := 0; read < 2; read++ {
				want, err := oracleWrap(doc, mode.tracking)
				got, gotErr := mode.app.WrapDoc(doc)
				if (err != nil) != (gotErr != nil) {
					t.Fatalf("WrapDoc(%s) tracking=%v: err %v, oracle err %v", doc.Data, mode.tracking, gotErr, err)
				}
				if err == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("WrapDoc(%s) tracking=%v read %d:\n got %#v\nwant %#v", doc.Data, mode.tracking, read, got, want)
				}
				wantJSON, err := oracleJSON(doc, mode.tracking)
				gotJSON, gotErr := mode.app.DocJSON(doc)
				if (err != nil) != (gotErr != nil) {
					t.Fatalf("DocJSON(%s) tracking=%v: err %v, oracle err %v", doc.Data, mode.tracking, gotErr, err)
				}
				if !sameString(gotJSON, wantJSON) {
					t.Fatalf("DocJSON(%s) tracking=%v read %d:\n got %q %v\nwant %q %v", doc.Data, mode.tracking, read,
						gotJSON.Raw(), gotJSON.Labels(), wantJSON.Raw(), wantJSON.Labels())
				}
			}
		}

		// Lists: the empty one, singletons, and random draws — which mix
		// label sets, leafless documents and, now and then, one that does
		// not wrap.
		lists := [][]*docstore.Document{nil, {}}
		for _, doc := range docs[:len(corpusBodies)*len(corpusLabels())] {
			lists = append(lists, []*docstore.Document{doc}, []*docstore.Document{doc, docs[rnd.Intn(len(docs))]})
		}
		for i := 0; i < 300; i++ {
			list := make([]*docstore.Document, 1+rnd.Intn(6))
			for j := range list {
				list[j] = docs[rnd.Intn(len(docs))]
			}
			lists = append(lists, list)
		}
		for _, list := range lists {
			want, err := oracleListJSON(list, mode.tracking)
			got, gotErr := mode.app.DocsJSON(list)
			if (err != nil) != (gotErr != nil) {
				t.Fatalf("DocsJSON tracking=%v: err %v, oracle err %v", mode.tracking, gotErr, err)
			}
			if !sameString(got, want) {
				t.Fatalf("DocsJSON tracking=%v of %d documents:\n got %q %v\nwant %q %v", mode.tracking, len(list),
					got.Raw(), got.Labels(), want.Raw(), want.Labels())
			}
			wrapped, gotErr := mode.app.WrapDocs(list)
			if (err != nil) != (gotErr != nil) {
				t.Fatalf("WrapDocs tracking=%v: err %v, oracle err %v", mode.tracking, gotErr, err)
			}
			if err == nil {
				// The wrapped list serialises, through the generic
				// serialiser, to the same thing.
				viaWrap, err := taint.ToJSONList(wrapped)
				if err != nil || !sameString(viaWrap, want) {
					t.Fatalf("WrapDocs+ToJSONList tracking=%v: %q %v (err %v), want %q %v", mode.tracking,
						viaWrap.Raw(), viaWrap.Labels(), err, want.Raw(), want.Labels())
				}
			}
		}
	}
	// Whatever the oracle says, tracking disabled means no label at all.
	for _, doc := range docs {
		wrapped, _ := untracked.WrapDoc(doc)
		if s, _ := untracked.DocJSON(doc); !s.Labels().IsEmpty() || !wrapped.Labels().IsEmpty() {
			t.Fatalf("an App with tracking disabled labelled %s: %v %v", doc.Data, s.Labels(), wrapped.Labels())
		}
	}
}

// TestMemoBuildsOncePerRevision counts the builds: one per form per
// revision however many reads, none for a form nobody asks for, fresh
// ones for the next revision — and for a replica's document, which has a
// memo of its own.
func TestMemoBuildsOncePerRevision(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	appOff, _ := newTestApp(t, Config{DisableTracking: true})
	store := docstore.New("app", docstore.Options{})
	replica := docstore.New("dmz", docstore.Options{ReadOnly: true})
	doc, err := store.Put("r", json.RawMessage(`{"name":"Smith","sites":["C50"]}`), label.NewSet(mdt7), "")
	if err != nil {
		t.Fatal(err)
	}
	builds := func(a *App) uint64 { return a.Stats().DocBuilds }
	reads := func(a *App) uint64 { return a.Stats().DocReads }

	if builds(app) != 0 || reads(app) != 0 {
		t.Fatalf("a Put built or read a labelled form: %+v", app.Stats())
	}
	for i := 0; i < 50; i++ {
		if _, err := app.WrapDoc(doc); err != nil {
			t.Fatal(err)
		}
	}
	if builds(app) != 1 || reads(app) != 50 {
		t.Errorf("50 WrapDocs of one revision: %d builds over %d reads, want 1 over 50", builds(app), reads(app))
	}
	for i := 0; i < 50; i++ {
		if _, err := app.DocJSON(doc); err != nil {
			t.Fatal(err)
		}
		if _, err := app.DocsJSON([]*docstore.Document{doc, doc}); err != nil {
			t.Fatal(err)
		}
	}
	if builds(app) != 2 {
		t.Errorf("wrapped + JSON forms of one revision took %d builds, want 2", builds(app))
	}
	// The other tracking mode builds its own two forms, once.
	for i := 0; i < 10; i++ {
		if _, err := appOff.DocJSON(doc); err != nil {
			t.Fatal(err)
		}
	}
	if builds(appOff) != 2 || builds(app) != 2 {
		t.Errorf("untracked forms: %d builds (tracked app now at %d), want 2 (and 2)", builds(appOff), builds(app))
	}

	// A JSON-only reader builds the wrapped form on the way; a later
	// WrapDoc finds it.
	next, err := store.Put("r", json.RawMessage(`{"name":"Smith","sites":["C50","C18"]}`), label.NewSet(mdt7), doc.Rev)
	if err != nil {
		t.Fatal(err)
	}
	before := builds(app)
	for i := 0; i < 10; i++ {
		s, err := app.DocJSON(next)
		if err != nil || !strings.Contains(s.Raw(), "C18") {
			t.Fatalf("DocJSON of the new revision = %q, %v", s.Raw(), err)
		}
		if _, err := app.WrapDoc(next); err != nil {
			t.Fatal(err)
		}
	}
	if got := builds(app) - before; got != 2 {
		t.Errorf("the next revision took %d builds, want 2", got)
	}
	// The superseded revision still answers with its own contents.
	if s, _ := app.DocJSON(doc); strings.Contains(s.Raw(), "C18") {
		t.Errorf("the superseded revision serves the new body: %q", s.Raw())
	}

	// The replica's document is another document: own memo, same answer.
	docstore.ReplicateOnce(store, replica, 0)
	copied, err := replica.Get("r")
	if err != nil || copied == next {
		t.Fatalf("replica Get: %p (source %p), %v", copied, next, err)
	}
	before = builds(app)
	a, _ := app.DocJSON(copied)
	b, _ := app.DocJSON(next)
	if !sameString(a, b) || builds(app)-before != 2 {
		t.Errorf("replica's revision: %q vs source %q, %d builds (want 2)", a.Raw(), b.Raw(), builds(app)-before)
	}
}

// scribble writes to everything reachable from a wrapped document.
func scribble(d taint.Doc) {
	for k, v := range d {
		switch t := v.(type) {
		case taint.Doc:
			scribble(t)
		case []any:
			for i := range t {
				if sub, ok := t[i].(taint.Doc); ok {
					scribble(sub)
				}
				t[i] = taint.NewString("scribbled", mdt8)
			}
		}
		d[k] = taint.NewString("scribbled", mdt8)
	}
	d["extra"] = taint.NewString("scribbled", mdt8)
	delete(d, "name")
	clear(d)
}

// TestIsolationOfWrappedDocs: handlers are the code the paper treats as
// buggy, so what WrapDoc hands out is the caller's to ruin. After a caller
// has replaced and deleted keys, overwritten list elements and cleared the
// map — at every depth — the next WrapDoc, DocJSON and DocsJSON are what
// they were.
func TestIsolationOfWrappedDocs(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	store := docstore.New("app", docstore.Options{})
	doc, err := store.Put("r", json.RawMessage(
		`{"name":"Smith","sites":["C34.9","C34.1"],"stage":{"t":2,"nodes":[{"n":1},"x"]},"consented":true}`),
		label.NewSet(mdt7), "")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := oracleWrap(doc, true)
	wantJSON, _ := oracleJSON(doc, true)

	for round := 0; round < 3; round++ {
		got, err := app.WrapDoc(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: WrapDoc after a scribble:\n got %#v\nwant %#v", round, got, want)
		}
		list, err := app.WrapDocs([]*docstore.Document{doc, doc})
		if err != nil || !reflect.DeepEqual(list[0], want) || !reflect.DeepEqual(list[1], want) {
			t.Fatalf("round %d: WrapDocs after a scribble: %#v, %v", round, list, err)
		}
		if s, _ := app.DocJSON(doc); !sameString(s, wantJSON) {
			t.Fatalf("round %d: DocJSON after a scribble: %q %v", round, s.Raw(), s.Labels())
		}
		if s, _ := app.DocsJSON([]*docstore.Document{doc}); s.Raw() != "["+wantJSON.Raw()+"]" || !s.Labels().Equal(wantJSON.Labels()) {
			t.Fatalf("round %d: DocsJSON after a scribble: %q %v", round, s.Raw(), s.Labels())
		}
		// Two documents of one call share no container either.
		scribble(list[0])
		if !reflect.DeepEqual(list[1], want) {
			t.Fatalf("round %d: scribbling one document of a WrapDocs result changed the other", round)
		}
		scribble(got)
		scribble(list[1])
	}
	if string(doc.Data) == "" || !doc.Labels.Equal(label.NewSet(mdt7)) {
		t.Errorf("the stored document changed: %s %v", doc.Data, doc.Labels)
	}
}

// TestMemoRacingFirstReaders: goroutines that race to be the first reader
// of a revision may each build its form, but all of them are answered with
// one value, and it is the right one. Run under -race.
func TestMemoRacingFirstReaders(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	store := docstore.New("app", docstore.Options{})
	const readers = 8
	for round := 0; round < 200; round++ {
		body := fmt.Sprintf(`{"round":%d,"sites":["C50","C18"],"stage":{"t":2}}`, round)
		doc, err := store.Put(fmt.Sprintf("r/%d", round), json.RawMessage(body), label.NewSet(mdt7), "")
		if err != nil {
			t.Fatal(err)
		}
		var (
			start, done sync.WaitGroup
			jsons       [readers]taint.String
			forms       [readers]*docJSON
			wrapped     [readers]*wrappedDoc
		)
		start.Add(1)
		for r := 0; r < readers; r++ {
			done.Add(1)
			go func(r int) {
				defer done.Done()
				start.Wait()
				if r%2 == 0 {
					d, err := app.WrapDoc(doc)
					if err != nil {
						t.Error(err)
						return
					}
					scribble(d)
				}
				jsons[r], _ = app.DocJSON(doc)
				forms[r] = app.jsonForm(doc)
				wrapped[r] = app.wrappedForm(doc)
			}(r)
		}
		start.Done()
		done.Wait()
		want, _ := oracleJSON(doc, true)
		for r := 0; r < readers; r++ {
			if forms[r] != forms[0] || wrapped[r] != wrapped[0] {
				t.Fatalf("round %d: readers 0 and %d hold different forms of one revision", round, r)
			}
			if !sameString(jsons[r], want) {
				t.Fatalf("round %d reader %d: %q %v, want %q %v", round, r, jsons[r].Raw(), jsons[r].Labels(), want.Raw(), want.Labels())
			}
		}
	}
	if s := app.Stats(); s.DocBuilds < 400 || s.DocBuilds > s.DocReads {
		t.Errorf("200 revisions, two forms each: %d builds over %d reads", s.DocBuilds, s.DocReads)
	}
}

// TestHashChain pins what credential hashing computes and what it costs:
// the same AuthWork-1 SHA-256 invocations over the same inputs as the
// naive string-building loop — so its final digest — and no allocation.
func TestHashChain(t *testing.T) {
	const password = "mdt-password"
	for _, pw := range []string{password, "", "correct horse battery staple, longer than one SHA-256 block to be sure of it"} {
		for _, authWork := range []int{1, 2, 3, 2000} {
			var naive [sha256.Size]byte
			work := pw
			for i := 1; i < authWork; i++ {
				naive = sha256.Sum256([]byte(work))
				work = string(naive[:])
			}
			if got := hashChain(pw, authWork-1); got != naive {
				t.Errorf("AuthWork %d over %q: chain digest %x, naive loop %x", authWork, pw, got, naive)
			}
		}
	}

	app, _ := newTestApp(t, Config{AuthWork: 2000})
	var sink [sha256.Size]byte
	if n := testing.AllocsPerRun(20, func() { sink = hashChain(password, app.cfg.AuthWork-1) }); n != 0 {
		t.Errorf("hashChain at AuthWork 2000 allocs/op = %v, want 0", n)
	}
	_ = sink
	// Authentication as a whole pays for the lookup and the stored-hash
	// comparison, not for the work factor.
	atOne, _ := newTestApp(t, Config{AuthWork: 1})
	cost := func(a *App) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := a.verifyCredentials("alice", "pw-a"); err != nil {
				t.Fatal(err)
			}
		})
	}
	if at1, at2000 := cost(atOne), cost(app); at2000 != at1 {
		t.Errorf("verifyCredentials allocs/op: %v at AuthWork 1, %v at 2000 — the work factor allocates", at1, at2000)
	}
}

// TestInterpolatedForeignValueBlocked: a page that interpolates another
// MDT's labelled boolean — the kind of leaf WrapJSON makes of a JSON
// true — is blocked and logged, as one interpolating its name is.
func TestInterpolatedForeignValueBlocked(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	store := docstore.New("app", docstore.Options{})
	doc, err := store.Put("r", json.RawMessage(`{"consented":true,"sites":["C50","C18"]}`), label.NewSet(mdt7), "")
	if err != nil {
		t.Fatal(err)
	}
	for path, src := range map[string]string{
		"/flag":  `<p>Consent: <%= r.consented %></p>`,
		"/sites": `<p>Sites: <%= r.sites %></p>`,
	} {
		tmpl := template.MustParse(path, src)
		app.Get(path, func(c *Ctx) error {
			wrapped, err := app.WrapDoc(doc)
			if err != nil {
				return err
			}
			return c.Render(tmpl, template.Context{"r": wrapped})
		})
	}
	for path, want := range map[string]string{"/flag": "<p>Consent: true</p>", "/sites": "<p>Sites: C50, C18</p>"} {
		resp, body := get(t, app, path, "alice", "pw-a")
		if resp.StatusCode != http.StatusOK || body != want {
			t.Errorf("%s for the cleared user: %d %q, want %q", path, resp.StatusCode, body, want)
		}
		blockedBefore := len(app.Violations())
		resp, body = get(t, app, path, "bob", "pw-b")
		if resp.StatusCode != http.StatusForbidden || strings.Contains(body, "true") || strings.Contains(body, "C50") {
			t.Errorf("%s for the uncleared user: %d %q, want 403 and no data", path, resp.StatusCode, body)
		}
		violations := app.Violations()
		if len(violations) != blockedBefore+1 {
			t.Fatalf("%s: %d violations logged, want %d", path, len(violations), blockedBefore+1)
		}
		if v := violations[len(violations)-1]; v.Username != "bob" || v.Path != path || v.Missing != mdt7 {
			t.Errorf("%s: violation = %+v", path, v)
		}
	}
}

// TestRouteBinding: parameters are bound for the route that matched, from
// that route's own names, and a route without parameters binds none.
func TestRouteBinding(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	noop := func(*Ctx) error { return nil }
	app.Get("/", noop)
	app.Get("/records/:mid", noop)
	app.Get("/records/:mid/:pid", noop)
	app.Get("/compare/:region", noop)
	app.Get("/compare/all", noop) // shadowed by the pattern before it
	app.Post("/records/:other", noop)
	for _, c := range []struct {
		method, path string
		route        int // index into app.routes, -1 for none
		params       map[string]string
	}{
		{"GET", "/", 0, nil},
		{"GET", "/records/mdt-1", 1, map[string]string{"mid": "mdt-1"}},
		{"GET", "/records/mdt-1/", 1, map[string]string{"mid": "mdt-1"}},
		{"GET", "/records/mdt-1/42", 2, map[string]string{"mid": "mdt-1", "pid": "42"}},
		{"GET", "/compare/region-1", 3, map[string]string{"region": "region-1"}},
		{"GET", "/compare/all", 3, map[string]string{"region": "all"}},
		{"POST", "/records/x", 5, map[string]string{"other": "x"}},
		{"GET", "/metrics/mdt-1", -1, nil},
		{"GET", "/records/a/b/c", -1, nil},
		{"POST", "/", -1, nil},
	} {
		rt, params := app.match(c.method, c.path)
		switch {
		case c.route < 0:
			if rt != nil {
				t.Errorf("%s %s matched %v", c.method, c.path, rt.parts)
			}
		case rt != &app.routes[c.route]:
			t.Errorf("%s %s did not match route %d", c.method, c.path, c.route)
		case !reflect.DeepEqual(params, c.params):
			t.Errorf("%s %s bound %v, want %v", c.method, c.path, params, c.params)
		}
	}
}
