package mdt

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"safeweb/internal/docstore"
	"safeweb/internal/label"
	"safeweb/internal/maindb"
	"safeweb/internal/taint"
	"safeweb/internal/template"
	"safeweb/internal/webfront"
)

// oracle serves the portal's routes by the per-request path they had
// before a revision was labelled once: every request parses, wraps, sorts
// and serialises every document it touches afresh (taint.WrapJSON, then
// Doc.ToJSON / taint.ToJSONList). It shares the application-level guard,
// the store and the page template with the real handlers, so the two can
// differ only in how stored documents become labelled output.
type oracle struct{ w *WebApp }

func (o oracle) wrapDocs(docs []*docstore.Document) ([]taint.Doc, error) {
	out := make([]taint.Doc, len(docs))
	for i, d := range docs {
		wrapped, err := taint.WrapJSON(d.Data, d.Labels)
		if err != nil {
			return nil, err
		}
		out[i] = wrapped
	}
	return out, nil
}

func (o oracle) records(mid string) ([]taint.Doc, error) {
	docs, err := o.w.cfg.Store.Query(ViewRecordsByMDT, mid)
	if err != nil {
		return nil, err
	}
	records, err := o.wrapDocs(docs)
	if err != nil {
		return nil, err
	}
	sort.Slice(records, func(i, j int) bool {
		return records[i].GetString("patient_id").Raw() < records[j].GetString("patient_id").Raw()
	})
	return records, nil
}

func (o oracle) doc(c *webfront.Ctx, id, what string) error {
	doc, err := o.w.cfg.Store.Get(id)
	if err != nil {
		return webfront.ErrNotFound(what)
	}
	wrapped, err := taint.WrapJSON(doc.Data, doc.Labels)
	if err != nil {
		return err
	}
	body, err := wrapped.ToJSON()
	if err != nil {
		return err
	}
	c.JSON(body)
	return nil
}

func (o oracle) list(c *webfront.Ctx, records []taint.Doc) error {
	body, err := taint.ToJSONList(records)
	if err != nil {
		return err
	}
	c.JSON(body)
	return nil
}

func (o oracle) frontPage(c *webfront.Ctx) error {
	mid := c.User.MDT
	if mid == "" {
		return webfront.ErrForbidden("account has no MDT")
	}
	if err := o.w.guard(c, mid); err != nil {
		return err
	}
	records, err := o.records(mid)
	if err != nil {
		return err
	}
	tctx := template.Context{"mdt": taint.NewString(mid), "records": records}
	if doc, err := o.w.cfg.Store.Get("metric/mdt/" + mid); err == nil {
		metrics, err := taint.WrapJSON(doc.Data, doc.Labels)
		if err != nil {
			return err
		}
		tctx["metrics"] = metrics
	}
	return c.Render(frontPageTemplate, tctx)
}

func (o oracle) recordsByMDT(c *webfront.Ctx) error {
	if err := o.w.guard(c, c.Param("mid")); err != nil {
		return err
	}
	records, err := o.records(c.Param("mid"))
	if err != nil {
		return err
	}
	return o.list(c, records)
}

func (o oracle) recordDetail(c *webfront.Ctx) error {
	if err := o.w.guard(c, c.Param("mid")); err != nil {
		return err
	}
	return o.doc(c, "record/"+c.Param("mid")+"/"+c.Param("pid"), "record")
}

func (o oracle) compareRegion(c *webfront.Ctx) error {
	docs, err := o.w.cfg.Store.Query(ViewMetricsByRegion, c.Param("region"))
	if err != nil {
		return err
	}
	wrapped, err := o.wrapDocs(docs)
	if err != nil {
		return err
	}
	return o.list(c, wrapped)
}

// portalRoutes pairs every authenticated route of NewWebApp with the
// oracle's handler for it.
func portalRoutes(w *WebApp) []struct {
	pattern      string
	real, oracle webfront.HandlerFunc
} {
	o := oracle{w}
	return []struct {
		pattern      string
		real, oracle webfront.HandlerFunc
	}{
		{"/", w.frontPage, o.frontPage},
		{"/records/:mid", w.recordsByMDT, o.recordsByMDT},
		{"/records/:mid/:pid", w.recordDetail, o.recordDetail},
		{"/metrics/:mid", w.metricsForMDT, func(c *webfront.Ctx) error { return o.doc(c, "metric/mdt/"+c.Param("mid"), "metrics") }},
		{"/compare/:region", w.compareRegion, o.compareRegion},
		{"/regional/:region", w.regionalAggregate, func(c *webfront.Ctx) error {
			return o.doc(c, "metric/region/"+c.Param("region"), "regional aggregate")
		}},
	}
}

// labelsKey carries a *label.Set through a request's context; a probe
// app's handlers leave the response labels there.
type labelsKey struct{}

// probeApp is a second frontend over the deployment's accounts whose
// routes are the portal's — the real handlers or the oracle's — wrapped
// to report Ctx.ResponseLabels, which only a handler can see.
func probeApp(t testing.TB, d *Deployment, useOracle bool) *webfront.App {
	t.Helper()
	app, err := webfront.New(webfront.Config{WebDB: d.WebDB, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range portalRoutes(d.WebApp) {
		h := r.real
		if useOracle {
			h = r.oracle
		}
		app.Get(r.pattern, func(c *webfront.Ctx) error {
			err := h(c)
			if out, ok := c.Request.Context().Value(labelsKey{}).(*label.Set); ok {
				*out = c.ResponseLabels()
			}
			return err
		})
	}
	return app
}

// response is what a request is observed to produce.
type response struct {
	status int
	body   string
	labels label.Set
}

func (r response) equal(o response) bool {
	return r.status == o.status && r.body == o.body && r.labels.Equal(o.labels)
}

func serve(h http.Handler, path, user, password string) response {
	var r response
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req = req.WithContext(context.WithValue(req.Context(), labelsKey{}, &r.labels))
	req.SetBasicAuth(user, password)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	r.status, r.body = rec.Code, rec.Body.String()
	return r
}

// portalPaths lists requests covering every route: for every MDT its
// records, one record, a record that does not exist and its metrics; for
// every region (and one that does not exist) both aggregate pages.
func portalPaths(t testing.TB, d *Deployment) []string {
	t.Helper()
	paths := []string{"/", "/compare/nowhere", "/regional/nowhere"}
	for _, region := range d.Registry.Regions() {
		paths = append(paths, "/compare/"+region, "/regional/"+region)
	}
	for _, m := range d.Registry.MDTs() {
		paths = append(paths, "/records/"+m.ID, "/metrics/"+m.ID, "/records/"+m.ID+"/0")
		docs, err := d.DMZDB.Query(ViewRecordsByMDT, m.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) > 0 {
			paths = append(paths, "/"+strings.Replace(docs[len(docs)/2].ID, "record", "records", 1))
		}
	}
	return paths
}

func portalAccounts(d *Deployment) []string {
	accounts := []string{"admin"}
	for _, m := range d.Registry.MDTs() {
		accounts = append(accounts, m.ID)
	}
	return accounts
}

// checkAgainstOracle serves every path to every account three ways — the
// deployment's own frontend, the real handlers on a probe app and the
// oracle's on another — and requires one answer: status and body from all
// three, response labels from the two probes. It returns the real answers
// by account and path.
func checkAgainstOracle(t *testing.T, d *Deployment, when string) map[string]response {
	t.Helper()
	real, ref := probeApp(t, d, false), probeApp(t, d, true)
	got := make(map[string]response)
	served := 0
	for _, account := range portalAccounts(d) {
		for _, path := range portalPaths(t, d) {
			want := serve(ref, path, account, d.Creds[account])
			probe := serve(real, path, account, d.Creds[account])
			front := serve(d.Frontend, path, account, d.Creds[account])
			if !probe.equal(want) {
				t.Errorf("%s: GET %s as %s:\n got %d %v %q\nwant %d %v %q", when, path, account,
					probe.status, probe.labels, probe.body, want.status, want.labels, want.body)
			}
			if front.status != want.status || front.body != want.body {
				t.Errorf("%s: GET %s as %s on the deployment's frontend: %d %q, want %d %q", when, path, account,
					front.status, front.body, want.status, want.body)
			}
			if want.status == http.StatusOK {
				served++
			}
			got[account+" "+path] = probe
		}
	}
	if served == 0 {
		t.Fatalf("%s: no request was served", when)
	}
	return got
}

// TestMemoRoutesMatchOracle: across a deployment, every route answers every
// account with the oracle's status, body and response labels — with the
// application-level check in place and with it omitted, where the label
// check alone stands between an MDT and another's records — before and
// after a re-import rewrites every document. A page over a superseded
// revision is never served: after the re-import the bodies are the
// oracle's over the new revisions, and they differ from the old ones.
func TestMemoRoutesMatchOracle(t *testing.T) {
	for _, faults := range []Faults{{}, {OmitAccessCheck: true}} {
		d := deployTest(t, DeployConfig{Registry: regSmall(), Faults: faults, Logf: func(string, ...any) {}})
		if s := d.Frontend.Stats(); s.DocBuilds != 0 || s.DocReads != 0 {
			t.Fatalf("Deploy + ImportAll labelled documents: %+v", s)
		}
		before := checkAgainstOracle(t, d, fmt.Sprintf("%+v, first import", faults))
		// Again, now that every form read above is memoised.
		checkAgainstOracle(t, d, fmt.Sprintf("%+v, memoised", faults))
		if err := d.ImportAll(); err != nil {
			t.Fatal(err)
		}
		after := checkAgainstOracle(t, d, fmt.Sprintf("%+v, after the re-import", faults))

		m := firstMDTWithRecords(t, d)
		for _, path := range []string{"/", "/records/" + m} {
			was, is := before[m+" "+path], after[m+" "+path]
			if was.status != http.StatusOK || is.status != http.StatusOK || was.body == is.body {
				t.Errorf("%+v: GET %s as %s: %d before the re-import, %d after, same body %v — the re-import accumulates report counts, so the page must change",
					faults, path, m, was.status, is.status, was.body == is.body)
			}
		}
		if faults.OmitAccessCheck {
			mdts := mdtsWithRecords(t, d)
			r := after[mdts[0]+" /records/"+mdts[1]]
			if r.status != http.StatusForbidden || !r.labels.Contains(MDTLabel(mdts[1])) {
				t.Errorf("unchecked cross-MDT request: status %d, labels %v — want the release check to stop it", r.status, r.labels)
			}
		}
	}
}

// scribble writes to everything reachable from a wrapped document.
func scribble(d taint.Doc) {
	mark := taint.NewString("scribbled", label.Conf(Authority+"/scribble"))
	for k, v := range d {
		switch t := v.(type) {
		case taint.Doc:
			scribble(t)
		case []any:
			for i := range t {
				t[i] = mark
			}
		}
		d[k] = mark
	}
	d["scribbled"] = mark
	delete(d, "patient_id")
	clear(d)
}

// foreignPatient scans a body for patient ids (runs of eight or nine
// digits not following a decimal point) and returns one that belongs to
// another MDT than the requester's.
func foreignPatient(body string, owner map[string]string, requester string) string {
	for i := 0; i < len(body); {
		if body[i] < '0' || body[i] > '9' {
			i++
			continue
		}
		j := i
		for j < len(body) && body[j] >= '0' && body[j] <= '9' {
			j++
		}
		if n := j - i; (n == 8 || n == 9) && (i == 0 || body[i-1] != '.') {
			if m, known := owner[body[i:j]]; known && m != requester {
				return body[i:j]
			}
		}
		i = j
	}
	return ""
}

// TestIsolationUnderConcurrency: goroutines serve every route to every MDT
// account while re-imports rewrite the store, a 1 ms replicator pushes
// them to the replica mid-import, and one goroutine ruins every wrapped
// document the frontend will hand it. Every answer has the status and the
// response labels it has at rest; every 200 body parses, holds nothing
// scribbled and no other MDT's patient. Run under -race.
func TestIsolationUnderConcurrency(t *testing.T) {
	d := deployTest(t, DeployConfig{Registry: regSmall(), Logf: func(string, ...any) {}})
	owner := make(map[string]string)
	for _, p := range d.Registry.Patients() {
		owner[p.ID] = p.MDT
	}
	paths := portalPaths(t, d)
	var accounts []string
	for _, m := range d.Registry.MDTs() {
		accounts = append(accounts, m.ID)
	}
	// Status and labels do not depend on the revision: a re-import keeps
	// every document and its label set.
	atRest := make(map[string]response)
	ref := probeApp(t, d, true)
	for _, account := range accounts {
		for _, path := range paths {
			atRest[account+" "+path] = serve(ref, path, account, d.Creds[account])
		}
	}

	fast := docstore.NewReplicator(d.AppDB, d.DMZDB, time.Millisecond, func(string, ...any) {})
	fast.Start()
	defer fast.Stop()

	stop := make(chan struct{})
	var workers sync.WaitGroup
	real := probeApp(t, d, false)
	const servers = 4
	var served [servers]int
	for g := 0; g < servers; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for round := 0; ; round++ {
				for i, account := range accounts {
					for j, path := range paths {
						if (i+j+round)%servers != g {
							continue
						}
						select {
						case <-stop:
							return
						default:
						}
						got, want := serve(real, path, account, d.Creds[account]), atRest[account+" "+path]
						if got.status != want.status || !got.labels.Equal(want.labels) {
							t.Errorf("GET %s as %s: %d %v, want %d %v", path, account, got.status, got.labels, want.status, want.labels)
						}
						if got.status != http.StatusOK {
							continue
						}
						served[g]++
						if path != "/" && !json.Valid([]byte(got.body)) {
							t.Errorf("GET %s as %s: body does not parse: %q", path, account, got.body)
						}
						if path == "/" && !strings.HasSuffix(got.body, "</body></html>\n") {
							t.Errorf("GET / as %s: truncated page: %q", account, got.body)
						}
						if strings.Contains(got.body, "scribble") {
							t.Errorf("GET %s as %s: another caller's writes reached the page: %q", path, account, got.body)
						}
						if id := foreignPatient(got.body, owner, account); id != "" {
							t.Errorf("GET %s as %s: body holds patient %s of %s", path, account, id, owner[id])
						}
					}
				}
			}
		}(g)
	}
	workers.Add(1)
	go func() { // the scribbler
		defer workers.Done()
		for {
			for _, m := range d.Registry.MDTs() {
				select {
				case <-stop:
					return
				default:
				}
				docs, err := d.DMZDB.Query(ViewRecordsByMDT, m.ID)
				if err != nil {
					t.Error(err)
					return
				}
				if metric, err := d.DMZDB.Get("metric/mdt/" + m.ID); err == nil {
					docs = append(docs, metric)
				}
				wrapped, err := d.Frontend.WrapDocs(docs)
				if err != nil {
					t.Error(err)
					return
				}
				for _, w := range wrapped {
					scribble(w)
				}
			}
		}
	}()

	for i := 0; i < 12; i++ {
		if err := d.ImportAll(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	workers.Wait()
	total := 0
	for _, n := range served {
		total += n
	}
	if total < len(accounts) {
		t.Errorf("only %d pages were served during 12 re-imports", total)
	}
	fast.Stop()
	checkAgainstOracle(t, d, "after the storm")
}

// pageWriter is the smallest http.ResponseWriter, reused across requests
// so that what a measurement counts is the frontend's.
type pageWriter struct {
	header http.Header
	status int
	body   []byte
}

func (p *pageWriter) Header() http.Header    { return p.header }
func (p *pageWriter) WriteHeader(status int) { p.status = status }
func (p *pageWriter) Write(b []byte) (int, error) {
	p.body = append(p.body, b...)
	return len(b), nil
}

func (p *pageWriter) serve(h http.Handler, req *http.Request) {
	clear(p.header)
	p.status, p.body = 0, p.body[:0]
	h.ServeHTTP(p, req)
}

func preparedRequest(path, user, password string) *http.Request {
	req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: path}, Header: make(http.Header)}
	req.SetBasicAuth(user, password)
	return req
}

// deployPortalSized deploys the portal at the repository benchmark's size:
// 400 patients, credential hashing at work factor 2000, tracking on.
func deployPortalSized(t testing.TB, authWork int) *Deployment {
	t.Helper()
	d, err := Deploy(DeployConfig{Registry: maindb.Config{Seed: 7, Patients: 400}, AuthWork: authWork})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	if err := d.ImportAll(); err != nil {
		t.Fatal(err)
	}
	return d
}

// portalPages names one request per page kind of the benchmark's mix, as
// the first MDT that has records (15 of them at this size and seed; the
// front page's cost grows by some 13 allocations per listed record).
func portalPages(t testing.TB, d *Deployment) (user string, pages map[string]string) {
	t.Helper()
	user = firstMDTWithRecords(t, d)
	docs, err := d.DMZDB.Query(ViewRecordsByMDT, user)
	if err != nil {
		t.Fatal(err)
	}
	var region, other string
	for _, m := range d.Registry.MDTs() {
		if m.ID == user {
			region = m.Region
		} else {
			other = m.ID
		}
	}
	return user, map[string]string{
		"front":   "/",
		"records": "/records/" + user,
		"detail":  "/" + strings.Replace(docs[0].ID, "record", "records", 1),
		"metrics": "/metrics/" + user,
		"compare": "/compare/" + region,
		"denied":  "/records/" + other,
	}
}

// TestPortalRouteAllocs holds each page kind of the benchmark's mix to an
// allocation ceiling, at the benchmark's size and work factor. The counts
// are for whole requests — routing, authentication with all its hash
// iterations, privilege fetch, guard, handler, release check — over
// documents already labelled. (Before a revision was labelled once they
// were 3,531 / 4,299 / 2,180 / 2,100 / 2,604 / 2,024.)
func TestPortalRouteAllocs(t *testing.T) {
	d := deployPortalSized(t, 2000)
	user, pages := portalPages(t, d)
	w := &pageWriter{header: make(http.Header)}
	for _, c := range []struct {
		page    string
		status  int
		ceiling float64
	}{
		{"front", http.StatusOK, 300},
		{"records", http.StatusOK, 60},
		{"detail", http.StatusOK, 50},
		{"metrics", http.StatusOK, 50},
		{"compare", http.StatusOK, 50},
		{"denied", http.StatusForbidden, 30},
	} {
		req := preparedRequest(pages[c.page], user, d.Creds[user])
		allocs := testing.AllocsPerRun(20, func() { w.serve(d.Frontend, req) })
		if w.status != c.status {
			t.Errorf("%s (%s): status %d, want %d", c.page, pages[c.page], w.status, c.status)
		}
		if allocs > c.ceiling {
			t.Errorf("%s (%s): %.0f allocs per request, ceiling %.0f", c.page, pages[c.page], allocs, c.ceiling)
		}
		t.Logf("%-8s %-28s %4.0f allocs per request, %d bytes", c.page, pages[c.page], allocs, len(w.body))
	}
}

// TestMemoHitShare measures the property the per-revision memo lives on —
// a revision is read again before it is superseded — for the repository
// benchmark's route mix and re-import tick. A tick rewrites every record;
// between two ticks the benchmark serves some 400 pages at its paced rate
// and ten times that at saturation. Reported, and held to a loose floor.
func TestMemoHitShare(t *testing.T) {
	d := deployPortalSized(t, 1)
	if s := d.Frontend.Stats(); s.DocBuilds != 0 || s.DocReads != 0 {
		t.Fatalf("Deploy + ImportAll labelled documents: %+v", s)
	}
	mdts := d.Registry.MDTs()
	records := make(map[string][]*docstore.Document)
	for _, m := range mdts {
		docs, err := d.DMZDB.Query(ViewRecordsByMDT, m.ID)
		if err != nil {
			t.Fatal(err)
		}
		records[m.ID] = docs
	}
	rnd := rand.New(rand.NewSource(7))
	w := &pageWriter{header: make(http.Header)}
	page := func() {
		m := mdts[rnd.Intn(len(mdts))]
		path, want := "/", http.StatusOK
		switch r := rnd.Intn(100); { // benchmark/portal.go's mix
		case r < 40:
		case r < 60:
			path = "/records/" + m.ID
		case r < 75:
			if docs := records[m.ID]; len(docs) > 0 {
				path = "/" + strings.Replace(docs[rnd.Intn(len(docs))].ID, "record", "records", 1)
			}
		case r < 85:
			path = "/metrics/" + m.ID
		case r < 90:
			path = "/compare/" + m.Region
		default:
			other := mdts[(rnd.Intn(len(mdts)-1)+1+indexOf(mdts, m.ID))%len(mdts)]
			path, want = "/records/"+other.ID, http.StatusForbidden
		}
		w.serve(d.Frontend, preparedRequest(path, m.ID, d.Creds[m.ID]))
		if w.status != want {
			t.Fatalf("GET %s as %s: status %d, want %d", path, m.ID, w.status, want)
		}
	}
	for _, c := range []struct {
		name         string
		pagesPerTick int
		floor        float64
	}{
		{"paced, 400 pages per tick", 400, 0.80},
		{"saturated, 4000 pages per tick", 4000, 0.95},
	} {
		start := d.Frontend.Stats()
		const ticks = 3
		for tick := 0; tick < ticks; tick++ {
			if err := d.PublishControl(SchedulerName, TopicImport, nil); err != nil {
				t.Fatal(err)
			}
			d.Sync()
			for i := 0; i < c.pagesPerTick; i++ {
				page()
			}
		}
		end := d.Frontend.Stats()
		reads, builds := end.DocReads-start.DocReads, end.DocBuilds-start.DocBuilds
		share := 1 - float64(builds)/float64(reads)
		t.Logf("%s: %d document reads, %d builds over %d ticks of %d documents: %.1f %% of reads hit the memo",
			c.name, reads, builds, ticks, d.DMZDB.Len(), 100*share)
		if share < c.floor {
			t.Errorf("%s: hit share %.3f, want at least %.2f", c.name, share, c.floor)
		}
	}
}

func indexOf(mdts []maindb.MDT, id string) int {
	for i, m := range mdts {
		if m.ID == id {
			return i
		}
	}
	return -1
}
