package main

import (
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"safeweb/internal/maindb"
	"safeweb/internal/mdt"
	"safeweb/internal/webfront"
)

// The portal workload: the paper's web tier (E2/E4). A full MDT portal
// deployment — 400 patients, credential hashing at work factor 2000, taint
// tracking on — serves a seeded request mix per MDT account through
// Frontend.ServeHTTP in process (loopback HTTP would add net/http's cost,
// which is not this repository's). An op is one page. A background tick
// re-triggers the import once a second, so docstore writes and the 50 ms
// replicator interleave with the reads.
//
// Why: credential hashing, webdb, docstore.Query, taint, template and the
// release check do all the work and the broker's wire path none: the
// bypass workload for every backend optimisation, and the only place a
// frontend one can show.
const (
	portalPatients = 400
	portalAuthWork = 2000
	portalRate     = 400 // paced requests per second
	portalTick     = time.Second
)

// portalReq is one prepared request. Requests are built once and shared:
// ServeHTTP only reads them.
type portalReq struct {
	req  *http.Request
	user uint8 // index of the requesting MDT
	want int   // expected status
}

// portalClient is one client goroutine's writer, timing and checking state.
type portalClient struct {
	page pageWriter
	lat  *windowed

	done       atomic.Uint64
	denied     uint64
	wrong      uint64 // unexpected status
	violations []string
}

type portal struct {
	env *runEnv

	d        *mdt.Deployment
	registry *maindb.DB
	// owner maps every patient id to the index of its MDT.
	owner   map[string]uint8
	mdts    []maindb.MDT
	reqs    [scheduleLen]portalReq
	clients []*portalClient

	issued   atomic.Uint64
	nCross   atomic.Uint64
	stopTick chan struct{}
	tickDone sync.WaitGroup
	tickErrs atomic.Uint64
	ticks    atomic.Uint64

	// In a traced run excl makes a sampled request the only one in flight,
	// so the phase times the frontend's OnRequest hook reports (it does
	// not say for which request) can only be that request's.
	excl      sync.RWMutex
	phaseMu   sync.Mutex
	lastPhase webfront.PhaseTimes

	stats webfront.Stats
}

func newPortal(env *runEnv) workload {
	w := &portal{env: env, owner: make(map[string]uint8)}
	// The deployment generates its registry from the same configuration, so
	// this copy tells the generator who owns which patient.
	w.registry = maindb.Generate(portalRegistry(env.cfg.seed))
	w.mdts = w.registry.MDTs()
	index := make(map[string]uint8, len(w.mdts))
	for i, m := range w.mdts {
		index[m.ID] = uint8(i)
	}
	// Only patients with a confirmed cancer tumour get a case record.
	withRecord := make([][]string, len(w.mdts))
	for _, p := range w.registry.Patients() {
		w.owner[p.ID] = index[p.MDT]
		for _, t := range w.registry.TumoursOf(p.ID) {
			if t.Type == "cancer" {
				withRecord[index[p.MDT]] = append(withRecord[index[p.MDT]], p.ID)
				break
			}
		}
	}
	rnd := newRand(env.cfg.seed, "portal")
	for i := range w.reqs {
		u := rnd.Intn(len(w.mdts))
		m := w.mdts[u]
		// The mix: front page 40 %, own records 20 %, one record 15 %, own
		// metrics 10 %, region comparison 5 %, and another MDT's records
		// 10 %, which must be denied.
		path, want := "/", http.StatusOK
		switch r := rnd.Intn(100); {
		case r < 40:
		case r < 60:
			path = "/records/" + m.ID
		case r < 75:
			if ids := withRecord[u]; len(ids) > 0 { // else the front page again
				path = "/records/" + m.ID + "/" + ids[rnd.Intn(len(ids))]
			}
		case r < 85:
			path = "/metrics/" + m.ID
		case r < 90:
			path = "/compare/" + m.Region
		default:
			other := w.mdts[(u+1+rnd.Intn(len(w.mdts)-1))%len(w.mdts)]
			path, want = "/records/"+other.ID, http.StatusForbidden
		}
		req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: path}, Header: make(http.Header)}
		req.SetBasicAuth(m.ID, "mdt-password")
		w.reqs[i] = portalReq{req: req, user: uint8(u), want: want}
	}
	return w
}

func portalRegistry(seed int64) maindb.Config {
	return maindb.Config{Seed: seed, Patients: portalPatients}
}

func (w *portal) params() params {
	// Windows of 2.5 s hold a thousand pages, so ten lie beyond each
	// window's 99th percentile.
	return params{clients: 2, rate: portalRate, window: 2500 * time.Millisecond, syncIssue: true, opsPerStep: 1}
}

func (w *portal) setup() error {
	cfg := mdt.DeployConfig{Registry: portalRegistry(w.env.cfg.seed), AuthWork: portalAuthWork}
	if w.env.cfg.trace {
		cfg.OnRequest = func(p webfront.PhaseTimes) {
			w.phaseMu.Lock()
			w.lastPhase = p
			w.phaseMu.Unlock()
		}
	}
	d, err := mdt.Deploy(cfg)
	if err != nil {
		return err
	}
	w.d = d
	if err := d.ImportAll(); err != nil {
		return err
	}
	for i := 0; i < w.params().clients; i++ {
		w.clients = append(w.clients, &portalClient{lat: newWindowed(w.env.ph.windows),
			page: pageWriter{header: make(http.Header)}})
	}
	w.stopTick = make(chan struct{})
	w.tickDone.Add(1)
	go w.tick()
	return nil
}

// tick re-triggers the import while the run is live. It does not wait for
// the import to finish: the point is that writes overlap the reads.
func (w *portal) tick() {
	defer w.tickDone.Done()
	t := time.NewTicker(portalTick)
	defer t.Stop()
	for {
		select {
		case <-w.stopTick:
			return
		case <-t.C:
			if err := w.d.PublishControl(mdt.SchedulerName, mdt.TopicImport, nil); err != nil {
				w.tickErrs.Add(1)
			}
			w.ticks.Add(1)
		}
	}
}

func (w *portal) issue(client int, seq uint64, due int64) {
	c := w.clients[client]
	r := &w.reqs[seq%scheduleLen]
	w.issued.Add(1)
	if r.want == http.StatusForbidden {
		w.nCross.Add(1)
	}
	c.page.reset()
	tr := w.env.tracer()
	sampled := tr.sampled(seq)
	traced := w.env.cfg.trace
	switch {
	case sampled:
		w.excl.Lock()
	case traced:
		w.excl.RLock()
	}
	t0 := nowNs()
	w.d.Frontend.ServeHTTP(&c.page, r.req)
	t1 := nowNs()
	switch {
	case sampled:
		w.phaseMu.Lock()
		p := w.lastPhase
		w.phaseMu.Unlock()
		w.excl.Unlock()
		if due != 0 {
			tr.add(seq, "gen.late", "", due, t0)
		}
		tr.add(seq, "serve", "", t0, t1)
		// The hook reports durations, not instants; the phases run in this
		// order, so they are laid end to end from the start of the request.
		at := t0
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"auth", p.Auth}, {"priv_fetch", p.PrivFetch}, {"handler", p.Handler}, {"label_check", p.LabelCheck}} {
			tr.add(seq, ph.name, "serve", at, at+int64(ph.d))
			at += int64(ph.d)
		}
	case traced:
		w.excl.RUnlock()
	}

	status := c.page.status
	switch {
	case status == r.want && status == http.StatusForbidden:
		c.denied++
	case status == r.want:
		if id, leaked := w.foreignPatient(c.page.body, r.user); leaked {
			c.violate("page %s served to %s contains patient %s of %s",
				r.req.URL.Path, w.mdts[r.user].ID, id, w.mdts[w.owner[id]].ID)
		}
	case r.want == http.StatusForbidden && status == http.StatusOK:
		c.violate("page %s was served to %s, which must be denied it", r.req.URL.Path, w.mdts[r.user].ID)
	default:
		c.wrong++
	}
	if due != 0 {
		c.lat.record(w.env.window(due), t1-due)
	}
	c.done.Add(1)
}

func (c *portalClient) violate(format string, args ...any) {
	if len(c.violations) < 8 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// foreignPatient scans a served page for patient ids and returns one that
// does not belong to the requesting MDT, if there is one. Patient ids are
// runs of eight or nine digits; digits after a decimal point are skipped,
// since a fraction is not an id.
func (w *portal) foreignPatient(body []byte, user uint8) (string, bool) {
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
			if owner, known := w.owner[string(body[i:j])]; known && owner != user {
				return string(body[i:j]), true
			}
		}
		i = j
	}
	return "", false
}

func (w *portal) flush() {}

func (w *portal) done() uint64 {
	var n uint64
	for _, c := range w.clients {
		n += c.done.Load()
	}
	return n
}

func (w *portal) expected() uint64 { return w.issued.Load() }

func (w *portal) tail(*report) { w.stats = w.d.Frontend.Stats() }

func (w *portal) teardown() {
	if w.stopTick != nil {
		close(w.stopTick)
		w.tickDone.Wait()
	}
	if w.d != nil {
		w.d.Stop()
	}
}

func (w *portal) verify(rep *report) {
	n := w.issued.Load()
	rep.attempted = n
	var lat []*windowed
	var denied uint64
	for _, c := range w.clients {
		rep.failed += c.wrong
		denied += c.denied
		rep.violations = append(rep.violations, c.violations...)
		lat = append(lat, c.lat)
		if c.wrong > 0 {
			rep.problem("%d pages returned an unexpected status", c.wrong)
		}
	}
	rep.lat = mergeWindows(lat)

	var c counterCheck
	c.equal("pages completed", w.done(), n)
	c.equal("cross-MDT requests denied", denied, w.nCross.Load())
	c.equal("webfront.Requests", w.stats.Requests, n)
	c.equal("webfront.Blocked", w.stats.Blocked, 0)
	c.equal("webfront.AuthFailures", w.stats.AuthFailures, 0)
	c.equal("import ticks that failed", w.tickErrs.Load(), 0)
	rep.problems = append(rep.problems, c.mismatches...)

	rep.counters["webfront.denied"] = float64(denied)
	rep.counters["webfront.violations"] = float64(w.stats.Blocked)
	rep.extra = append(rep.extra, metric{"import_ticks", "count", float64(w.ticks.Load()), 1})
}

// pageWriter is the smallest http.ResponseWriter: it keeps the status and
// the body of one response and is reused for the next.
type pageWriter struct {
	header http.Header
	status int
	body   []byte
}

func (p *pageWriter) Header() http.Header { return p.header }

func (p *pageWriter) WriteHeader(status int) {
	if p.status == 0 {
		p.status = status
	}
}

func (p *pageWriter) Write(b []byte) (int, error) {
	p.WriteHeader(http.StatusOK)
	p.body = append(p.body, b...)
	return len(b), nil
}

func (p *pageWriter) reset() {
	clear(p.header)
	p.status = 0
	p.body = p.body[:0]
}
