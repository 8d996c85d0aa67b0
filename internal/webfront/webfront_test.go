package webfront

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"safeweb/internal/docstore"
	"safeweb/internal/jail"
	"safeweb/internal/label"
	"safeweb/internal/taint"
	"safeweb/internal/template"
	"safeweb/internal/webdb"
)

var (
	mdt7 = label.Conf("ecric.org.uk/mdt/7")
	mdt8 = label.Conf("ecric.org.uk/mdt/8")
)

// newTestApp builds an app with two users: "alice" cleared for mdt/7 and
// "bob" cleared for mdt/8.
func newTestApp(t *testing.T, cfg Config) (*App, *webdb.DB) {
	t.Helper()
	db := webdb.New()
	alice, err := db.CreateUser("alice", "pw-a", webdb.WithMDT("mdt-7", "region-1"))
	if err != nil {
		t.Fatal(err)
	}
	db.GrantLabel(alice.ID, label.Clearance, label.Exact(mdt7))
	bob, err := db.CreateUser("bob", "pw-b", webdb.WithMDT("mdt-8", "region-1"))
	if err != nil {
		t.Fatal(err)
	}
	db.GrantLabel(bob.ID, label.Clearance, label.Exact(mdt8))

	cfg.WebDB = db
	cfg.Logf = t.Logf
	app, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app, db
}

func get(t *testing.T, app *App, path, user, pass string) (*http.Response, string) {
	t.Helper()
	srv := httptest.NewServer(app)
	defer srv.Close()
	req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if user != "" {
		req.SetBasicAuth(user, pass)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestAuthenticationRequired(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	app.Get("/x", func(c *Ctx) error {
		c.WriteString("ok")
		return nil
	})

	resp, _ := get(t, app, "/x", "", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("no auth: %d", resp.StatusCode)
	}
	resp, _ = get(t, app, "/x", "alice", "wrong")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad password: %d", resp.StatusCode)
	}
	if app.Stats().AuthFailures != 1 {
		t.Errorf("AuthFailures = %d", app.Stats().AuthFailures)
	}
	resp, body := get(t, app, "/x", "alice", "pw-a")
	if resp.StatusCode != http.StatusOK || body != "ok" {
		t.Errorf("good auth: %d %q", resp.StatusCode, body)
	}
}

func TestPublicRoute(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	app.GetPublic("/health", func(c *Ctx) error {
		c.WriteString("up")
		return nil
	})
	resp, body := get(t, app, "/health", "", "")
	if resp.StatusCode != http.StatusOK || body != "up" {
		t.Errorf("public route: %d %q", resp.StatusCode, body)
	}
}

func TestPathParams(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	app.Get("/records/:mid/:pid", func(c *Ctx) error {
		c.WriteString(c.Param("mid") + "/" + c.Param("pid"))
		return nil
	})
	resp, body := get(t, app, "/records/7/123", "alice", "pw-a")
	if resp.StatusCode != http.StatusOK || body != "7/123" {
		t.Errorf("params: %d %q", resp.StatusCode, body)
	}
	resp, _ = get(t, app, "/records/7", "alice", "pw-a")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("partial path: %d", resp.StatusCode)
	}
}

func TestReleaseCheckAllowsClearedUser(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	app.Get("/data", func(c *Ctx) error {
		c.Write(taint.NewString("mdt7-secret", mdt7))
		return nil
	})
	resp, body := get(t, app, "/data", "alice", "pw-a")
	if resp.StatusCode != http.StatusOK || body != "mdt7-secret" {
		t.Errorf("cleared user: %d %q", resp.StatusCode, body)
	}
}

func TestReleaseCheckBlocksUnclearedUser(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	app.Get("/data", func(c *Ctx) error {
		c.Write(taint.NewString("mdt7-secret", mdt7))
		return nil
	})
	resp, body := get(t, app, "/data", "bob", "pw-b")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("uncleared user: %d", resp.StatusCode)
	}
	if strings.Contains(body, "mdt7-secret") {
		t.Fatal("blocked response leaked data")
	}
	if app.Stats().Blocked != 1 {
		t.Errorf("Blocked = %d", app.Stats().Blocked)
	}
	violations := app.Violations()
	if len(violations) != 1 || violations[0].Username != "bob" || violations[0].Missing != mdt7 {
		t.Errorf("violations = %+v", violations)
	}
}

func TestDisableTrackingSkipsCheck(t *testing.T) {
	app, _ := newTestApp(t, Config{DisableTracking: true})
	app.Get("/data", func(c *Ctx) error {
		c.Write(taint.NewString("mdt7-secret", mdt7))
		return nil
	})
	resp, body := get(t, app, "/data", "bob", "pw-b")
	if resp.StatusCode != http.StatusOK || body != "mdt7-secret" {
		t.Errorf("tracking disabled: %d %q — the baseline must disclose", resp.StatusCode, body)
	}
}

func TestMixedLabelsNeedFullClearance(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	app.Get("/mixed", func(c *Ctx) error {
		c.Write(taint.NewString("a", mdt7))
		c.Write(taint.NewString("b", mdt8))
		return nil
	})
	// Alice holds mdt7 only; the mixed response must be blocked.
	resp, _ := get(t, app, "/mixed", "alice", "pw-a")
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("mixed response: %d", resp.StatusCode)
	}
}

func TestHandlerErrors(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	app.Get("/missing", func(c *Ctx) error { return ErrNotFound("record") })
	app.Get("/forbidden", func(c *Ctx) error { return ErrForbidden("no") })
	app.Get("/boom", func(c *Ctx) error { return io.ErrUnexpectedEOF })

	resp, _ := get(t, app, "/missing", "alice", "pw-a")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("ErrNotFound: %d", resp.StatusCode)
	}
	resp, _ = get(t, app, "/forbidden", "alice", "pw-a")
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("ErrForbidden: %d", resp.StatusCode)
	}
	resp, _ = get(t, app, "/boom", "alice", "pw-a")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("generic error: %d", resp.StatusCode)
	}
	resp, _ = get(t, app, "/no-such-route", "alice", "pw-a")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route: %d", resp.StatusCode)
	}
}

func TestWrapDocCarriesLabels(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	store := docstore.New("app", docstore.Options{})
	doc, err := store.Put("r", json.RawMessage(`{"name":"Smith"}`), label.NewSet(mdt7), "")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := store.Get(doc.ID)
	wrapped, err := app.WrapDoc(got)
	if err != nil {
		t.Fatalf("WrapDoc: %v", err)
	}
	if !wrapped.GetString("name").Labels().Contains(mdt7) {
		t.Error("WrapDoc lost labels")
	}

	list, err := app.WrapDocs([]*docstore.Document{got, got})
	if err != nil || len(list) != 2 {
		t.Fatalf("WrapDocs: %v", err)
	}

	// With tracking disabled, wrapping is unlabelled.
	appOff, _ := newTestApp(t, Config{DisableTracking: true})
	plain, err := appOff.WrapDoc(got)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.GetString("name").Labels().IsEmpty() {
		t.Error("DisableTracking still labelled")
	}
}

func TestRenderTemplateAccumulatesLabels(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	tmpl := template.MustParse("page", "<h1><%= name %></h1>")
	app.Get("/page", func(c *Ctx) error {
		return c.Render(tmpl, template.Context{"name": taint.NewString("Smith", mdt7)})
	})

	// Cleared: page renders with content type.
	resp, body := get(t, app, "/page", "alice", "pw-a")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "Smith") {
		t.Errorf("cleared render: %d %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	// Uncleared: blocked.
	resp, body = get(t, app, "/page", "bob", "pw-b")
	if resp.StatusCode != http.StatusForbidden || strings.Contains(body, "Smith") {
		t.Errorf("uncleared render: %d %q", resp.StatusCode, body)
	}
}

func TestRenderErrorPropagates(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	tmpl := template.MustParse("bad", "<%= missing %>")
	app.Get("/page", func(c *Ctx) error {
		return c.Render(tmpl, template.Context{})
	})
	resp, _ := get(t, app, "/page", "alice", "pw-a")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("render error: %d", resp.StatusCode)
	}
}

func TestJSONHelper(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	app.Get("/j", func(c *Ctx) error {
		s, err := taint.Doc{"k": taint.NewString("v", mdt7)}.ToJSON()
		if err != nil {
			return err
		}
		c.JSON(s)
		return nil
	})
	resp, body := get(t, app, "/j", "alice", "pw-a")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var decoded map[string]string
	if err := json.Unmarshal([]byte(body), &decoded); err != nil || decoded["k"] != "v" {
		t.Errorf("body = %q", body)
	}
}

func TestOnRequestPhases(t *testing.T) {
	var got []PhaseTimes
	app, _ := newTestApp(t, Config{
		AuthWork:  100,
		OnRequest: func(p PhaseTimes) { got = append(got, p) },
	})
	app.Get("/x", func(c *Ctx) error {
		c.Write(taint.NewString("s", mdt7))
		return nil
	})
	srv := httptest.NewServer(app)
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/x", nil)
	req.SetBasicAuth("alice", "pw-a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if len(got) != 1 {
		t.Fatalf("OnRequest calls = %d", len(got))
	}
	p := got[0]
	if p.Status != http.StatusOK {
		t.Errorf("status = %d", p.Status)
	}
	if p.Auth <= 0 || p.Handler < 0 || p.LabelCheck < 0 {
		t.Errorf("phases = %+v", p)
	}
}

func TestStatusOverride(t *testing.T) {
	app, _ := newTestApp(t, Config{})
	app.Post("/create", func(c *Ctx) error {
		c.Status(http.StatusCreated)
		c.WriteString("made")
		return nil
	})
	srv := httptest.NewServer(app)
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/create", nil)
	req.SetBasicAuth("alice", "pw-a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing WebDB accepted")
	}
}

// TestViolationLogBounded: the blocked-response log keeps the newest
// jail.RingCap blocks, oldest first, and counts the rest.
func TestViolationLogBounded(t *testing.T) {
	const extra = 5
	app, _ := newTestApp(t, Config{})
	app.cfg.Logf = func(string, ...any) {} // a line per block
	app.Get("/data/:n", func(c *Ctx) error {
		c.Write(taint.NewString("mdt7-secret", mdt7))
		return nil
	})
	for i := 0; i < jail.RingCap+extra; i++ {
		req := httptest.NewRequest(http.MethodGet, "/data/"+strconv.Itoa(i), nil)
		req.SetBasicAuth("bob", "pw-b")
		rec := httptest.NewRecorder()
		app.ServeHTTP(rec, req)
		if rec.Code != http.StatusForbidden {
			t.Fatalf("request %d: status %d, want 403", i, rec.Code)
		}
	}
	v := app.Violations()
	if len(v) != jail.RingCap || app.Dropped() != extra {
		t.Fatalf("kept %d blocks, dropped %d; want %d and %d", len(v), app.Dropped(), jail.RingCap, extra)
	}
	if first, last := v[0].Path, v[len(v)-1].Path; first != "/data/5" || last != "/data/"+strconv.Itoa(jail.RingCap+extra-1) {
		t.Errorf("kept %s..%s, want the newest blocks oldest first", first, last)
	}
}
