package mdt

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"safeweb/internal/docstore"
	"safeweb/internal/label"
	"safeweb/internal/maindb"
	"safeweb/internal/taint"
	"safeweb/internal/template"
	"safeweb/internal/webdb"
	"safeweb/internal/webfront"
)

// View names registered on the application database.
const (
	// ViewRecordsByMDT indexes case records by MDT id — the
	// "Records.by_mid" view of Listing 2.
	ViewRecordsByMDT = "records_by_mdt"
	// ViewMetricsByRegion indexes per-MDT metrics by region, for the F3
	// comparison page.
	ViewMetricsByRegion = "metrics_by_region"
)

// RegisterViews installs the application's views on a store (both the
// Intranet instance and the DMZ replica register them; queries run against
// the replica).
func RegisterViews(s *docstore.Store) {
	s.RegisterView(ViewRecordsByMDT, recordsByMDT)
	s.RegisterView(ViewMetricsByRegion, metricsByRegion)
}

func recordsByMDT(doc *docstore.Document) []string {
	var rec struct {
		MDT string `json:"mdt"`
	}
	if err := json.Unmarshal(doc.Data, &rec); err != nil || rec.MDT == "" {
		return nil
	}
	if !strings.HasPrefix(doc.ID, "record/") {
		return nil
	}
	return []string{rec.MDT}
}

func metricsByRegion(doc *docstore.Document) []string {
	var m struct {
		Scope  string `json:"scope"`
		Region string `json:"region"`
	}
	if err := json.Unmarshal(doc.Data, &m); err != nil {
		return nil
	}
	if m.Scope != "mdt" || !strings.HasPrefix(doc.ID, "metric/mdt/") {
		return nil
	}
	return []string{m.Region}
}

// WebAppConfig wires the MDT web application.
type WebAppConfig struct {
	// Frontend is the SafeWeb frontend the routes register on. Required.
	Frontend *webfront.App
	// Store is the application database the frontend reads — the DMZ
	// replica in the paper's deployment. Required.
	Store *docstore.Store
	// WebDB holds accounts and privilege rows. Required.
	WebDB *webdb.DB
	// MDTs describes the teams (hospital, clinic, region per MDT id);
	// the privilege checks of Listing 3 consult it. Required.
	MDTs []maindb.MDT
	// Faults enables the §5.2 injected vulnerabilities.
	Faults Faults
}

// WebApp is the MDT portal's web tier: the routes of F1–F3 implemented on
// the SafeWeb frontend.
type WebApp struct {
	cfg  WebAppConfig
	mdts map[string]maindb.MDT
}

// frontPageTemplate renders the portal front page: the MDT's case list
// and quality metrics (the page measured by the paper's page-generation
// benchmark, §5.3).
var frontPageTemplate = template.MustParse("front_page", `<!DOCTYPE html>
<html><head><title>MDT portal</title></head><body>
<h1>MDT <%= mdt %> — case feedback</h1>
<table>
<tr><th>Patient</th><th>Name</th><th>Sites</th><th>Stage</th><th>Completeness</th></tr>
<% for r in records %><tr><td><%= r.patient_id %></td><td><%= r.name %></td><td><%= r.sites %></td><td><%= r.max_stage %></td><td><%= r.completeness %></td></tr>
<% end %></table>
<% if metrics %>
<h2>Data quality</h2>
<p>Cases: <%= metrics.cases %></p>
<p>Completeness: <%= metrics.completeness %></p>
<p>Projected survival: <%= metrics.survival %></p>
<% end %>
</body></html>
`)

// NewWebApp registers the MDT portal routes and returns the app.
func NewWebApp(cfg WebAppConfig) (*WebApp, error) {
	switch {
	case cfg.Frontend == nil:
		return nil, fmt.Errorf("mdt: WebAppConfig.Frontend is required")
	case cfg.Store == nil:
		return nil, fmt.Errorf("mdt: WebAppConfig.Store is required")
	case cfg.WebDB == nil:
		return nil, fmt.Errorf("mdt: WebAppConfig.WebDB is required")
	}
	w := &WebApp{cfg: cfg, mdts: make(map[string]maindb.MDT, len(cfg.MDTs))}
	for _, m := range cfg.MDTs {
		w.mdts[m.ID] = m
	}

	app := cfg.Frontend
	app.GetPublic("/health", func(c *webfront.Ctx) error {
		c.WriteString("ok")
		return nil
	})
	app.Get("/", w.frontPage)
	app.Get("/records/:mid", w.recordsByMDT)
	app.Get("/records/:mid/:pid", w.recordDetail)
	app.Get("/metrics/:mid", w.metricsForMDT)
	app.Get("/compare/:region", w.compareRegion)
	app.Get("/regional/:region", w.regionalAggregate)
	return w, nil
}

// checkPrivileges is the application-level access check of Listing 3. It
// is intentionally ordinary application code — the kind that acquires the
// §5.2 bugs — not part of SafeWeb's trusted base; SafeWeb's release check
// backstops it.
func (w *WebApp) checkPrivileges(c *webfront.Ctx, mid string) (bool, error) {
	m, ok := w.mdts[mid]
	if !ok {
		return false, nil
	}
	// m = Measurement.find(id); u = User.find_by_name(@username) ...
	var (
		u   *webdb.User
		err error
	)
	if w.cfg.Faults.CaseFoldUserLookup {
		// Injected "errors in access checks" bug: the lookup ignores
		// case, so mdt1 may resolve to MDT1's row and privileges.
		u, err = w.cfg.WebDB.FindUserFold(c.User.Username)
	} else {
		u, err = w.cfg.WebDB.FindUser(c.User.Username)
	}
	if err != nil {
		return false, fmt.Errorf("mdt: user lookup: %w", err)
	}
	if u.IsAdmin {
		return true, nil
	}
	cond := webdb.PrivilegeCond{UID: u.ID, Hospital: m.Hospital, Clinic: m.Clinic}
	if w.cfg.Faults.IgnoreClinicInCheck {
		// Injected "inappropriate access checks" bug: the clinic
		// equality condition is dropped (Listing 3 line 7 removed), so
		// any MDT of the same hospital passes.
		cond.Clinic = ""
	}
	return w.cfg.WebDB.CountPrivileges(cond) > 0, nil
}

// guard applies the access check unless the omitted-check fault is active
// (Listing 2 line 5 deleted).
func (w *WebApp) guard(c *webfront.Ctx, mid string) error {
	if w.cfg.Faults.OmitAccessCheck {
		return nil
	}
	ok, err := w.checkPrivileges(c, mid)
	if err != nil {
		return err
	}
	if !ok {
		return webfront.ErrForbidden("not a member of this MDT")
	}
	return nil
}

// queryRecords loads the case records of an MDT, in document-id order —
// which, the ids being "record/<mdt>/<patient id>", is patient-id order.
func (w *WebApp) queryRecords(mid string) ([]*docstore.Document, error) {
	docs, err := w.cfg.Store.Query(ViewRecordsByMDT, mid)
	if err != nil {
		return nil, fmt.Errorf("mdt: query records: %w", err)
	}
	return docs, nil
}

// frontPage renders the logged-in user's own MDT page (F1 + F2).
func (w *WebApp) frontPage(c *webfront.Ctx) error {
	mid := c.User.MDT
	if mid == "" {
		return webfront.ErrForbidden("account has no MDT")
	}
	if err := w.guard(c, mid); err != nil {
		return err
	}
	docs, err := w.queryRecords(mid)
	if err != nil {
		return err
	}
	records, err := w.cfg.Frontend.WrapDocs(docs)
	if err != nil {
		return err
	}
	sortDocsByPatient(records)

	tctx := template.Context{
		"mdt":     taint.NewString(mid),
		"records": records,
	}
	if doc, err := w.cfg.Store.Get("metric/mdt/" + mid); err == nil {
		metrics, err := w.cfg.Frontend.WrapDoc(doc)
		if err != nil {
			return err
		}
		tctx["metrics"] = metrics
	}
	return c.Render(frontPageTemplate, tctx)
}

// recordsByMDT is Listing 2: the JSON list of an MDT's case records, in
// patient-id order.
func (w *WebApp) recordsByMDT(c *webfront.Ctx) error {
	mid := c.Param("mid")
	if err := w.guard(c, mid); err != nil {
		return err
	}
	docs, err := w.queryRecords(mid)
	if err != nil {
		return err
	}
	return w.serveDocs(c, docs)
}

// recordDetail serves one case record (F1: "consult the details of
// patients treated by that MDT").
func (w *WebApp) recordDetail(c *webfront.Ctx) error {
	mid, pid := c.Param("mid"), c.Param("pid")
	if err := w.guard(c, mid); err != nil {
		return err
	}
	return w.serveDoc(c, "record/"+mid+"/"+pid, "record")
}

// metricsForMDT serves one MDT's aggregate metrics (F2). Aggregates carry
// the region aggregate label, so no app-level MDT membership check
// applies; SafeWeb's release check enforces the region rule of P1.
func (w *WebApp) metricsForMDT(c *webfront.Ctx) error {
	return w.serveDoc(c, "metric/mdt/"+c.Param("mid"), "metrics")
}

// compareRegion serves all MDT metrics of a region (F3: "MDT co-ordinators
// can put those metrics into context by comparing them with each MDT's
// average in the same region").
func (w *WebApp) compareRegion(c *webfront.Ctx) error {
	docs, err := w.cfg.Store.Query(ViewMetricsByRegion, c.Param("region"))
	if err != nil {
		return fmt.Errorf("mdt: query metrics: %w", err)
	}
	return w.serveDocs(c, docs)
}

// regionalAggregate serves a region's aggregate (F3: "or with regional
// aggregates"), visible to all MDTs under P1.
func (w *WebApp) regionalAggregate(c *webfront.Ctx) error {
	return w.serveDoc(c, "metric/region/"+c.Param("region"), "regional aggregate")
}

// serveDoc answers with one stored document as labelled JSON.
func (w *WebApp) serveDoc(c *webfront.Ctx, id, what string) error {
	doc, err := w.cfg.Store.Get(id)
	if err != nil {
		return webfront.ErrNotFound(what)
	}
	body, err := w.cfg.Frontend.DocJSON(doc)
	if err != nil {
		return err
	}
	c.JSON(body)
	return nil
}

// serveDocs answers with a list of stored documents as labelled JSON.
func (w *WebApp) serveDocs(c *webfront.Ctx, docs []*docstore.Document) error {
	body, err := w.cfg.Frontend.DocsJSON(docs)
	if err != nil {
		return err
	}
	c.JSON(body)
	return nil
}

// sortDocsByPatient orders wrapped records by patient id.
func sortDocsByPatient(docs []taint.Doc) {
	type keyed struct {
		patient string
		doc     taint.Doc
	}
	byPatient := make([]keyed, len(docs))
	for i, d := range docs {
		byPatient[i] = keyed{d.GetString("patient_id").Raw(), d}
	}
	slices.SortFunc(byPatient, func(a, b keyed) int { return strings.Compare(a.patient, b.patient) })
	for i, k := range byPatient {
		docs[i] = k.doc
	}
}

// ProvisionUsers creates one portal account per MDT (username = the MDT
// id, e.g. "mdt-3") plus an "admin" account, granting each the label
// clearance of UserClearance and the Listing 3 privilege rows. It returns
// the generated passwords by username.
func ProvisionUsers(db *webdb.DB, mdts []maindb.MDT, password string) (map[string]string, error) {
	creds := make(map[string]string, len(mdts)+1)
	for _, m := range mdts {
		if !label.ValidName(m.ID) || !label.ValidName(m.Region) {
			return nil, fmt.Errorf("mdt: provision %q (region %q): id cannot name a label", m.ID, m.Region)
		}
		u, err := db.CreateUser(m.ID, password, webdb.WithMDT(m.ID, m.Region))
		if err != nil {
			return nil, fmt.Errorf("mdt: provision %s: %w", m.ID, err)
		}
		creds[m.ID] = password
		db.GrantLabel(u.ID, label.Clearance, label.Exact(MDTLabel(m.ID)))
		db.GrantLabel(u.ID, label.Clearance, label.Exact(RegionAggLabel(m.Region)))
		db.GrantLabel(u.ID, label.Clearance, label.Exact(RegionalAggLabel()))
		db.AddPrivilegeRow(webdb.PrivilegeRow{UID: u.ID, Hospital: m.Hospital, Clinic: m.Clinic})
	}
	admin, err := db.CreateUser("admin", password, webdb.WithAdmin())
	if err != nil {
		return nil, fmt.Errorf("mdt: provision admin: %w", err)
	}
	creds["admin"] = password
	// The admin may see everything the portal serves.
	db.GrantLabel(admin.ID, label.Clearance, label.MustParsePattern("label:conf:"+Authority+"/*"))
	return creds, nil
}
