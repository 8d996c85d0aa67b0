package mdt

import (
	"encoding/json"
	"net/http"
	"slices"
	"sync/atomic"
	"testing"

	"safeweb/internal/docstore"
)

// TestStoreImportRunsNoViewFunctions: the application database's views are
// built when they are read. Importing the whole registry runs neither view
// function; the first page query pays for the replica's documents, once
// per view; the Intranet instance, which nothing queries, never pays.
func TestStoreImportRunsNoViewFunctions(t *testing.T) {
	d, err := Deploy(DeployConfig{Registry: regSmall(), Logf: t.Logf})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	t.Cleanup(d.Stop)
	var calls atomic.Int64 // the storage unit writes on the engine's goroutines
	counting := func(fn docstore.ViewFunc) docstore.ViewFunc {
		return func(doc *docstore.Document) []string {
			calls.Add(1)
			return fn(doc)
		}
	}
	for _, s := range []*docstore.Store{d.AppDB, d.DMZDB} {
		s.RegisterView(ViewRecordsByMDT, counting(recordsByMDT))
		s.RegisterView(ViewMetricsByRegion, counting(metricsByRegion))
	}

	if err := d.ImportAll(); err != nil {
		t.Fatalf("ImportAll: %v", err)
	}
	docs := d.DMZDB.Len()
	if docs == 0 || d.AppDB.Len() != docs {
		t.Fatalf("import left %d documents in the Intranet instance and %d in the replica", d.AppDB.Len(), docs)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("importing %d documents ran the view functions %d times, want 0", docs, n)
	}

	m := firstMDTWithRecords(t, d) // queries the replica
	if n := calls.Load(); n != int64(2*docs) {
		t.Errorf("the first query ran the view functions %d times, want %d (documents) x 2 (views)", n, docs)
	}
	if status, _ := httpGet(t, d, "/", m); status != http.StatusOK {
		t.Errorf("front page status = %d", status)
	}
	if n := calls.Load(); n != int64(2*docs) {
		t.Errorf("pages over caught-up views ran the view functions: %d calls, want %d", n, 2*docs)
	}
}

// TestStorePagesAcrossReimport: a re-import rewrites every record under a
// new revision, and the next page folds those changes into views that
// already exist. The pages it then serves must be, byte for byte, the
// pages served from views built from nothing over the same documents, and
// must list the same patients in the same order as before, over the new
// revisions' contents. (Whole bodies cannot be compared across the
// re-import: the aggregator's "reports" and "cases" counts accumulate with
// every import.)
func TestStorePagesAcrossReimport(t *testing.T) {
	d := deployTest(t, DeployConfig{Registry: regSmall()})
	m := firstMDTWithRecords(t, d)
	var region string
	for _, team := range d.Registry.MDTs() {
		if team.ID == m {
			region = team.Region
		}
	}
	paths := []string{"/records/" + m, "/", "/compare/" + region}
	fetch := func() []string {
		bodies := make([]string, len(paths))
		for i, path := range paths {
			status, body := httpGet(t, d, path, m)
			if status != http.StatusOK || body == "" {
				t.Fatalf("GET %s: status %d, %d bytes", path, status, len(body))
			}
			bodies[i] = body
		}
		return bodies
	}
	// listed gives the patients of a /records/:mid body, in page order.
	listed := func(body string) []string {
		var records []struct {
			Patient string `json:"patient_id"`
		}
		if err := json.Unmarshal([]byte(body), &records); err != nil || len(records) == 0 {
			t.Fatalf("records page: %d records, err %v", len(records), err)
		}
		out := make([]string, len(records))
		for i, r := range records {
			out[i] = r.Patient
		}
		return out
	}
	revisions := func() map[string]string {
		docs, err := d.DMZDB.Query(ViewRecordsByMDT, m)
		if err != nil || len(docs) == 0 {
			t.Fatalf("records of %s: %d, err %v", m, len(docs), err)
		}
		revs := make(map[string]string, len(docs))
		for _, doc := range docs {
			revs[doc.ID] = doc.Rev
		}
		return revs
	}

	before, revsBefore := fetch(), revisions()
	if err := d.ImportAll(); err != nil {
		t.Fatalf("re-import: %v", err)
	}
	caughtUp, revsAfter := fetch(), revisions()
	if len(revsAfter) != len(revsBefore) {
		t.Fatalf("%d records before the re-import, %d after", len(revsBefore), len(revsAfter))
	}
	for id, rev := range revsBefore {
		if revsAfter[id] == rev {
			t.Errorf("%s is still at %s: the re-import did not rewrite it", id, rev)
		}
	}
	if was, is := listed(before[0]), listed(caughtUp[0]); !slices.Equal(was, is) {
		t.Errorf("%s listed %v before the re-import and %v after", paths[0], was, is)
	}
	// No page is served over a superseded revision's labelled form: each
	// body is what the per-request oracle (memo_test.go) makes of the
	// documents stored now, and none is what was served before.
	ref := probeApp(t, d, true)
	for i, path := range paths {
		if want := serve(ref, path, m, d.Creds[m]).body; caughtUp[i] != want {
			t.Errorf("GET %s after the re-import:\n got %s\nwant %s", path, caughtUp[i], want)
		}
		if caughtUp[i] == before[i] {
			t.Errorf("GET %s did not change across a re-import that rewrote every record", path)
		}
	}

	RegisterViews(d.DMZDB) // start both views again from nothing
	for i, body := range fetch() {
		if body != caughtUp[i] {
			t.Errorf("GET %s differs between caught-up and rebuilt views:\n--- caught up\n%s\n--- rebuilt\n%s", paths[i], caughtUp[i], body)
		}
	}
}
