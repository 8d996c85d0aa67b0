package docstore

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"safeweb/internal/label"
)

func newAPIServer(t *testing.T, s *Store) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(Handler(s))
	t.Cleanup(srv.Close)
	return srv
}

func doReq(t *testing.T, method, url, body string, headers map[string]string) (*http.Response, map[string]any) {
	t.Helper()
	var reader *strings.Reader
	if body == "" {
		reader = strings.NewReader("")
	} else {
		reader = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	var decoded map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&decoded)
	return resp, decoded
}

func TestHTTPPutGet(t *testing.T) {
	s := New("app", Options{})
	srv := newAPIServer(t, s)

	resp, body := doReq(t, "PUT", srv.URL+"/rec-1", `{"mid":"7"}`,
		map[string]string{"X-Safeweb-Labels": mdt7.String()})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d (%v)", resp.StatusCode, body)
	}
	rev, _ := body["rev"].(string)
	if rev == "" {
		t.Fatal("no rev returned")
	}

	resp, body = doReq(t, "GET", srv.URL+"/rec-1", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Safeweb-Labels"); got != mdt7.String() {
		t.Errorf("label header = %q", got)
	}
	data, _ := body["data"].(map[string]any)
	if data["mid"] != "7" {
		t.Errorf("data = %v", body["data"])
	}

	// Update with rev, then delete.
	resp, _ = doReq(t, "PUT", srv.URL+"/rec-1?rev="+rev, `{"mid":"8"}`, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("update status = %d", resp.StatusCode)
	}
	// Stale rev conflicts.
	resp, _ = doReq(t, "PUT", srv.URL+"/rec-1?rev="+rev, `{"mid":"9"}`, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale update status = %d", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := New("app", Options{})
	srv := newAPIServer(t, s)

	resp, _ := doReq(t, "GET", srv.URL+"/missing", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing doc status = %d", resp.StatusCode)
	}
	resp, _ = doReq(t, "PUT", srv.URL+"/x", "{bad json", nil)
	if resp.StatusCode != http.StatusInternalServerError && resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body status = %d", resp.StatusCode)
	}
	resp, _ = doReq(t, "PUT", srv.URL+"/x", `{}`, map[string]string{"X-Safeweb-Labels": "garbage"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad labels status = %d", resp.StatusCode)
	}
	resp, _ = doReq(t, "GET", srv.URL+"/_view/none?key=1", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown view status = %d", resp.StatusCode)
	}
	// An unreadable since must not be taken for 0, which replays the feed.
	for _, since := range []string{"abc", "-1", "1.5"} {
		resp, _ = doReq(t, "GET", srv.URL+"/_changes?since="+since, "", nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("changes since=%s status = %d", since, resp.StatusCode)
		}
	}
}

func TestHTTPReadOnly(t *testing.T) {
	s := New("dmz", Options{ReadOnly: true})
	srv := newAPIServer(t, s)
	resp, _ := doReq(t, "PUT", srv.URL+"/x", `{}`, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("read-only PUT status = %d", resp.StatusCode)
	}
}

func TestHTTPViewAndChanges(t *testing.T) {
	s := New("app", Options{})
	s.RegisterView("by_mid", func(doc *Document) []string {
		var r struct {
			MID string `json:"mid"`
		}
		if err := json.Unmarshal(doc.Data, &r); err != nil {
			return nil
		}
		return []string{r.MID}
	})
	if _, err := s.Put("r1", json.RawMessage(`{"mid":"7"}`), label.NewSet(mdt7), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("r2", json.RawMessage(`{"mid":"8"}`), nil, ""); err != nil {
		t.Fatal(err)
	}
	srv := newAPIServer(t, s)

	resp, body := doReq(t, "GET", srv.URL+"/_view/by_mid?key=7", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("view status = %d", resp.StatusCode)
	}
	rows, _ := body["rows"].([]any)
	if len(rows) != 1 {
		t.Errorf("rows = %v", body["rows"])
	}
	if got := resp.Header.Get("X-Safeweb-Labels"); got != mdt7.String() {
		t.Errorf("view label header = %q", got)
	}

	resp, body = doReq(t, "GET", srv.URL+"/_changes?since=0", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("changes status = %d", resp.StatusCode)
	}
	results, _ := body["results"].([]any)
	if len(results) != 2 || body["last_seq"].(float64) != 2 {
		t.Errorf("changes = %v up to %v", body["results"], body["last_seq"])
	}
	// No since is the whole feed; a reader that is up to date gets none of it.
	_, body = doReq(t, "GET", srv.URL+"/_changes", "", nil)
	if results, _ = body["results"].([]any); len(results) != 2 {
		t.Errorf("changes without since = %v", body["results"])
	}
	resp, body = doReq(t, "GET", srv.URL+"/_changes?since=2", "", nil)
	if resp.StatusCode != http.StatusOK || body["results"] != nil || body["last_seq"].(float64) != 2 {
		t.Errorf("changes since=2: %d %v", resp.StatusCode, body)
	}

	resp, body = doReq(t, "GET", srv.URL+"/_info", "", nil)
	if resp.StatusCode != http.StatusOK || body["doc_count"].(float64) != 2 {
		t.Errorf("info = %d %v", resp.StatusCode, body)
	}
}
