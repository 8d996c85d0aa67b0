package docstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"safeweb/internal/label"
)

// Handler exposes a store over a small CouchDB-flavoured REST API:
//
//	GET    /{id}              fetch a document
//	PUT    /{id}?rev=R        create/update (JSON body; X-SafeWeb-Labels header)
//	DELETE /{id}?rev=R        delete
//	GET    /_changes?since=N  changes feed
//	GET    /_view/{name}?key=K  query a view
//	GET    /_info             {"name":..., "doc_count":..., "update_seq":...}
//
// Labels travel in the X-SafeWeb-Labels response/request header as a
// comma-separated label-URI list, keeping them inseparable from the data
// at this boundary too.
func Handler(s *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /_info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"name":       s.Name(),
			"doc_count":  s.Len(),
			"update_seq": s.Seq(),
			"read_only":  s.ReadOnly(),
		})
	})
	mux.HandleFunc("GET /_changes", func(w http.ResponseWriter, r *http.Request) {
		var since uint64
		if v := r.URL.Query().Get("since"); v != "" {
			var err error
			if since, err = strconv.ParseUint(v, 10, 64); err != nil {
				writeError(w, fmt.Errorf("docstore: bad request: since=%q is not a sequence number", v))
				return
			}
		}
		results, lastSeq := s.changesSince(since)
		writeJSON(w, http.StatusOK, map[string]any{"results": results, "last_seq": lastSeq})
	})
	mux.HandleFunc("GET /_view/{name}", func(w http.ResponseWriter, r *http.Request) {
		docs, err := s.Query(r.PathValue("name"), r.URL.Query().Get("key"))
		if err != nil {
			writeError(w, err)
			return
		}
		// The response label header covers every returned document.
		var all label.Set
		for _, d := range docs {
			all = all.Union(d.Labels)
		}
		w.Header().Set(labelHeader, all.String())
		writeJSON(w, http.StatusOK, map[string]any{"rows": docs})
	})
	mux.HandleFunc("GET /{id}", func(w http.ResponseWriter, r *http.Request) {
		doc, err := s.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set(labelHeader, doc.Labels.String())
		writeJSON(w, http.StatusOK, doc)
	})
	mux.HandleFunc("PUT /{id}", func(w http.ResponseWriter, r *http.Request) {
		var body json.RawMessage
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeError(w, fmt.Errorf("docstore: bad request body: %w", err))
			return
		}
		labels, err := label.ParseSet(r.Header.Get(labelHeader))
		if err != nil {
			writeError(w, err)
			return
		}
		doc, err := s.Put(r.PathValue("id"), body, labels, r.URL.Query().Get("rev"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"id": doc.ID, "rev": doc.Rev})
	})
	mux.HandleFunc("DELETE /{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Delete(r.PathValue("id"), r.URL.Query().Get("rev")); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	return mux
}

// labelHeader carries document label sets over the REST API.
const labelHeader = "X-Safeweb-Labels"

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // header already written; nothing to recover
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrNoView):
		status = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		status = http.StatusConflict
	case errors.Is(err, ErrReadOnly):
		status = http.StatusForbidden
	case errors.Is(err, label.ErrInvalidLabel),
		strings.Contains(err.Error(), "bad request"):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
