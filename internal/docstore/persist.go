package docstore

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// fileImage is the JSON snapshot format: the documents (including
// tombstones, so a reloaded store keeps replicating deletions) and the
// change sequence.
type fileImage struct {
	Name string      `json:"name"`
	Seq  uint64      `json:"seq"`
	Docs []*Document `json:"docs"`
}

// Save writes a snapshot of the store to path. Views are code, not data;
// re-register them after Load.
func (s *Store) Save(path string) error {
	s.mu.RLock()
	img := fileImage{Name: s.name, Seq: s.seq, Docs: make([]*Document, 0, len(s.docs))}
	for _, doc := range s.docs {
		img.Docs = append(img.Docs, doc)
	}
	s.mu.RUnlock()
	sort.Slice(img.Docs, func(i, j int) bool { return img.Docs[i].Seq < img.Docs[j].Seq })

	data, err := json.MarshalIndent(img, "", "  ")
	if err != nil {
		return fmt.Errorf("docstore: encode snapshot: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o600); err != nil {
		return fmt.Errorf("docstore: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("docstore: commit snapshot: %w", err)
	}
	return nil
}

// Load reads a snapshot written by Save.
func Load(path string, opts Options) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("docstore: read snapshot: %w", err)
	}
	var img fileImage
	if err := json.Unmarshal(data, &img); err != nil {
		return nil, fmt.Errorf("docstore: decode snapshot: %w", err)
	}
	s := New(img.Name, opts)
	s.seq = img.Seq
	for _, doc := range img.Docs {
		if doc.ID == "" {
			return nil, fmt.Errorf("docstore: snapshot contains document without id")
		}
		s.docs[doc.ID] = doc
	}
	return s, nil
}
