package taint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"safeweb/internal/label"
)

// Doc is a labelled JSON-style document: a map whose leaf values may be
// labelled (String, Number, Value, nested Doc) or plain Go values. It is
// what the frontend's data-access layer produces from application-database
// documents: every field wrapped with the document's labels.
type Doc map[string]any

// WrapJSON parses raw JSON and wraps every leaf string and number with the
// given label set. The frontend uses it when fetching documents from the
// application database, where labels are stored per document (paper §4.4
// step 2: "SafeWeb's taint tracking library transparently adds the labels
// produced by units in the backend to the data fetched from the
// application database").
func WrapJSON(raw []byte, labels label.Set) (Doc, error) {
	var parsed map[string]any
	if err := json.Unmarshal(raw, &parsed); err != nil {
		return nil, fmt.Errorf("taint: parse document: %w", err)
	}
	return wrapMap(parsed, labels), nil
}

func wrapMap(m map[string]any, labels label.Set) Doc {
	out := make(Doc, len(m))
	for k, v := range m {
		out[k] = wrapAny(v, labels)
	}
	return out
}

func wrapAny(v any, labels label.Set) any {
	switch t := v.(type) {
	case string:
		return WrapString(t, labels)
	case float64:
		return WrapNumber(t, labels)
	case bool:
		return NewValue(t, labels)
	case nil:
		return nil
	case map[string]any:
		return wrapMap(t, labels)
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = wrapAny(e, labels)
		}
		return out
	default:
		return NewValue(v, labels)
	}
}

// Clone returns a document with containers of its own — the map, nested
// documents and lists — over the receiver's leaves. Leaves (String, Number,
// Value) are immutable values, so whatever is done to the clone, the
// receiver and every other clone of it stay as they were. This is what lets
// one wrapped form of a stored document serve many requests: each gets a
// clone to do with as it likes.
func (d Doc) Clone() Doc {
	out := make(Doc, len(d))
	for k, v := range d {
		out[k] = cloneContainers(v)
	}
	return out
}

func cloneContainers(v any) any {
	switch t := v.(type) {
	case Doc:
		return t.Clone()
	case map[string]any:
		return map[string]any(Doc(t).Clone())
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = cloneContainers(e)
		}
		return out
	default:
		return v
	}
}

// GetString returns the named field as a labelled string; missing or
// non-string fields return the empty string.
func (d Doc) GetString(key string) String {
	s, _ := d[key].(String)
	return s
}

// GetNumber returns the named field as a labelled number.
func (d Doc) GetNumber(key string) Number {
	n, _ := d[key].(Number)
	return n
}

// GetDoc returns a nested document field.
func (d Doc) GetDoc(key string) Doc {
	sub, _ := d[key].(Doc)
	return sub
}

// Labels returns the composition of all labels in the document: the labels
// anything derived from the whole document must carry. Unlabelled leaves
// contribute empty sets, so a document mixing labelled and plain fields
// keeps all confidentiality labels and no integrity labels.
func (d Doc) Labels() label.Set {
	sets := collectLabels(d, nil)
	return label.Derive(sets...)
}

func collectLabels(v any, acc []label.Set) []label.Set {
	switch t := v.(type) {
	case String:
		return append(acc, t.labels)
	case Number:
		return append(acc, t.labels)
	case Value:
		return append(acc, t.labels)
	case Doc:
		for _, e := range t {
			acc = collectLabels(e, acc)
		}
		return acc
	case map[string]any:
		for _, e := range t {
			acc = collectLabels(e, acc)
		}
		return acc
	case []any:
		for _, e := range t {
			acc = collectLabels(e, acc)
		}
		return acc
	case nil:
		return acc
	default:
		return append(acc, nil)
	}
}

// ToJSON serialises the document to a labelled JSON string carrying
// the composed labels of every field — the operation behind Listing 2's
// "r.to_json" (§5.2): the JSON string of records an MDT must not see is
// correctly tainted, which is what lets the response check catch omitted
// access checks.
func (d Doc) ToJSON() (String, error) {
	var sets []label.Set
	plain := toPlain(d, &sets)
	raw, err := json.Marshal(plain)
	if err != nil {
		return String{}, fmt.Errorf("taint: marshal document: %w", err)
	}
	return String{s: string(raw), labels: label.Derive(sets...)}, nil
}

// ToJSONList serialises a list of documents, composing all labels.
func ToJSONList(docs []Doc) (String, error) {
	var sets []label.Set
	plainList := make([]any, len(docs))
	for i, d := range docs {
		plainList[i] = toPlain(d, &sets)
	}
	raw, err := json.Marshal(plainList)
	if err != nil {
		return String{}, fmt.Errorf("taint: marshal document list: %w", err)
	}
	return String{s: string(raw), labels: label.Derive(sets...)}, nil
}

func toPlain(v any, sets *[]label.Set) any {
	switch t := v.(type) {
	case String:
		*sets = append(*sets, t.labels)
		return t.s
	case Number:
		*sets = append(*sets, t.labels)
		return t.f
	case Value:
		*sets = append(*sets, t.labels)
		return t.v
	case Doc:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = toPlain(e, sets)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = toPlain(e, sets)
		}
		return out
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = toPlain(e, sets)
		}
		return out
	default:
		*sets = append(*sets, nil)
		return v
	}
}

// Keys returns the document's keys in sorted order.
func (d Doc) Keys() []string {
	out := make([]string, 0, len(d))
	for k := range d {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String implements fmt.Stringer without exposing labelled contents.
func (d Doc) String() string {
	return fmt.Sprintf("taint.Doc{%s}[%s]", strings.Join(d.Keys(), " "), d.Labels())
}
