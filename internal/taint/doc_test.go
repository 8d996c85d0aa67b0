package taint

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"safeweb/internal/label"
)

func TestWrapJSON(t *testing.T) {
	raw := []byte(`{
		"name": "John Smith",
		"age": 61,
		"alive": true,
		"tumour": {"site": "C50.9", "stage": 2},
		"treatments": ["surgery", "radiotherapy"],
		"notes": null
	}`)
	labels := label.NewSet(mdt7)
	doc, err := WrapJSON(raw, labels)
	if err != nil {
		t.Fatalf("WrapJSON: %v", err)
	}

	if got := doc.GetString("name"); got.Raw() != "John Smith" || !got.Labels().Contains(mdt7) {
		t.Errorf("name = %q %v", got.Raw(), got.Labels())
	}
	if got := doc.GetNumber("age"); got.Float() != 61 || !got.Labels().Contains(mdt7) {
		t.Errorf("age = %v %v", got.Float(), got.Labels())
	}
	sub := doc.GetDoc("tumour")
	if sub == nil {
		t.Fatal("nested doc missing")
	}
	if got := sub.GetString("site"); got.Raw() != "C50.9" || !got.Labels().Contains(mdt7) {
		t.Errorf("site = %q %v", got.Raw(), got.Labels())
	}
	list, ok := doc["treatments"].([]any)
	if !ok || len(list) != 2 {
		t.Fatalf("treatments = %T", doc["treatments"])
	}
	first, ok := list[0].(String)
	if !ok || !first.Labels().Contains(mdt7) {
		t.Errorf("treatment[0] = %v", list[0])
	}

	if _, err := WrapJSON([]byte("not json"), labels); err == nil {
		t.Error("WrapJSON accepted garbage")
	}
}

func TestDocLabelsComposition(t *testing.T) {
	doc := Doc{
		"a": NewString("x", mdt7),
		"b": NewNumber(1, mdt8),
		"c": "plain",
	}
	got := doc.Labels()
	if !got.Contains(mdt7) || !got.Contains(mdt8) {
		t.Errorf("Labels = %v", got)
	}
	// Integrity is fragile: the plain field drops it.
	docI := Doc{
		"a": WrapString("x", label.NewSet(integ)),
		"b": "plain",
	}
	if docI.Labels().Contains(integ) {
		t.Error("integrity survived mixed doc")
	}
}

func TestDocToJSON(t *testing.T) {
	doc := Doc{
		"patient_id": NewString("33812769", mdt7),
		"survival":   NewNumber(0.82, mdt8),
		"nested":     Doc{"k": NewString("v", mdt7)},
		"list":       []any{NewString("a", mdt7), 2.0},
		"plain":      "public",
	}
	s, err := doc.ToJSON()
	if err != nil {
		t.Fatalf("ToJSON: %v", err)
	}
	if !s.Labels().Contains(mdt7) || !s.Labels().Contains(mdt8) {
		t.Errorf("labels = %v", s.Labels())
	}
	var back map[string]any
	if err := json.Unmarshal([]byte(s.Raw()), &back); err != nil {
		t.Fatalf("output not valid JSON: %v", err)
	}
	if back["patient_id"] != "33812769" || back["plain"] != "public" {
		t.Errorf("round trip = %v", back)
	}
	nested, _ := back["nested"].(map[string]any)
	if nested["k"] != "v" {
		t.Errorf("nested = %v", back["nested"])
	}
}

func TestToJSONList(t *testing.T) {
	docs := []Doc{
		{"id": NewString("1", mdt7)},
		{"id": NewString("2", mdt8)},
	}
	s, err := ToJSONList(docs)
	if err != nil {
		t.Fatalf("ToJSONList: %v", err)
	}
	if !s.Labels().Contains(mdt7) || !s.Labels().Contains(mdt8) {
		t.Errorf("labels = %v", s.Labels())
	}
	var back []map[string]any
	if err := json.Unmarshal([]byte(s.Raw()), &back); err != nil || len(back) != 2 {
		t.Fatalf("round trip: %v %v", back, err)
	}
}

func TestDocRoundTripWrapMarshal(t *testing.T) {
	// WrapJSON then ToJSON must reproduce equivalent JSON and carry
	// the wrap labels.
	raw := []byte(`{"a": "x", "b": [1, {"c": true}], "d": null}`)
	doc, err := WrapJSON(raw, label.NewSet(mdt7))
	if err != nil {
		t.Fatalf("WrapJSON: %v", err)
	}
	s, err := doc.ToJSON()
	if err != nil {
		t.Fatalf("ToJSON: %v", err)
	}
	if !s.Labels().Contains(mdt7) {
		t.Errorf("labels = %v", s.Labels())
	}
	var orig, round any
	if err := json.Unmarshal(raw, &orig); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(s.Raw()), &round); err != nil {
		t.Fatal(err)
	}
	origJSON, _ := json.Marshal(orig)
	roundJSON, _ := json.Marshal(round)
	if string(origJSON) != string(roundJSON) {
		t.Errorf("round trip changed document:\n%s\n%s", origJSON, roundJSON)
	}
}

func TestDocGettersMissing(t *testing.T) {
	doc := Doc{"n": NewNumber(1)}
	if !doc.GetString("missing").IsEmpty() {
		t.Error("missing string not empty")
	}
	if doc.GetNumber("missing").Float() != 0 {
		t.Error("missing number not zero")
	}
	if doc.GetDoc("missing") != nil {
		t.Error("missing doc not nil")
	}
	// Wrong type also yields zero values.
	if !doc.GetString("n").IsEmpty() {
		t.Error("number as string not empty")
	}
}

func TestDocStringHidesContent(t *testing.T) {
	doc := Doc{"secret": NewString("classified", mdt7)}
	s := doc.String()
	if strings.Contains(s, "classified") {
		t.Errorf("Doc.String leaked: %q", s)
	}
	if !strings.Contains(s, "secret") {
		t.Errorf("Doc.String missing keys: %q", s)
	}
}

// TestDocClone: a clone has its own map, nested documents and lists, at
// every depth, over the same leaves; writing to either side leaves the
// other as it was.
func TestDocClone(t *testing.T) {
	labels := label.NewSet(mdt7)
	orig, err := WrapJSON([]byte(`{"name":"Smith","sites":["C50",{"sub":["x"]}],"stage":{"t":2,"nodes":[1,2]},"ok":true,"none":null}`), labels)
	if err != nil {
		t.Fatal(err)
	}
	orig["plain"] = map[string]any{"k": []any{NewString("v", mdt8)}}
	want, _ := orig.ToJSON()

	clone := orig.Clone()
	if !reflect.DeepEqual(clone, orig) {
		t.Fatalf("clone differs:\n got %#v\nwant %#v", clone, orig)
	}
	// Ruin the clone at every depth.
	clone["name"] = NewString("Jones")
	clone["sites"].([]any)[0] = NewString("C18")
	clone["sites"].([]any)[1].(Doc)["sub"].([]any)[0] = NewString("y")
	clone.GetDoc("stage")["t"] = NewNumber(4)
	clone.GetDoc("stage")["nodes"].([]any)[1] = nil
	clone["plain"].(map[string]any)["k"].([]any)[0] = NewString("w")
	delete(clone, "ok")
	if got, _ := orig.ToJSON(); got.Raw() != want.Raw() || !got.Labels().Equal(want.Labels()) {
		t.Errorf("writing to the clone changed the original: %q", got.Raw())
	}
	// And the other way round.
	second := orig.Clone()
	clear(orig.GetDoc("stage"))
	clear(orig)
	if got, _ := second.ToJSON(); got.Raw() != want.Raw() {
		t.Errorf("clearing the original changed a clone: %q", got.Raw())
	}
	if empty := (Doc(nil)).Clone(); empty == nil || len(empty) != 0 {
		t.Errorf("clone of a nil document = %#v", empty)
	}
}
