package mdt

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"safeweb/internal/broker"
	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/maindb"
)

// deployTest spins up a small MDT deployment with data imported.
func deployTest(t *testing.T, cfg DeployConfig) *Deployment {
	t.Helper()
	if cfg.Registry.Patients == 0 {
		cfg.Registry = regSmall()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	d, err := Deploy(cfg)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	t.Cleanup(d.Stop)
	if err := d.ImportAll(); err != nil {
		t.Fatalf("ImportAll: %v", err)
	}
	return d
}

// httpGet performs an authenticated request against the deployment.
func httpGet(t *testing.T, d *Deployment, path, user string) (int, string) {
	t.Helper()
	addr, err := d.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeHTTP: %v", err)
	}
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if user != "" {
		req.SetBasicAuth(user, d.Creds[user])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestPipelineProducesLabelledRecords(t *testing.T) {
	d := deployTest(t, DeployConfig{Registry: regSmall()})

	// Every MDT with cancer cases has records in the DMZ replica, each
	// labelled with exactly that MDT's label.
	totalRecords := 0
	for _, m := range d.Registry.MDTs() {
		docs, err := d.DMZDB.Query(ViewRecordsByMDT, m.ID)
		if err != nil {
			t.Fatalf("Query(%s): %v", m.ID, err)
		}
		totalRecords += len(docs)
		for _, doc := range docs {
			if !doc.Labels.Contains(MDTLabel(m.ID)) {
				t.Errorf("record %s missing label of its MDT: %v", doc.ID, doc.Labels)
			}
			if doc.Labels.Confidentiality().Len() != 1 {
				t.Errorf("record %s carries foreign labels: %v", doc.ID, doc.Labels)
			}
		}
	}
	if totalRecords == 0 {
		t.Fatal("no records produced")
	}

	// The engine jail recorded no violations: units never attempted I/O.
	if n := d.Engine.Audit().Len(); n != 0 {
		t.Errorf("jail audit has %d violations", n)
	}
}

func TestMetricsRelabelled(t *testing.T) {
	d := deployTest(t, DeployConfig{Registry: regSmall()})

	sawMDTMetric := false
	for _, m := range d.Registry.MDTs() {
		doc, err := d.DMZDB.Get("metric/mdt/" + m.ID)
		if err != nil {
			continue // MDT with no cancer cases
		}
		sawMDTMetric = true
		want := label.NewSet(RegionAggLabel(m.Region))
		if !doc.Labels.Equal(want) {
			t.Errorf("MDT metric %s labels = %v, want %v", m.ID, doc.Labels, want)
		}
		var metrics Metrics
		if err := json.Unmarshal(doc.Data, &metrics); err != nil {
			t.Fatalf("metric decode: %v", err)
		}
		if metrics.Cases <= 0 || metrics.Completeness < 0 || metrics.Completeness > 1 {
			t.Errorf("metric %s implausible: %+v", m.ID, metrics)
		}
		if metrics.Survival <= 0 || metrics.Survival >= 1 {
			t.Errorf("survival out of range: %+v", metrics)
		}
	}
	if !sawMDTMetric {
		t.Fatal("no MDT metrics produced")
	}

	for _, region := range d.Registry.Regions() {
		doc, err := d.DMZDB.Get("metric/region/" + region)
		if err != nil {
			t.Fatalf("regional metric %s: %v", region, err)
		}
		want := label.NewSet(RegionalAggLabel())
		if !doc.Labels.Equal(want) {
			t.Errorf("regional metric labels = %v, want %v", doc.Labels, want)
		}
	}
}

func regSmall() maindb.Config {
	return maindb.Config{Seed: 11, Patients: 60, Hospitals: 2, Regions: 2}
}

func TestOwnMDTRecordsAccessible(t *testing.T) {
	d := deployTest(t, DeployConfig{Registry: regSmall()})
	m := firstMDTWithRecords(t, d)

	status, body := httpGet(t, d, "/records/"+m, m)
	if status != http.StatusOK {
		t.Fatalf("own records status = %d", status)
	}
	var records []map[string]any
	if err := json.Unmarshal([]byte(body), &records); err != nil || len(records) == 0 {
		t.Fatalf("records = %v (%v)", body, err)
	}
	for _, r := range records {
		if r["mdt"] != m {
			t.Errorf("foreign record in own listing: %v", r["mdt"])
		}
	}
}

func TestForeignMDTRecordsDenied(t *testing.T) {
	d := deployTest(t, DeployConfig{Registry: regSmall()})
	mdts := mdtsWithRecords(t, d)
	if len(mdts) < 2 {
		t.Skip("need two MDTs with records")
	}
	// App-level check denies (403 from guard), and even without it the
	// label check would; policy P1 holds.
	status, body := httpGet(t, d, "/records/"+mdts[1], mdts[0])
	if status != http.StatusForbidden {
		t.Fatalf("foreign records status = %d", status)
	}
	if strings.Contains(body, "patient_id") {
		t.Fatal("foreign records leaked")
	}
}

func TestFrontPageRenders(t *testing.T) {
	d := deployTest(t, DeployConfig{Registry: regSmall()})
	m := firstMDTWithRecords(t, d)

	status, body := httpGet(t, d, "/", m)
	if status != http.StatusOK {
		t.Fatalf("front page status = %d", status)
	}
	for _, want := range []string{"MDT " + m, "<table>", "Completeness"} {
		if !strings.Contains(body, want) {
			t.Errorf("front page missing %q", want)
		}
	}
}

func TestMetricsVisibilityFollowsP1(t *testing.T) {
	d := deployTest(t, DeployConfig{Registry: regSmall()})

	// Pick two MDTs in the same region and one in the other region.
	byRegion := make(map[string][]string)
	for _, m := range d.Registry.MDTs() {
		if _, err := d.DMZDB.Get("metric/mdt/" + m.ID); err == nil {
			byRegion[m.Region] = append(byRegion[m.Region], m.ID)
		}
	}
	var sameRegion []string
	var otherRegion string
	for _, ids := range byRegion {
		if len(ids) >= 2 && sameRegion == nil {
			sameRegion = ids[:2]
		}
	}
	for region, ids := range byRegion {
		if len(sameRegion) > 0 && len(ids) > 0 {
			if m, _ := d.Registry.MDTByID(sameRegion[0]); m.Region != region {
				otherRegion = ids[0]
			}
		}
	}
	if len(sameRegion) < 2 || otherRegion == "" {
		t.Skip("region layout insufficient for this test")
	}

	// Same-region MDT metrics are visible (P1: MDT-level aggregates seen
	// by all MDTs of the region).
	status, _ := httpGet(t, d, "/metrics/"+sameRegion[1], sameRegion[0])
	if status != http.StatusOK {
		t.Errorf("same-region metrics status = %d", status)
	}
	// Cross-region MDT metrics are blocked by the label check.
	status, body := httpGet(t, d, "/metrics/"+otherRegion, sameRegion[0])
	if status != http.StatusForbidden {
		t.Errorf("cross-region metrics status = %d", status)
	}
	if strings.Contains(body, "completeness") {
		t.Error("cross-region metrics leaked")
	}
	// Regional aggregates are visible to everyone (any region).
	for _, region := range d.Registry.Regions() {
		status, _ := httpGet(t, d, "/regional/"+region, sameRegion[0])
		if status != http.StatusOK {
			t.Errorf("regional aggregate %s status = %d", region, status)
		}
	}
}

func TestCompareRegionVisibility(t *testing.T) {
	d := deployTest(t, DeployConfig{Registry: regSmall()})
	m := firstMDTWithRecords(t, d)
	user, _ := d.Registry.MDTByID(m)

	// Own region comparison: allowed.
	status, body := httpGet(t, d, "/compare/"+user.Region, m)
	if status != http.StatusOK {
		t.Fatalf("own region compare = %d", status)
	}
	var rows []map[string]any
	if err := json.Unmarshal([]byte(body), &rows); err != nil || len(rows) == 0 {
		t.Fatalf("compare rows = %v (%v)", body, err)
	}
	// Other region comparison: blocked (labels of the other region's
	// aggregates are not in the user's clearance).
	var other string
	for _, r := range d.Registry.Regions() {
		if r != user.Region {
			other = r
		}
	}
	status, _ = httpGet(t, d, "/compare/"+other, m)
	if status != http.StatusForbidden {
		t.Errorf("other region compare = %d", status)
	}
}

func TestAdminSeesEverything(t *testing.T) {
	d := deployTest(t, DeployConfig{Registry: regSmall()})
	for _, m := range mdtsWithRecords(t, d) {
		status, _ := httpGet(t, d, "/records/"+m, "admin")
		if status != http.StatusOK {
			t.Errorf("admin records %s status = %d", m, status)
		}
	}
}

func TestRecordDetail(t *testing.T) {
	d := deployTest(t, DeployConfig{Registry: regSmall()})
	m := firstMDTWithRecords(t, d)
	docs, err := d.DMZDB.Query(ViewRecordsByMDT, m)
	if err != nil || len(docs) == 0 {
		t.Fatalf("query: %v", err)
	}
	var rec CaseRecord
	if err := json.Unmarshal(docs[0].Data, &rec); err != nil {
		t.Fatal(err)
	}

	status, body := httpGet(t, d, "/records/"+m+"/"+rec.PatientID, m)
	if status != http.StatusOK {
		t.Fatalf("detail status = %d", status)
	}
	var got CaseRecord
	if err := json.Unmarshal([]byte(body), &got); err != nil || got.PatientID != rec.PatientID {
		t.Errorf("detail = %v (%v)", body, err)
	}
	status, _ = httpGet(t, d, "/records/"+m+"/nope", m)
	if status != http.StatusNotFound {
		t.Errorf("missing detail status = %d", status)
	}
}

func TestDMZReadOnly(t *testing.T) {
	d := deployTest(t, DeployConfig{Registry: regSmall()})
	// S1: the frontend-visible replica rejects writes.
	if _, err := d.DMZDB.Put("intruder", map[string]string{}, nil, ""); err == nil {
		t.Fatal("DMZ replica accepted a write")
	}
	// The Intranet instance and the replica converge.
	if d.AppDB.Len() != d.DMZDB.Len() {
		t.Errorf("replica diverged: %d vs %d docs", d.AppDB.Len(), d.DMZDB.Len())
	}
}

// TestNetworkBrokerDeployment: the same pipeline over the STOMP network
// broker (the paper's deployment shape) — fire-and-forget, with every unit
// publishing through the windowed fast path (pipelined receipt-confirmed
// SENDs on dedicated publish connections), and with credit-windowed
// subscriptions — serves every route to every account exactly as an
// in-process deployment of the same registry does. ImportAll's Sync is
// what makes that hold: it returns only once nothing is left on the wire.
func TestNetworkBrokerDeployment(t *testing.T) {
	ref := deployTest(t, DeployConfig{Registry: regTiny()})
	paths, accounts := portalPaths(t, ref), portalAccounts(ref)
	for _, tc := range []struct {
		name   string
		client broker.ClientConfig
	}{
		{"fire-and-forget", broker.ClientConfig{}},
		{"window", broker.ClientConfig{PublishWindow: 16}},
		{"credit", broker.ClientConfig{SubscribeCredit: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := deployTest(t, DeployConfig{Registry: regTiny(), NetworkBroker: true, Client: tc.client})
			served := 0
			for _, account := range accounts {
				for _, path := range paths {
					got := serve(d.Frontend, path, account, d.Creds[account])
					want := serve(ref.Frontend, path, account, ref.Creds[account])
					if got.status != want.status || got.body != want.body {
						t.Errorf("GET %s as %s: %d %q, in process %d %q", path, account, got.status, got.body, want.status, want.body)
					}
					if want.status == http.StatusOK {
						served++
					}
				}
			}
			if served == 0 {
				t.Fatal("no request was served")
			}
		})
	}
}

// TestDeployCarriesBrokerConfigWhole: Deploy hands the broker settings
// through as whole values, so fields the old field-by-field copy never
// listed, such as JournalSegmentSize, reach the running broker front. One
// stalled credited tap observes the settings: its window of 1
// takes the first delivery, the broker's 32-deep pending ring parks the
// next 32, and each further one overflows until the 8th in a row evicts
// the session under OverflowDisconnect; the journal rolls at the
// configured segment size.
func TestDeployCarriesBrokerConfigWhole(t *testing.T) {
	const topic = "/cfg/probe"
	dir := t.TempDir()
	d, err := Deploy(DeployConfig{
		Registry:      regTiny(),
		NetworkBroker: true,
		Server: broker.ServerConfig{
			Overflow:           broker.OverflowDisconnect,
			Durable:            []string{topic},
			JournalDir:         dir,
			JournalSegmentSize: 256,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	t.Cleanup(d.Stop)

	tap, err := broker.DialBus(d.BrokerServer.Addr(), broker.ClientConfig{Login: "tap", SubscribeCredit: 1})
	if err != nil {
		t.Fatalf("DialBus: %v", err)
	}
	t.Cleanup(func() { _ = tap.Close() })
	// The handler never releases a delivery, so the window is never
	// replenished: the tap is stalled from its second delivery on.
	if _, err := tap.Subscribe(topic, "", func(*event.Event) {}); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	// Publishes fan out on the calling goroutine, so the counters are
	// final when the last one returns. Each record outgrows a segment.
	pad := strings.Repeat("x", 300)
	const ring, evictAfter = 32, 8
	const publishes = 1 + ring + evictAfter
	for i := 0; i < publishes; i++ {
		if err := d.PublishControl(SchedulerName, topic, map[string]string{"pad": pad}); err != nil {
			t.Fatalf("PublishControl %d: %v", i, err)
		}
	}

	st := d.BrokerServer.Stats()
	if st.CreditStalls != 1 || st.OverflowDrops != evictAfter || st.SlowConsumerEvictions != 1 {
		t.Errorf("stalls/drops/evictions = %d/%d/%d, want 1/%d/1",
			st.CreditStalls, st.OverflowDrops, st.SlowConsumerEvictions, evictAfter)
	}
	if st.DurableAppends != publishes {
		t.Errorf("DurableAppends = %d, want %d", st.DurableAppends, publishes)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Errorf("journal has %d segment(s) %v, want a roll per record at JournalSegmentSize 256", len(segs), segs)
	}
}

func regTiny() maindb.Config {
	return maindb.Config{Seed: 5, Patients: 20, Hospitals: 2, Regions: 2}
}

func firstMDTWithRecords(t testing.TB, d *Deployment) string {
	t.Helper()
	mdts := mdtsWithRecords(t, d)
	if len(mdts) == 0 {
		t.Fatal("no MDT has records")
	}
	return mdts[0]
}

func mdtsWithRecords(t testing.TB, d *Deployment) []string {
	t.Helper()
	var out []string
	for _, m := range d.Registry.MDTs() {
		docs, err := d.DMZDB.Query(ViewRecordsByMDT, m.ID)
		if err != nil {
			t.Fatalf("query %s: %v", m.ID, err)
		}
		if len(docs) > 0 {
			out = append(out, m.ID)
		}
	}
	return out
}

// TestProducerRefusesUnlabellableRecord: ids come from registry data and
// name the label that protects a record. An MDT id no label can carry —
// here one that would read as the MDT label plus a forged integrity label
// after a wire hop — fails that record with an error: nothing is published
// for it, nothing panics, and every other record is imported as usual.
func TestProducerRefusesUnlabellableRecord(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	d, err := Deploy(DeployConfig{Registry: regSmall(), Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	t.Cleanup(d.Stop)
	clean := len(d.Registry.Patients())
	for i, id := range []string{"mdt-1,label:int:" + IntegrityName, "mdt-1 ", "mdt-\n1", ""} {
		d.Registry.Register(
			maindb.Patient{ID: fmt.Sprintf("p-bad-%d", i), MDT: id, Hospital: "h", Clinic: "c", Region: "r"},
			maindb.Tumour{ID: fmt.Sprintf("t-bad-%d", i), Site: "C50.9", Stage: 1, Type: "cancer"})
	}
	if err := d.ImportAll(); err != nil {
		t.Fatalf("ImportAll: %v", err)
	}
	if got := d.Engine.Stats().CallbackErrors; got != 1 {
		t.Errorf("CallbackErrors = %d, want 1 (the import reporting its refused records)", got)
	}
	mu.Lock()
	text := strings.Join(logged, "\n")
	mu.Unlock()
	if strings.Contains(text, "panic") {
		t.Errorf("a bad id panicked instead of failing its record:\n%s", text)
	}
	for i := 0; i < 4; i++ {
		if want := fmt.Sprintf("patient p-bad-%d", i); !strings.Contains(text, want) {
			t.Errorf("no error reported for %s:\n%s", want, text)
		}
	}
	records := 0
	for _, m := range d.Registry.MDTs() {
		docs, err := d.DMZDB.Query(ViewRecordsByMDT, m.ID)
		if err != nil {
			t.Fatalf("Query(%s): %v", m.ID, err)
		}
		for _, doc := range docs {
			records++
			if strings.Contains(doc.ID, "p-bad") {
				t.Errorf("refused record %s was stored", doc.ID)
			}
		}
	}
	if records == 0 || clean == 0 {
		t.Errorf("the %d clean records were not imported (%d stored)", clean, records)
	}

	// Provisioning an account for such an MDT is an error too, not a panic.
	if _, err := ProvisionUsers(d.WebDB, []maindb.MDT{{ID: "mdt-9,x", Region: "east"}}, "pw"); err == nil {
		t.Error("ProvisionUsers accepted an MDT id containing ','")
	}
}
