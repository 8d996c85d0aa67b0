package mdt

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"safeweb/internal/docstore"
	"safeweb/internal/engine"
	"safeweb/internal/event"
	"safeweb/internal/label"
	"safeweb/internal/maindb"
)

// Topics used by the MDT application.
const (
	// TopicImport triggers the data producer; the deployment publishes it
	// periodically (the paper's producer "periodically reads unlabelled
	// patient records from the main ECRIC database", §4.1).
	TopicImport = "/control/import"
	// TopicMetrics triggers regional aggregate computation; the event
	// carries region and mdts attributes.
	TopicMetrics = "/control/metrics"
	// TopicPatientReport carries one patient/tumour report from the
	// producer.
	TopicPatientReport = "/patient_report"
	// TopicRecord carries a combined case record from the aggregator.
	TopicRecord = "/record"
	// TopicMetric carries an aggregate metric from the aggregator.
	TopicMetric = "/metric"
	// TopicAggregate carries relabelled aggregates republished by the
	// storage unit: the same payloads it persists, but as events under
	// their post-declassification labels, so other consumers (regional
	// dashboards, federation bridges) can subscribe without holding
	// patient-level clearance.
	TopicAggregate = "/aggregate"
)

// Faults are the §5.2 fault-injection switches. All false in production;
// the security evaluation flips them one at a time. The zero value is the
// correct application.
type Faults struct {
	// OmitAccessCheck removes the MDT privilege check from the record
	// routes ("omitted access checks": CVE-2011-0701 class).
	OmitAccessCheck bool
	// CaseFoldUserLookup makes the privilege check look users up
	// case-insensitively ("errors in access checks": CVE-2011-0449
	// class; usernames mdt1 vs MDT1 share privileges).
	CaseFoldUserLookup bool
	// IgnoreClinicInCheck drops the clinic-equality condition from the
	// privilege query ("inappropriate access checks": CVE-2010-4775
	// class; any MDT sees all patients of the same hospital).
	IgnoreClinicInCheck bool
	// MixHospitals makes the aggregator ignore the origin MDT when
	// matching events ("design errors": CVE-2011-0899 class; records mix
	// data of different MDTs).
	MixHospitals bool
}

// Producer is the privileged data-producer unit (§5.1 unit (a)): on each
// import trigger it reads the main registry "leveraging the existing ECRIC
// framework for data access", labels each report with the treating MDT's
// label, and publishes it as events.
type Producer struct {
	// DB is the main registry. The producer holds it directly: it is a
	// privileged unit, and handing confidential data sources only to
	// privileged units is the deployment wiring's responsibility.
	DB *maindb.DB
}

var _ engine.Unit = (*Producer)(nil)

// Name implements engine.Unit.
func (p *Producer) Name() string { return ProducerName }

// Init implements engine.Unit.
func (p *Producer) Init(ctx *engine.InitContext) error {
	return ctx.Subscribe(TopicImport, "", func(ctx *engine.Context, _ *event.Event) error {
		var refused error
		for _, patient := range p.DB.Patients() {
			// The MDT id names the label that protects the record, and
			// label.Conf panics on a name no label can carry (a ',' would
			// read as two labels after one wire hop): an id like that
			// fails its record, unpublished, not the import.
			if !label.ValidName(patient.MDT) {
				refused = errors.Join(refused, fmt.Errorf(
					"mdt: producer: patient %s: MDT id %q cannot name a label", patient.ID, patient.MDT))
				continue
			}
			completeness := p.DB.Completeness(patient)
			for _, tum := range p.DB.TumoursOf(patient.ID) {
				attrs := map[string]string{
					"patient_id":   patient.ID,
					"name":         patient.Name,
					"nhs_number":   patient.NHSNumber,
					"birth_year":   strconv.Itoa(patient.BirthYear),
					"mdt":          patient.MDT,
					"hospital":     patient.Hospital,
					"clinic":       patient.Clinic,
					"region":       patient.Region,
					"site":         tum.Site,
					"stage":        strconv.Itoa(tum.Stage),
					"type":         tum.Type,
					"completeness": strconv.FormatFloat(completeness, 'f', 3, 64),
					"treatments":   strconv.Itoa(len(p.DB.TreatmentsOf(patient.ID))),
				}
				// Publish with the MDT label plus the application
				// integrity label (the producer holds the endorsement
				// privilege).
				err := ctx.Publish(TopicPatientReport, attrs, nil,
					engine.WithAdd(MDTLabel(patient.MDT), IntegrityLabel()))
				if err != nil {
					return fmt.Errorf("mdt: producer publish: %w", err)
				}
			}
		}
		return refused
	})
}

// CaseRecord is the aggregator's combined view of one case, stored in the
// application database and served by the frontend.
type CaseRecord struct {
	PatientID    string   `json:"patient_id"`
	Name         string   `json:"name,omitempty"`
	NHSNumber    string   `json:"nhs_number,omitempty"`
	BirthYear    int      `json:"birth_year,omitempty"`
	MDT          string   `json:"mdt"`
	Hospital     string   `json:"hospital"`
	Clinic       string   `json:"clinic"`
	Region       string   `json:"region"`
	Sites        []string `json:"sites"`
	MaxStage     int      `json:"max_stage"`
	Reports      int      `json:"reports"`
	Treatments   int      `json:"treatments"`
	Completeness float64  `json:"completeness"`
}

// Metrics is one aggregate metrics row (per MDT or per region).
type Metrics struct {
	Scope        string  `json:"scope"` // "mdt" or "region"
	MDT          string  `json:"mdt,omitempty"`
	Region       string  `json:"region"`
	Cases        int     `json:"cases"`
	Completeness float64 `json:"completeness"`
	// Survival is the projected survival statistic of F2 — derived here
	// from the stage distribution, standing in for the registry's
	// survival model.
	Survival float64 `json:"survival"`
}

// Aggregator is the non-privileged aggregator unit (§5.1 unit (b)): it
// "continuously collects all events related to individual cancer cases and
// combines their data". It is the large component whose implementation
// errors must not disclose data — SafeWeb's isolation and label tracking
// contain it.
type Aggregator struct {
	// Faults enables the §5.2 injected bugs.
	Faults Faults
}

var _ engine.Unit = (*Aggregator)(nil)

// Name implements engine.Unit.
func (a *Aggregator) Name() string { return AggregatorName }

// Init implements engine.Unit.
func (a *Aggregator) Init(ctx *engine.InitContext) error {
	// Combined case records, updated per report. Only confirmed cancer
	// cases reach the portal (content-based subscription, Listing 1).
	err := ctx.Subscribe(TopicPatientReport, "type = 'cancer'", a.onReport)
	if err != nil {
		return err
	}
	return ctx.Subscribe(TopicMetrics, "", a.onMetricsRequest)
}

// caseKey chooses the store key a report merges into. The MixHospitals
// fault reproduces the paper's design-error injection: "we modify the data
// aggregator unit to ignore the hospital of origin when matching events.
// As a result, the unit generates records that mix data of different
// MDTs."
func (a *Aggregator) caseKey(ev *event.Event) string {
	if a.Faults.MixHospitals {
		return "case/" + ev.Attr("site") // mixes patients across MDTs
	}
	return "case/" + ev.Attr("mdt") + "/" + ev.Attr("patient_id")
}

func (a *Aggregator) onReport(ctx *engine.Context, ev *event.Event) error {
	key := a.caseKey(ev)

	var rec CaseRecord
	if existing, ok := ctx.Get(key); ok {
		if err := json.Unmarshal([]byte(existing), &rec); err != nil {
			return fmt.Errorf("mdt: corrupt case record %s: %w", key, err)
		}
	}

	// Merge the report. Reading the key above already merged its labels
	// into the tracked set, so the updated record and everything
	// published from here carries the confidentiality of all inputs.
	rec.PatientID = ev.Attr("patient_id")
	if rec.Name == "" {
		rec.Name = ev.Attr("name")
	}
	if rec.NHSNumber == "" {
		rec.NHSNumber = ev.Attr("nhs_number")
	}
	if rec.BirthYear == 0 {
		rec.BirthYear, _ = strconv.Atoi(ev.Attr("birth_year"))
	}
	rec.MDT = ev.Attr("mdt")
	rec.Hospital = ev.Attr("hospital")
	rec.Clinic = ev.Attr("clinic")
	rec.Region = ev.Attr("region")
	if site := ev.Attr("site"); site != "" && !contains(rec.Sites, site) {
		rec.Sites = append(rec.Sites, site)
	}
	if stage, _ := strconv.Atoi(ev.Attr("stage")); stage > rec.MaxStage {
		rec.MaxStage = stage
	}
	rec.Reports++
	rec.Treatments, _ = strconv.Atoi(ev.Attr("treatments"))
	rec.Completeness, _ = strconv.ParseFloat(ev.Attr("completeness"), 64)

	encoded, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("mdt: encode case record: %w", err)
	}
	if err := ctx.Set(key, string(encoded)); err != nil {
		return fmt.Errorf("mdt: store case record: %w", err)
	}

	// Update the MDT's running aggregates and publish refreshed metrics.
	// Reading only this MDT's accumulator keys keeps the tracked set
	// clean of other MDTs' labels.
	mdtID := ev.Attr("mdt")
	cases := a.bumpCounter(ctx, "agg/"+mdtID+"/cases", 1)
	compSum := a.bumpFloat(ctx, "agg/"+mdtID+"/completeness_sum", rec.Completeness)
	stageSum := a.bumpFloat(ctx, "agg/"+mdtID+"/stage_sum", float64(rec.MaxStage))

	metrics := Metrics{
		Scope:        "mdt",
		MDT:          mdtID,
		Region:       ev.Attr("region"),
		Cases:        cases,
		Completeness: compSum / float64(cases),
		Survival:     survivalFromStage(stageSum / float64(cases)),
	}
	metricsJSON, err := json.Marshal(metrics)
	if err != nil {
		return fmt.Errorf("mdt: encode metrics: %w", err)
	}

	// Publish the combined record and the metric. Labels ride along
	// automatically from the tracked set.
	if err := ctx.Publish(TopicRecord, map[string]string{
		"patient_id": rec.PatientID,
		"mdt":        rec.MDT,
		"region":     rec.Region,
	}, encoded); err != nil {
		return err
	}
	return ctx.Publish(TopicMetric, map[string]string{
		"scope":  "mdt",
		"mdt":    mdtID,
		"region": metrics.Region,
	}, metricsJSON)
}

// onMetricsRequest computes regional aggregates: the control event names
// the region and its MDT ids, and the callback combines those MDTs'
// accumulators. The tracked set ends up carrying every involved MDT's
// label — which is why the storage unit must relabel regional aggregates
// before they become visible (§3.1).
func (a *Aggregator) onMetricsRequest(ctx *engine.Context, ev *event.Event) error {
	region := ev.Attr("region")
	mdtIDs := strings.Split(ev.Attr("mdts"), ",")

	var (
		cases    int
		compSum  float64
		stageSum float64
	)
	for _, id := range mdtIDs {
		if id == "" {
			continue
		}
		if v, ok := ctx.Get("agg/" + id + "/cases"); ok {
			n, _ := strconv.Atoi(v)
			cases += n
		}
		if v, ok := ctx.Get("agg/" + id + "/completeness_sum"); ok {
			f, _ := strconv.ParseFloat(v, 64)
			compSum += f
		}
		if v, ok := ctx.Get("agg/" + id + "/stage_sum"); ok {
			f, _ := strconv.ParseFloat(v, 64)
			stageSum += f
		}
	}
	if cases == 0 {
		return nil // nothing aggregated yet
	}
	metrics := Metrics{
		Scope:        "region",
		Region:       region,
		Cases:        cases,
		Completeness: compSum / float64(cases),
		Survival:     survivalFromStage(stageSum / float64(cases)),
	}
	encoded, err := json.Marshal(metrics)
	if err != nil {
		return fmt.Errorf("mdt: encode regional metrics: %w", err)
	}
	return ctx.Publish(TopicMetric, map[string]string{
		"scope":  "region",
		"region": region,
	}, encoded)
}

// bumpCounter increments an integer accumulator in the store.
func (a *Aggregator) bumpCounter(ctx *engine.Context, key string, delta int) int {
	n := 0
	if v, ok := ctx.Get(key); ok {
		n, _ = strconv.Atoi(v)
	}
	n += delta
	// Accumulator writes inherit the tracked labels; errors cannot occur
	// because no labels are being removed.
	_ = ctx.Set(key, strconv.Itoa(n))
	return n
}

// bumpFloat adds to a float accumulator in the store.
func (a *Aggregator) bumpFloat(ctx *engine.Context, key string, delta float64) float64 {
	f := 0.0
	if v, ok := ctx.Get(key); ok {
		f, _ = strconv.ParseFloat(v, 64)
	}
	f += delta
	_ = ctx.Set(key, strconv.FormatFloat(f, 'g', -1, 64))
	return f
}

// survivalFromStage derives the projected survival statistic from the
// average stage (a simple monotone proxy for the registry's model).
func survivalFromStage(avgStage float64) float64 {
	s := 1.02 - 0.18*avgStage
	if s < 0.05 {
		s = 0.05
	}
	if s > 0.99 {
		s = 0.99
	}
	return s
}

func contains(list []string, s string) bool {
	for _, e := range list {
		if e == s {
			return true
		}
	}
	return false
}

// Storage is the privileged data-storage unit (§5.1 unit (c)): it "has
// declassification privileges for all MDTs" and "stores processed records
// with their security labels in the CouchDB application database."
//
// It applies the relabelling of §3.1: case records keep their MDT labels;
// MDT-level aggregates are relabelled to the region's aggregate label; and
// regional aggregates are relabelled to the regional label. As a
// privileged unit its labelling decisions are part of the audited trusted
// codebase (§5.2 item 3).
type Storage struct {
	// Store is the Intranet application database instance.
	Store *docstore.Store
}

var _ engine.Unit = (*Storage)(nil)

// Name implements engine.Unit.
func (s *Storage) Name() string { return StorageName }

// Init implements engine.Unit.
func (s *Storage) Init(ctx *engine.InitContext) error {
	if err := ctx.Subscribe(TopicRecord, "", s.onRecord); err != nil {
		return err
	}
	return ctx.Subscribe(TopicMetric, "", s.onMetric)
}

func (s *Storage) onRecord(ctx *engine.Context, ev *event.Event) error {
	id := "record/" + ev.Attr("mdt") + "/" + ev.Attr("patient_id")
	// Case records keep their tracked confidentiality labels: a record
	// mixing multiple MDTs' data (the design-error fault) stays labelled
	// with all of them, which is what blocks its display (§5.2 "design
	// errors").
	labels := ctx.Labels().Confidentiality()
	return s.upsert(id, ev.Body, labels)
}

func (s *Storage) onMetric(ctx *engine.Context, ev *event.Event) error {
	var (
		id       string
		relabels label.Label
	)
	switch ev.Attr("scope") {
	case "mdt":
		// MDT-level aggregates: declassify the MDT labels, relabel with
		// the region's aggregate label (visible to all MDTs in the
		// region, P1).
		id = "metric/mdt/" + ev.Attr("mdt")
		relabels = RegionAggLabel(ev.Attr("region"))
	case "region":
		// Regional aggregates: visible to all MDTs.
		id = "metric/region/" + ev.Attr("region")
		relabels = RegionalAggLabel()
	default:
		return fmt.Errorf("mdt: metric with unknown scope %q", ev.Attr("scope"))
	}
	if err := s.upsert(id, ev.Body, label.NewSet(relabels)); err != nil {
		return err
	}
	// Republish the relabelled aggregate as an event. The storage unit is
	// privileged, so removing the tracked (patient/MDT) labels is
	// permitted; the engine still verifies through the normal publish
	// path.
	return ctx.Publish(TopicAggregate, map[string]string{
		"scope":  ev.Attr("scope"),
		"mdt":    ev.Attr("mdt"),
		"region": ev.Attr("region"),
	}, ev.Body, engine.WithRemoveAll(), engine.WithAdd(relabels))
}

// upsert writes a document, fetching the current revision on conflict.
func (s *Storage) upsert(id string, body []byte, labels label.Set) error {
	rev := ""
	if existing, err := s.Store.Get(id); err == nil {
		rev = existing.Rev
	}
	if _, err := s.Store.Put(id, json.RawMessage(body), labels, rev); err != nil {
		return fmt.Errorf("mdt: store %s: %w", id, err)
	}
	return nil
}
