// Package maindb is the substitute for ECRIC's main cancer registration
// database (paper §2.1): "the main cancer registration database, hosted in
// a secure private network, holds structured information about patients,
// tumours, and associated treatments."
//
// Real registry data is NHS-confidential, so the package generates
// deterministic synthetic records with the same structure: patients
// assigned to hospitals and multidisciplinary teams (MDTs), tumours with
// ICD-10-style site codes and stages, and treatments. Fields are left
// blank with a configurable probability so that the MDT portal's
// data-completeness metrics (functional requirement F2) have something to
// measure.
package maindb

import (
	"fmt"
	"math/rand"
)

// Patient is one registry patient row.
type Patient struct {
	// ID is the registry patient id (the paper's example label uses an
	// 8-digit id: label:conf:ecric.org.uk/patient/33812769).
	ID string
	// Name is the patient's name; may be empty in incomplete records.
	Name string
	// NHSNumber is the 10-digit NHS number; may be empty.
	NHSNumber string
	// BirthYear is the year of birth.
	BirthYear int
	// Hospital is the treating hospital id.
	Hospital string
	// Clinic is the cancer clinic type (breast, lung, ...).
	Clinic string
	// MDT is the multidisciplinary team id treating the patient.
	MDT string
	// Region is the hospital's region.
	Region string
}

// Tumour is one registered tumour.
type Tumour struct {
	ID        string
	PatientID string
	// Site is an ICD-10-style topography code, e.g. "C50.9".
	Site string
	// Stage is 1-4, or 0 when unstaged (incomplete).
	Stage int
	// Type is the record type attribute used in subscriptions
	// ("cancer" for confirmed cases, "screening" otherwise).
	Type string
}

// Treatment is one treatment row.
type Treatment struct {
	ID        string
	TumourID  string
	PatientID string
	// Kind is surgery, chemotherapy, radiotherapy or hormone.
	Kind string
	// Completed reports whether the treatment finished.
	Completed bool
}

// MDT describes one multidisciplinary team: a (hospital, clinic) pair in a
// region, mirroring the Listing 3 privilege rows keyed by hospital and
// clinic.
type MDT struct {
	ID       string
	Hospital string
	Clinic   string
	Region   string
}

// DB is the generated registry.
type DB struct {
	patients   []Patient
	tumours    []Tumour
	treatments []Treatment
	mdts       []MDT

	byMDT       map[string][]int // patient indexes per MDT id
	tumoursOf   map[string][]int
	treatsOf    map[string][]int
	mdtByID     map[string]MDT
	regionNames []string
}

// Config controls generation. The zero value is usable: it yields a small
// deterministic registry.
type Config struct {
	// Seed fixes the random stream; equal configs generate equal data.
	Seed int64
	// Patients is the number of patients; zero means 200.
	Patients int
	// Hospitals is the number of hospitals; zero means 4.
	Hospitals int
	// Regions is the number of regions; zero means 2.
	Regions int
	// MissingFieldRate is the probability (0..1) that an optional field
	// is blank; negative means 0.15.
	MissingFieldRate float64
}

func (c Config) withDefaults() Config {
	if c.Patients == 0 {
		c.Patients = 200
	}
	if c.Hospitals == 0 {
		c.Hospitals = 4
	}
	if c.Regions == 0 {
		c.Regions = 2
	}
	if c.MissingFieldRate < 0 {
		c.MissingFieldRate = 0.15
	} else if c.MissingFieldRate == 0 {
		c.MissingFieldRate = 0.15
	}
	return c
}

var (
	_clinics = []string{"breast", "colorectal", "lung", "skin"}
	_sites   = map[string][]string{
		"breast":     {"C50.1", "C50.4", "C50.9"},
		"colorectal": {"C18.2", "C18.7", "C20"},
		"lung":       {"C34.1", "C34.3", "C34.9"},
		"skin":       {"C43.5", "C43.7", "C44.3"},
	}
	_firstNames = []string{"John", "Mary", "Ahmed", "Grace", "Wei", "Elena", "Oluwaseun", "Padma", "Liam", "Sofia"}
	_lastNames  = []string{"Smith", "Jones", "Patel", "O'Brien", "Chen", "Kowalski", "Okafor", "Rossi", "Khan", "Taylor"}
	_kinds      = []string{"surgery", "chemotherapy", "radiotherapy", "hormone"}
)

// Generate builds a synthetic registry.
func Generate(cfg Config) *DB {
	cfg = cfg.withDefaults()
	rnd := rand.New(rand.NewSource(cfg.Seed))

	db := &DB{
		byMDT:     make(map[string][]int),
		tumoursOf: make(map[string][]int),
		treatsOf:  make(map[string][]int),
		mdtByID:   make(map[string]MDT),
	}

	for r := 0; r < cfg.Regions; r++ {
		db.regionNames = append(db.regionNames, fmt.Sprintf("region-%d", r+1))
	}

	// One MDT per (hospital, clinic).
	mdtSeq := 0
	for h := 0; h < cfg.Hospitals; h++ {
		hospital := fmt.Sprintf("hospital-%d", h+1)
		region := db.regionNames[h%cfg.Regions]
		for _, clinic := range _clinics {
			mdtSeq++
			m := MDT{
				ID:       fmt.Sprintf("mdt-%d", mdtSeq),
				Hospital: hospital,
				Clinic:   clinic,
				Region:   region,
			}
			db.mdts = append(db.mdts, m)
			db.mdtByID[m.ID] = m
		}
	}

	maybe := func(s string) string {
		if rnd.Float64() < cfg.MissingFieldRate {
			return ""
		}
		return s
	}

	for i := 0; i < cfg.Patients; i++ {
		m := db.mdts[rnd.Intn(len(db.mdts))]
		p := Patient{
			ID:        fmt.Sprintf("%08d", 30000000+rnd.Intn(9999999)*10+i%10),
			Name:      maybe(_firstNames[rnd.Intn(len(_firstNames))] + " " + _lastNames[rnd.Intn(len(_lastNames))]),
			NHSNumber: maybe(fmt.Sprintf("%010d", 4000000000+rnd.Int63n(999999999))),
			BirthYear: 1930 + rnd.Intn(70),
			Hospital:  m.Hospital,
			Clinic:    m.Clinic,
			MDT:       m.ID,
			Region:    m.Region,
		}
		db.byMDT[m.ID] = append(db.byMDT[m.ID], len(db.patients))
		db.patients = append(db.patients, p)

		nTumours := 1
		if rnd.Float64() < 0.1 {
			nTumours = 2
		}
		for tIdx := 0; tIdx < nTumours; tIdx++ {
			sites := _sites[m.Clinic]
			typ := "cancer"
			if rnd.Float64() < 0.2 {
				typ = "screening"
			}
			stage := 1 + rnd.Intn(4)
			if rnd.Float64() < cfg.MissingFieldRate {
				stage = 0 // unstaged: an incomplete record
			}
			tum := Tumour{
				ID:        fmt.Sprintf("t-%s-%d", p.ID, tIdx+1),
				PatientID: p.ID,
				Site:      sites[rnd.Intn(len(sites))],
				Stage:     stage,
				Type:      typ,
			}
			db.tumoursOf[p.ID] = append(db.tumoursOf[p.ID], len(db.tumours))
			db.tumours = append(db.tumours, tum)

			for k := 0; k < 1+rnd.Intn(2); k++ {
				tr := Treatment{
					ID:        fmt.Sprintf("tr-%s-%d", tum.ID, k+1),
					TumourID:  tum.ID,
					PatientID: p.ID,
					Kind:      _kinds[rnd.Intn(len(_kinds))],
					Completed: rnd.Float64() < 0.6,
				}
				db.treatsOf[p.ID] = append(db.treatsOf[p.ID], len(db.treatments))
				db.treatments = append(db.treatments, tr)
			}
		}
	}
	return db
}

// Register adds one patient and their tumours to the registry, as entered:
// nothing about the record is checked — the generated data is clean, real
// registry rows are not, and the units downstream must cope. It must not
// run concurrently with readers.
func (db *DB) Register(p Patient, tumours ...Tumour) {
	db.byMDT[p.MDT] = append(db.byMDT[p.MDT], len(db.patients))
	db.patients = append(db.patients, p)
	for _, t := range tumours {
		t.PatientID = p.ID
		db.tumoursOf[p.ID] = append(db.tumoursOf[p.ID], len(db.tumours))
		db.tumours = append(db.tumours, t)
	}
}

// Patients returns all patients.
func (db *DB) Patients() []Patient { return append([]Patient(nil), db.patients...) }

// PatientsByMDT returns the patients treated by the given MDT.
func (db *DB) PatientsByMDT(mdtID string) []Patient {
	idxs := db.byMDT[mdtID]
	out := make([]Patient, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, db.patients[i])
	}
	return out
}

// TumoursOf returns a patient's tumours.
func (db *DB) TumoursOf(patientID string) []Tumour {
	idxs := db.tumoursOf[patientID]
	out := make([]Tumour, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, db.tumours[i])
	}
	return out
}

// TreatmentsOf returns a patient's treatments.
func (db *DB) TreatmentsOf(patientID string) []Treatment {
	idxs := db.treatsOf[patientID]
	out := make([]Treatment, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, db.treatments[i])
	}
	return out
}

// MDTs returns all multidisciplinary teams.
func (db *DB) MDTs() []MDT { return append([]MDT(nil), db.mdts...) }

// MDTByID resolves an MDT id.
func (db *DB) MDTByID(id string) (MDT, bool) {
	m, ok := db.mdtByID[id]
	return m, ok
}

// Regions returns the region names.
func (db *DB) Regions() []string { return append([]string(nil), db.regionNames...) }

// Completeness scores how complete a patient's record is: the fraction of
// the checked fields (name, NHS number, staging of each tumour) that are
// present. The MDT portal's F2 metric aggregates this per MDT.
func (db *DB) Completeness(p Patient) float64 {
	checked, present := 0, 0
	checked++
	if p.Name != "" {
		present++
	}
	checked++
	if p.NHSNumber != "" {
		present++
	}
	for _, t := range db.TumoursOf(p.ID) {
		checked++
		if t.Stage > 0 {
			present++
		}
	}
	if checked == 0 {
		return 0
	}
	return float64(present) / float64(checked)
}
