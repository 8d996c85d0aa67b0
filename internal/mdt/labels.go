// Package mdt implements the MDT web portal application of the paper's
// evaluation (§5.1): the SafeWeb application that feeds cancer-registry
// data back to hospital multidisciplinary teams.
//
// The application consists of the paper's three event processing units —
// a privileged data producer reading the main registry, a non-privileged
// data aggregator combining case events, and a privileged data storage
// unit persisting labelled records to the application database — plus the
// web frontend routes satisfying functional requirements F1–F3 under
// security policy P1.
package mdt

import (
	"safeweb/internal/label"
	"safeweb/internal/maindb"
)

// Label scheme enforcing policy P1 (§2.1):
//
//   - Patient-level records carry the treating MDT's label; "details about
//     patients can be consulted only by members of the MDT that treats
//     them." (The paper's deployment "uses only MDT-level labels as these
//     are sufficient", §5.1.)
//   - MDT-level aggregates carry a per-region aggregate label; they "can
//     be consulted by all MDTs in the same region."
//   - Regional-level aggregates carry the regional label; they "can be
//     seen by all MDTs."
const (
	// Authority is the label authority for the deployment.
	Authority = "ecric.org.uk"
	// IntegrityName is the application integrity label name (the paper's
	// label:int:ecric.org.uk/mdt example).
	IntegrityName = Authority + "/mdt"
)

// MDTLabel protects the patient-level data of one MDT. Like every builder
// here it panics (label.New) on an id no label name can carry; callers
// holding ids from record data check label.ValidName first, as the
// producer unit and ProvisionUsers do.
func MDTLabel(mdtID string) label.Label {
	return label.Conf(Authority + "/mdt/" + mdtID)
}

// PatientLabel protects a single patient's data (finer granularity than
// the deployment uses by default, available to applications that need it).
func PatientLabel(patientID string) label.Label {
	return label.Conf(Authority + "/patient/" + patientID)
}

// RegionAggLabel protects MDT-level aggregates within a region.
func RegionAggLabel(region string) label.Label {
	return label.Conf(Authority + "/region/" + region + "/mdt-agg")
}

// RegionalAggLabel protects regional-level aggregates (visible to all
// MDTs).
func RegionalAggLabel() label.Label {
	return label.Conf(Authority + "/regional-agg")
}

// IntegrityLabel is the application-wide integrity label.
func IntegrityLabel() label.Label {
	return label.Int(IntegrityName)
}

// Unit principal names.
const (
	ProducerName   = "mdt-data-producer"
	AggregatorName = "mdt-data-aggregator"
	StorageName    = "mdt-data-storage"
)

// BuildPolicy constructs the unit policy for the MDT application:
//
//   - the producer is privileged (it performs I/O against the main
//     registry) and endorses the application integrity label;
//   - the aggregator is NOT privileged — it is the large, unaudited
//     component whose bugs SafeWeb contains — and holds clearance for all
//     MDT labels so it can combine case data;
//   - the storage unit is privileged ("has declassification privileges
//     for all MDTs", §5.1) and holds clearance for everything it stores.
func BuildPolicy(db *maindb.DB) *label.Policy {
	p := label.NewPolicy()

	allConf := label.MustParsePattern("label:conf:" + Authority + "/*")
	allInt := label.MustParsePattern("label:int:" + Authority + "/*")

	p.SetPrincipal(ProducerName, label.NewPrivileges().
		Grant(label.Clearance, allConf).
		Grant(label.Endorse, allInt), true)

	// The aggregator is delegated endorsement over the application
	// integrity label so it may re-publish derived events that carry it
	// (§3: "the creator of an integrity label delegates to other
	// components an endorsement privilege to add this label to data").
	// Fragile-integrity composition still governs whether the label is
	// present at all.
	p.SetPrincipal(AggregatorName, label.NewPrivileges().
		Grant(label.Clearance, allConf).
		Grant(label.Endorse, allInt), false)

	p.SetPrincipal(StorageName, label.NewPrivileges().
		Grant(label.Clearance, allConf).
		Grant(label.Declassify, allConf).
		Grant(label.Endorse, allInt), true)

	return p
}

// UserClearance returns the label privileges of a portal user belonging to
// the given MDT: clearance for the MDT's own label, the region's MDT
// aggregates, and regional aggregates — exactly policy P1.
func UserClearance(m maindb.MDT) *label.Privileges {
	return label.NewPrivileges().
		GrantLabel(label.Clearance, MDTLabel(m.ID)).
		GrantLabel(label.Clearance, RegionAggLabel(m.Region)).
		GrantLabel(label.Clearance, RegionalAggLabel())
}
