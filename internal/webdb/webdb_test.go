package webdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"safeweb/internal/label"
)

func TestCreateAndAuthenticate(t *testing.T) {
	db := New()
	u, err := db.CreateUser("mdt1", "secret", WithMDT("mdt-1", "region-1"))
	if err != nil {
		t.Fatalf("CreateUser: %v", err)
	}
	if u.ID != 1 || u.MDT != "mdt-1" || u.Region != "region-1" || u.IsAdmin {
		t.Errorf("user = %+v", u)
	}

	got, err := db.Authenticate("mdt1", "secret")
	if err != nil {
		t.Fatalf("Authenticate: %v", err)
	}
	if got.ID != u.ID {
		t.Errorf("authenticated id = %d", got.ID)
	}
	if _, err := db.Authenticate("mdt1", "wrong"); !errors.Is(err, ErrBadPassword) {
		t.Errorf("wrong password: %v", err)
	}
	if _, err := db.Authenticate("nobody", "x"); !errors.Is(err, ErrNoUser) {
		t.Errorf("unknown user: %v", err)
	}
	if _, err := db.CreateUser("mdt1", "again"); !errors.Is(err, ErrUserExists) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := db.CreateUser("", "x"); err == nil {
		t.Error("empty username accepted")
	}
}

func TestAdminOption(t *testing.T) {
	db := New()
	u, err := db.CreateUser("root", "pw", WithAdmin())
	if err != nil {
		t.Fatal(err)
	}
	if !u.IsAdmin {
		t.Error("admin flag lost")
	}
}

func TestFindUserExactVsFold(t *testing.T) {
	db := New()
	// The §5.2 "errors in access checks" scenario: two distinct accounts
	// whose names differ only by case.
	if _, err := db.CreateUser("mdt1", "pw1", WithMDT("mdt-1", "region-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateUser("MDT1", "pw2", WithMDT("mdt-2", "region-1")); err != nil {
		t.Fatal(err)
	}

	exact, err := db.FindUser("MDT1")
	if err != nil || exact.MDT != "mdt-2" {
		t.Errorf("FindUser(MDT1) = %+v, %v", exact, err)
	}
	if _, err := db.FindUser("Mdt1"); !errors.Is(err, ErrNoUser) {
		t.Errorf("FindUser(Mdt1): %v", err)
	}
	// The folding variant conflates them — that is the injected bug.
	folded, err := db.FindUserFold("Mdt1")
	if err != nil {
		t.Fatalf("FindUserFold: %v", err)
	}
	if folded.MDT != "mdt-2" && folded.MDT != "mdt-1" {
		t.Errorf("folded = %+v", folded)
	}
	if _, err := db.FindUserFold("zzz"); !errors.Is(err, ErrNoUser) {
		t.Errorf("FindUserFold(zzz): %v", err)
	}
}

func TestFindUserByID(t *testing.T) {
	db := New()
	u, _ := db.CreateUser("a", "pw")
	got, err := db.FindUserByID(u.ID)
	if err != nil || got.Username != "a" {
		t.Errorf("FindUserByID = %+v, %v", got, err)
	}
	if _, err := db.FindUserByID(99); !errors.Is(err, ErrNoUser) {
		t.Errorf("missing id: %v", err)
	}
}

func TestPrivilegeRows(t *testing.T) {
	db := New()
	db.AddPrivilegeRow(PrivilegeRow{UID: 1, Hospital: "hospital-1", Clinic: "breast"})
	db.AddPrivilegeRow(PrivilegeRow{UID: 1, Hospital: "hospital-1", Clinic: "lung"})
	db.AddPrivilegeRow(PrivilegeRow{UID: 2, Hospital: "hospital-2", Clinic: "breast"})

	// Listing 3's query shape.
	if n := db.CountPrivileges(PrivilegeCond{UID: 1, Hospital: "hospital-1", Clinic: "breast"}); n != 1 {
		t.Errorf("full cond = %d", n)
	}
	// The §5.2 "inappropriate access checks" bug: dropping the clinic
	// condition makes any same-hospital row match.
	if n := db.CountPrivileges(PrivilegeCond{UID: 1, Hospital: "hospital-1"}); n != 2 {
		t.Errorf("no clinic cond = %d", n)
	}
	if n := db.CountPrivileges(PrivilegeCond{UID: 3}); n != 0 {
		t.Errorf("unknown uid = %d", n)
	}
}

func TestLabelPrivileges(t *testing.T) {
	db := New()
	u, _ := db.CreateUser("doc", "pw")
	mdtLabel := label.Conf("ecric.org.uk/mdt/7")
	db.GrantLabel(u.ID, label.Clearance, label.Exact(mdtLabel))
	db.GrantLabel(u.ID, label.Declassify, label.MustParsePattern("label:conf:ecric.org.uk/mdt/7"))

	privs, err := db.PrivilegesOf(u.ID)
	if err != nil {
		t.Fatalf("PrivilegesOf: %v", err)
	}
	if !privs.Has(label.Clearance, mdtLabel) || !privs.Has(label.Declassify, mdtLabel) {
		t.Error("granted privileges missing")
	}
	if privs.Has(label.Clearance, label.Conf("ecric.org.uk/mdt/8")) {
		t.Error("ungranted privilege held")
	}
	// Unknown user: empty privileges, no error.
	empty, err := db.PrivilegesOf(999)
	if err != nil || empty.Has(label.Clearance, mdtLabel) {
		t.Errorf("unknown uid privileges: %v %v", empty, err)
	}
}

func TestSessions(t *testing.T) {
	db := New()
	u, _ := db.CreateUser("a", "pw")

	s := db.CreateSession(u.ID, time.Hour)
	if s.Token == "" || s.UID != u.ID {
		t.Errorf("session = %+v", s)
	}
	got, err := db.GetSession(s.Token)
	if err != nil || got.UID != u.ID {
		t.Errorf("GetSession = %+v, %v", got, err)
	}
	if _, err := db.GetSession("bogus"); !errors.Is(err, ErrNoSession) {
		t.Errorf("bogus token: %v", err)
	}

	expired := db.CreateSession(u.ID, -time.Second)
	if _, err := db.GetSession(expired.Token); !errors.Is(err, ErrSessionStale) {
		t.Errorf("expired: %v", err)
	}

	db.DeleteSession(s.Token)
	if _, err := db.GetSession(s.Token); !errors.Is(err, ErrNoSession) {
		t.Errorf("after delete: %v", err)
	}
}

func TestUsageLog(t *testing.T) {
	db := New()
	db.LogUsage(UsageRecord{Username: "a", Path: "/records/7", Status: 200})
	db.LogUsage(UsageRecord{Username: "b", Path: "/records/8", Status: 403})
	usage := db.Usage()
	if len(usage) != 2 || usage[1].Status != 403 {
		t.Errorf("usage = %+v", usage)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := New()
	u, _ := db.CreateUser("mdt1", "secret", WithMDT("mdt-1", "region-1"))
	db.AddPrivilegeRow(PrivilegeRow{UID: u.ID, Hospital: "hospital-1", Clinic: "breast"})
	db.GrantLabel(u.ID, label.Clearance, label.MustParsePattern("label:conf:ecric.org.uk/mdt/1"))

	path := filepath.Join(t.TempDir(), "web.json")
	if err := db.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	// Credentials survive the round trip.
	if _, err := back.Authenticate("mdt1", "secret"); err != nil {
		t.Errorf("Authenticate after load: %v", err)
	}
	if n := back.CountPrivileges(PrivilegeCond{UID: u.ID}); n != 1 {
		t.Errorf("privilege rows after load = %d", n)
	}
	privs, err := back.PrivilegesOf(u.ID)
	if err != nil || !privs.Has(label.Clearance, label.Conf("ecric.org.uk/mdt/1")) {
		t.Errorf("label grants after load: %v", err)
	}
	// New ids continue after the highest loaded id.
	u2, err := back.CreateUser("next", "pw")
	if err != nil || u2.ID != u.ID+1 {
		t.Errorf("next uid = %+v, %v", u2, err)
	}

	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("Load missing succeeded")
	}
}

// TestLabelGrantsIndexed: grants are parsed when they are made or loaded
// and kept per user, so a privilege fetch costs the same however many
// accounts there are; what it returns is the caller's own copy; and a
// snapshot with a grant that does not parse is refused at Load rather than
// at some later request.
func TestLabelGrantsIndexed(t *testing.T) {
	db := New()
	var users []*User
	for i := 0; i < 40; i++ {
		u, err := db.CreateUser(fmt.Sprintf("mdt-%d", i), "pw")
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, u)
		db.GrantLabel(u.ID, label.Clearance, label.Exact(label.Conf(fmt.Sprintf("ecric.org.uk/mdt/%d", i))))
		db.GrantLabel(u.ID, label.Clearance, label.MustParsePattern(fmt.Sprintf("label:conf:ecric.org.uk/region/%d/*", i%4)))
		db.GrantLabel(u.ID, label.Declassify, label.Exact(label.Conf(fmt.Sprintf("ecric.org.uk/mdt/%d", i))))
	}
	check := func(db *DB) {
		t.Helper()
		for i, u := range users {
			privs, err := db.PrivilegesOf(u.ID)
			if err != nil {
				t.Fatal(err)
			}
			own, other := label.Conf(fmt.Sprintf("ecric.org.uk/mdt/%d", i)), label.Conf(fmt.Sprintf("ecric.org.uk/mdt/%d", (i+1)%40))
			if !privs.Has(label.Clearance, own) || !privs.Has(label.Declassify, own) ||
				!privs.Has(label.Clearance, label.Conf(fmt.Sprintf("ecric.org.uk/region/%d/mdt-agg", i%4))) {
				t.Errorf("%s lacks a granted privilege", u.Username)
			}
			if privs.Has(label.Clearance, other) || privs.Has(label.Endorse, own) ||
				len(privs.Patterns(label.Clearance)) != 2 || len(privs.Patterns(label.Declassify)) != 1 {
				t.Errorf("%s holds a privilege it was not granted: %v", u.Username, privs.Patterns(label.Clearance))
			}
			// The result is the caller's: granting on it reaches nobody.
			privs.Grant(label.Clearance, label.Exact(other))
			if again, _ := db.PrivilegesOf(u.ID); again.Has(label.Clearance, other) {
				t.Fatalf("a grant on PrivilegesOf's result of %s stuck", u.Username)
			}
		}
	}
	check(db)
	if n := testing.AllocsPerRun(100, func() { _, _ = db.PrivilegesOf(users[39].ID) }); n > 6 {
		t.Errorf("PrivilegesOf among 40 accounts allocs/op = %v, want <= 6", n)
	}

	path := filepath.Join(t.TempDir(), "web.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	check(back)
	// The persisted form stays the strings.
	raw, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(raw), `"privilege": "clearance"`) ||
		!strings.Contains(string(raw), `"pattern": "label:conf:ecric.org.uk/region/3/*"`) {
		t.Errorf("snapshot does not hold the grants as strings (err %v)", err)
	}
	for _, bad := range []string{
		strings.Replace(string(raw), `"privilege": "declassify"`, `"privilege": "omnipotence"`, 1),
		strings.Replace(string(raw), `"pattern": "label:conf:ecric.org.uk/mdt/0"`, `"pattern": "conf:ecric.org.uk/mdt/0"`, 1),
	} {
		if bad == string(raw) {
			t.Fatal("the snapshot was not corrupted")
		}
		if err := os.WriteFile(path, []byte(bad), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "grant for uid") {
			t.Errorf("Load of a snapshot with a malformed grant: %v", err)
		}
	}
}
