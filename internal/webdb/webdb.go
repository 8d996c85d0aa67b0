// Package webdb implements the web frontend's local database (paper §5.1):
// "data specific to the web frontend, e.g. session and usage data, is
// stored separately in a local web database using the SQLite database
// engine." It also holds "user accounts and their label privileges".
//
// The store is an embedded, optionally file-persisted database with the
// tables the MDT portal needs: users (with salted password hashes), label
// privilege grants, the application-level privilege rows of Listing 3
// (u_id, hospital, clinic), sessions and a usage log. Keeping it separate
// from the application database isolates web session state from
// confidential application data, as the paper's deployment does.
package webdb

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"safeweb/internal/label"
)

// Common errors.
var (
	ErrUserExists   = errors.New("webdb: user already exists")
	ErrNoUser       = errors.New("webdb: no such user")
	ErrBadPassword  = errors.New("webdb: wrong password")
	ErrNoSession    = errors.New("webdb: no such session")
	ErrSessionStale = errors.New("webdb: session expired")
)

// User is a web frontend account.
type User struct {
	// ID is the numeric user id (Listing 3's u_id).
	ID int `json:"id"`
	// Username is the login name, unique.
	Username string `json:"username"`
	// Salt and PassHash store the salted SHA-256 credential.
	Salt     string `json:"salt"`
	PassHash string `json:"pass_hash"`
	// IsAdmin marks portal administrators (Listing 3's @is_admin).
	IsAdmin bool `json:"is_admin,omitempty"`
	// MDT is the user's multidisciplinary team id.
	MDT string `json:"mdt,omitempty"`
	// Region is the user's region, for regional aggregate access.
	Region string `json:"region,omitempty"`
}

// PrivilegeRow is the application-level privilege relation of Listing 3:
// one row grants the user access to one (hospital, clinic) combination.
type PrivilegeRow struct {
	UID      int    `json:"u_id"`
	Hospital string `json:"hospital"`
	Clinic   string `json:"clinic"`
}

// LabelGrant is one label-privilege grant for a user; the web frontend
// assembles each authenticated request's label.Privileges from these.
type LabelGrant struct {
	UID       int    `json:"u_id"`
	Privilege string `json:"privilege"` // "clearance", "declassify", ...
	Pattern   string `json:"pattern"`   // label URI or prefix pattern
}

// Session is a logged-in web session.
type Session struct {
	Token   string    `json:"token"`
	UID     int       `json:"u_id"`
	Created time.Time `json:"created"`
	Expires time.Time `json:"expires"`
}

// DB is the web database. It is safe for concurrent use.
type DB struct {
	mu          sync.RWMutex
	usersByName map[string]*User
	usersByID   map[int]*User
	privRows    []PrivilegeRow
	// grants is the persisted form of the label grants; privsByUID is the
	// same grants parsed and grouped by user, kept in step by GrantLabel
	// and Load so that a request's privilege fetch parses nothing.
	grants     []LabelGrant
	privsByUID map[int]*label.Privileges
	sessions   map[string]*Session
	usage      []UsageRecord
	nextUID    int
}

// UsageRecord is one usage-log entry.
type UsageRecord struct {
	Time     time.Time `json:"time"`
	Username string    `json:"username"`
	Path     string    `json:"path"`
	Status   int       `json:"status"`
}

// New creates an empty web database.
func New() *DB {
	return &DB{
		usersByName: make(map[string]*User),
		usersByID:   make(map[int]*User),
		privsByUID:  make(map[int]*label.Privileges),
		sessions:    make(map[string]*Session),
	}
}

// hashPassword derives the stored hash for a password and salt.
func hashPassword(salt, password string) string {
	sum := sha256.Sum256([]byte(salt + ":" + password))
	return hex.EncodeToString(sum[:])
}

func randomHex(n int) string {
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		// crypto/rand failure means the platform RNG is broken; there is
		// no meaningful fallback for credential material.
		panic(fmt.Sprintf("webdb: crypto/rand: %v", err))
	}
	return hex.EncodeToString(buf)
}

// CreateUser adds a user with the given password.
func (db *DB) CreateUser(username, password string, opts ...UserOption) (*User, error) {
	if username == "" {
		return nil, errors.New("webdb: empty username")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.usersByName[username]; dup {
		return nil, fmt.Errorf("%w: %q", ErrUserExists, username)
	}
	db.nextUID++
	salt := randomHex(16)
	u := &User{
		ID:       db.nextUID,
		Username: username,
		Salt:     salt,
		PassHash: hashPassword(salt, password),
	}
	for _, opt := range opts {
		opt(u)
	}
	db.usersByName[username] = u
	db.usersByID[u.ID] = u
	return cloneUser(u), nil
}

// UserOption configures a new user.
type UserOption func(*User)

// WithAdmin marks the user as an administrator.
func WithAdmin() UserOption { return func(u *User) { u.IsAdmin = true } }

// WithMDT sets the user's MDT and region.
func WithMDT(mdt, region string) UserOption {
	return func(u *User) {
		u.MDT = mdt
		u.Region = region
	}
}

// Authenticate verifies credentials with an exact, constant-time
// comparison and returns the user.
func (db *DB) Authenticate(username, password string) (*User, error) {
	db.mu.RLock()
	u := db.usersByName[username]
	db.mu.RUnlock()
	if u == nil {
		// Burn a hash anyway so probe timing does not reveal whether the
		// account exists.
		_ = hashPassword("no-such-user", password)
		return nil, fmt.Errorf("%w: %q", ErrNoUser, username)
	}
	want := u.PassHash
	got := hashPassword(u.Salt, password)
	if subtle.ConstantTimeCompare([]byte(want), []byte(got)) != 1 {
		return nil, ErrBadPassword
	}
	return cloneUser(u), nil
}

// FindUser looks a user up by exact username.
func (db *DB) FindUser(username string) (*User, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	u := db.usersByName[username]
	if u == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoUser, username)
	}
	return cloneUser(u), nil
}

// FindUserFold looks a user up ignoring ASCII case. It exists only to
// support the §5.2 "errors in access checks" experiment, which injects a
// case-insensitive user lookup (usernames mdt1 vs MDT1 sharing
// privileges); production code must use FindUser.
func (db *DB) FindUserFold(username string) (*User, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	// Deliberately no exact-match preference: a SQL LOWER(username) =
	// LOWER(?) lookup has none either, which is precisely how the
	// mdt1/MDT1 confusion arises. Deterministic order keeps the injected
	// bug reproducible.
	names := make([]string, 0, len(db.usersByName))
	for name := range db.usersByName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.EqualFold(name, username) {
			return cloneUser(db.usersByName[name]), nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrNoUser, username)
}

// FindUserByID looks a user up by id.
func (db *DB) FindUserByID(id int) (*User, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	u := db.usersByID[id]
	if u == nil {
		return nil, fmt.Errorf("%w: id %d", ErrNoUser, id)
	}
	return cloneUser(u), nil
}

func cloneUser(u *User) *User {
	out := *u
	return &out
}

// ---- application privilege rows (Listing 3) ----

// AddPrivilegeRow inserts a (u_id, hospital, clinic) privilege row.
func (db *DB) AddPrivilegeRow(row PrivilegeRow) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.privRows = append(db.privRows, row)
}

// PrivilegeCond filters privilege rows; zero-valued fields match anything.
type PrivilegeCond struct {
	UID      int
	Hospital string
	Clinic   string
}

// CountPrivileges counts rows matching the condition — the query in
// Listing 3: Privileges.count(:conditions => {:u_id, :hospital, :clinic}).
func (db *DB) CountPrivileges(cond PrivilegeCond) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, row := range db.privRows {
		if cond.UID != 0 && row.UID != cond.UID {
			continue
		}
		if cond.Hospital != "" && row.Hospital != cond.Hospital {
			continue
		}
		if cond.Clinic != "" && row.Clinic != cond.Clinic {
			continue
		}
		n++
	}
	return n
}

// ---- label privileges ----

// GrantLabel records a label-privilege grant for a user.
func (db *DB) GrantLabel(uid int, priv label.Privilege, pattern label.Pattern) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.grants = append(db.grants, LabelGrant{
		UID:       uid,
		Privilege: priv.String(),
		Pattern:   pattern.String(),
	})
	db.indexGrant(uid, priv, pattern)
}

// indexGrant files a grant under its user. The caller holds db.mu.
func (db *DB) indexGrant(uid int, priv label.Privilege, pattern label.Pattern) {
	privs := db.privsByUID[uid]
	if privs == nil {
		privs = label.NewPrivileges()
		db.privsByUID[uid] = privs
	}
	privs.Grant(priv, pattern)
}

// PrivilegesOf returns the label privileges of a user, assembled from its
// grants. This is the "user's privileges" fetched in step 1 of Fig. 3. The
// result is the caller's own copy. The error is always nil — grants are
// parsed when they are made or loaded — and stays in the signature for the
// callers that check it.
func (db *DB) PrivilegesOf(uid int) (*label.Privileges, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.privsByUID[uid].Clone(), nil
}

// ---- sessions ----

// CreateSession opens a session for the user with the given lifetime.
func (db *DB) CreateSession(uid int, ttl time.Duration) *Session {
	now := time.Now()
	s := &Session{
		Token:   randomHex(24),
		UID:     uid,
		Created: now,
		Expires: now.Add(ttl),
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.sessions[s.Token] = s
	return s
}

// GetSession resolves and validates a session token.
func (db *DB) GetSession(token string) (*Session, error) {
	db.mu.RLock()
	s := db.sessions[token]
	db.mu.RUnlock()
	if s == nil {
		return nil, ErrNoSession
	}
	if time.Now().After(s.Expires) {
		db.mu.Lock()
		delete(db.sessions, token)
		db.mu.Unlock()
		return nil, ErrSessionStale
	}
	out := *s
	return &out, nil
}

// DeleteSession logs a session out.
func (db *DB) DeleteSession(token string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.sessions, token)
}

// ---- usage log ----

// LogUsage appends a usage record.
func (db *DB) LogUsage(rec UsageRecord) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.usage = append(db.usage, rec)
}

// Usage returns a copy of the usage log.
func (db *DB) Usage() []UsageRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]UsageRecord(nil), db.usage...)
}

// ---- persistence ----

// fileImage is the JSON on-disk representation.
type fileImage struct {
	Users    []*User        `json:"users"`
	PrivRows []PrivilegeRow `json:"privilege_rows"`
	Grants   []LabelGrant   `json:"label_grants"`
	NextUID  int            `json:"next_uid"`
}

// Save writes the database (excluding sessions and usage, which are
// ephemeral) to path.
func (db *DB) Save(path string) error {
	db.mu.RLock()
	img := fileImage{
		PrivRows: append([]PrivilegeRow(nil), db.privRows...),
		Grants:   append([]LabelGrant(nil), db.grants...),
		NextUID:  db.nextUID,
	}
	for _, u := range db.usersByID {
		img.Users = append(img.Users, cloneUser(u))
	}
	db.mu.RUnlock()
	sort.Slice(img.Users, func(i, j int) bool { return img.Users[i].ID < img.Users[j].ID })

	data, err := json.MarshalIndent(img, "", "  ")
	if err != nil {
		return fmt.Errorf("webdb: encode: %w", err)
	}
	if err := os.WriteFile(path, data, 0o600); err != nil {
		return fmt.Errorf("webdb: save: %w", err)
	}
	return nil
}

// Load reads a database image from path.
func Load(path string) (*DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("webdb: load: %w", err)
	}
	var img fileImage
	if err := json.Unmarshal(data, &img); err != nil {
		return nil, fmt.Errorf("webdb: decode: %w", err)
	}
	db := New()
	db.nextUID = img.NextUID
	db.privRows = img.PrivRows
	db.grants = img.Grants
	for _, g := range img.Grants {
		priv, err := label.ParsePrivilege(g.Privilege)
		if err != nil {
			return nil, fmt.Errorf("webdb: grant for uid %d: %w", g.UID, err)
		}
		pattern, err := label.ParsePattern(g.Pattern)
		if err != nil {
			return nil, fmt.Errorf("webdb: grant for uid %d: %w", g.UID, err)
		}
		db.indexGrant(g.UID, priv, pattern)
	}
	for _, u := range img.Users {
		db.usersByName[u.Username] = u
		db.usersByID[u.ID] = u
	}
	return db, nil
}
