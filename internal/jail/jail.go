// Package jail implements the engine's "IFC jail" (paper §4.3, Fig. 2):
// the isolation boundary around event processing units.
//
// The paper uses Ruby's $SAFE=4 safe level, which irreversibly blocks I/O
// and global mutation on the callback's thread. Go has no equivalent
// runtime switch, so the jail is capability-based: unit callbacks receive
// only a restricted context interface, and every capability SafeWeb exposes
// for environment access is routed through a Jail that grants it only to
// privileged units. The threat model is identical to the paper's — code is
// buggy but not deliberately malicious (§3.2); a unit that directly calls
// os.Open bypasses the jail exactly as a Ruby unit exploiting a $SAFE
// escape would.
//
// Every denied operation is recorded in an Audit, so integration tests and
// deployments can verify that non-privileged units never attempt I/O. An
// audit log keeps what anyone able to provoke a denial can grow at will,
// so it is a Ring: the newest RingCap entries, and a count of the rest.
package jail

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// ErrForbidden is returned for operations denied by the jail.
var ErrForbidden = errors.New("jail: operation forbidden in isolated unit")

// Violation records one denied operation attempt.
type Violation struct {
	// Unit is the unit that attempted the operation.
	Unit string
	// Op names the operation, e.g. "fs.open" or "net.dial".
	Op string
	// Detail carries operation arguments, e.g. the path or address.
	Detail string
	// Time is when the attempt happened.
	Time time.Time
}

// RingCap is the number of entries a Ring keeps.
const RingCap = 1024

// Ring is a fixed-capacity audit log: it keeps the newest RingCap entries
// and counts every older one it drops, so no drop is silent. It is safe
// for concurrent use. The zero value is ready to use.
type Ring[T any] struct {
	mu      sync.Mutex
	buf     []T // grows to RingCap, then next is the oldest entry
	next    int
	dropped uint64
}

// Add records v, dropping the oldest entry when the ring is full.
func (r *Ring[T]) Add(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < RingCap {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % RingCap
	r.dropped++
}

// Entries returns a copy of the kept entries, oldest first.
func (r *Ring[T]) Entries() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append(make([]T, 0, len(r.buf)), r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Len returns the number of kept entries.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns the number of entries dropped to keep the ring bounded.
func (r *Ring[T]) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Audit collects jail violations in a Ring. It is safe for concurrent
// use. The zero value is ready to use.
type Audit struct {
	violations Ring[Violation]
}

// Record appends a violation.
func (a *Audit) Record(v Violation) { a.violations.Add(v) }

// Violations returns a copy of the kept violations, oldest first.
func (a *Audit) Violations() []Violation { return a.violations.Entries() }

// Len returns the number of kept violations.
func (a *Audit) Len() int { return a.violations.Len() }

// Dropped returns the number of violations dropped from the audit.
func (a *Audit) Dropped() uint64 { return a.violations.Dropped() }

// Jail mediates a unit's access to the environment. A privileged jail
// (paper: units running at $SAFE=0) grants everything; a non-privileged
// jail denies I/O and records the attempt.
type Jail struct {
	unit       string
	privileged bool
	audit      *Audit
}

// New creates a jail for the named unit. audit may be shared across jails;
// nil allocates a private one.
func New(unit string, privileged bool, audit *Audit) *Jail {
	if audit == nil {
		audit = &Audit{}
	}
	return &Jail{unit: unit, privileged: privileged, audit: audit}
}

// Unit returns the jailed unit's name.
func (j *Jail) Unit() string { return j.unit }

// Privileged reports whether the jail grants environment access.
func (j *Jail) Privileged() bool { return j.privileged }

// Audit returns the jail's audit log.
func (j *Jail) Audit() *Audit { return j.audit }

// Check authorises an operation, recording a violation on denial.
func (j *Jail) Check(op, detail string) error {
	if j.privileged {
		return nil
	}
	j.audit.Record(Violation{Unit: j.unit, Op: op, Detail: detail, Time: time.Now()})
	return fmt.Errorf("%w: unit %q attempted %s(%s)", ErrForbidden, j.unit, op, detail)
}

// FS returns a filesystem capability gated by the jail. Non-privileged
// units receive a capability whose every method fails.
func (j *Jail) FS() FS { return FS{jail: j} }

// FS is a jail-gated filesystem capability. SafeWeb units that genuinely
// need disk access (e.g. the data storage unit persisting to the
// application database) must be declared privileged in the policy file and
// use this capability, which keeps the audit trail complete.
type FS struct {
	jail *Jail
}

// Open opens a file for reading.
func (f FS) Open(path string) (io.ReadCloser, error) {
	if err := f.jail.Check("fs.open", path); err != nil {
		return nil, err
	}
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("jail: open: %w", err)
	}
	return file, nil
}

// Create creates or truncates a file for writing.
func (f FS) Create(path string) (io.WriteCloser, error) {
	if err := f.jail.Check("fs.create", path); err != nil {
		return nil, err
	}
	file, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("jail: create: %w", err)
	}
	return file, nil
}

// ReadFile reads an entire file.
func (f FS) ReadFile(path string) ([]byte, error) {
	if err := f.jail.Check("fs.read", path); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("jail: read: %w", err)
	}
	return data, nil
}

// WriteFile writes an entire file.
func (f FS) WriteFile(path string, data []byte, perm os.FileMode) error {
	if err := f.jail.Check("fs.write", path); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, perm); err != nil {
		return fmt.Errorf("jail: write: %w", err)
	}
	return nil
}

// Env returns an environment-variable capability gated by the jail.
func (j *Jail) Env() Env { return Env{jail: j} }

// Env is a jail-gated process-environment capability.
type Env struct {
	jail *Jail
}

// Get reads an environment variable.
func (e Env) Get(key string) (string, error) {
	if err := e.jail.Check("env.get", key); err != nil {
		return "", err
	}
	return os.Getenv(key), nil
}

// Exec returns a capability for checking exec permission. SafeWeb never
// executes subprocesses itself, but units ported from shell-invoking code
// go through this gate so attempts show up in the audit.
func (j *Jail) Exec(name string) error {
	return j.Check("exec", name)
}
