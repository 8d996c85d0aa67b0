package jail

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

func TestNonPrivilegedDeniedAndAudited(t *testing.T) {
	audit := &Audit{}
	j := New("aggregator", false, audit)

	if j.Privileged() {
		t.Error("non-privileged jail reports privileged")
	}
	if j.Unit() != "aggregator" {
		t.Errorf("Unit = %q", j.Unit())
	}

	if _, err := j.FS().Open("/etc/passwd"); !errors.Is(err, ErrForbidden) {
		t.Errorf("Open err = %v, want ErrForbidden", err)
	}
	if _, err := j.FS().Create("/tmp/x"); !errors.Is(err, ErrForbidden) {
		t.Errorf("Create err = %v", err)
	}
	if _, err := j.FS().ReadFile("/tmp/x"); !errors.Is(err, ErrForbidden) {
		t.Errorf("ReadFile err = %v", err)
	}
	if err := j.FS().WriteFile("/tmp/x", nil, 0o600); !errors.Is(err, ErrForbidden) {
		t.Errorf("WriteFile err = %v", err)
	}
	if _, err := j.Env().Get("PATH"); !errors.Is(err, ErrForbidden) {
		t.Errorf("Env err = %v", err)
	}
	if err := j.Exec("rm"); !errors.Is(err, ErrForbidden) {
		t.Errorf("Exec err = %v", err)
	}

	violations := audit.Violations()
	if len(violations) != 6 {
		t.Fatalf("audit has %d violations, want 6", len(violations))
	}
	if violations[0].Unit != "aggregator" || violations[0].Op != "fs.open" || violations[0].Detail != "/etc/passwd" {
		t.Errorf("first violation = %+v", violations[0])
	}
	if violations[0].Time.IsZero() {
		t.Error("violation time not set")
	}
}

func TestPrivilegedAllowed(t *testing.T) {
	audit := &Audit{}
	j := New("data-storage", true, audit)

	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")

	if err := j.FS().WriteFile(path, []byte("data"), 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := j.FS().ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(data) != "data" {
		t.Errorf("read back %q", data)
	}

	f, err := j.FS().Create(filepath.Join(dir, "c.txt"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := j.FS().Open(filepath.Join(dir, "c.txt"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	_ = r.Close()

	if _, err := j.Env().Get("PATH"); err != nil {
		t.Errorf("Env.Get: %v", err)
	}
	if err := j.Exec("anything"); err != nil {
		t.Errorf("Exec: %v", err)
	}
	if audit.Len() != 0 {
		t.Errorf("privileged ops were audited as violations: %v", audit.Violations())
	}
}

func TestPrivilegedErrorsWrapOS(t *testing.T) {
	j := New("u", true, nil)
	if _, err := j.FS().Open(filepath.Join(t.TempDir(), "missing")); err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Open missing = %v, want wrapped ErrNotExist", err)
	}
	if _, err := j.FS().ReadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("ReadFile missing succeeded")
	}
}

func TestNilAuditAllocates(t *testing.T) {
	j := New("u", false, nil)
	_ = j.Exec("x")
	if j.Audit().Len() != 1 {
		t.Error("private audit did not record")
	}
}

func TestAuditConcurrency(t *testing.T) {
	audit := &Audit{}
	j := New("u", false, audit)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				_ = j.Exec("x")
			}
		}()
	}
	wg.Wait()
	if audit.Len() != 1000 {
		t.Errorf("audit len = %d, want 1000", audit.Len())
	}
}

// TestAuditRingBounded: a million denials leave the heap flat; the audit
// keeps the newest RingCap, oldest first, and counts every drop.
func TestAuditRingBounded(t *testing.T) {
	const n = 1_000_000
	audit := &Audit{}
	record := func(i int) {
		audit.Record(Violation{Unit: "u", Op: "net.dial", Detail: strconv.Itoa(i)})
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for i := 0; i < RingCap; i++ {
		record(i)
	}
	before := heap()
	for i := RingCap; i < n; i++ {
		record(i)
	}
	if grown := heap() - before; grown > 1<<20 {
		t.Errorf("heap grew %d bytes over %d denials, want flat", grown, n-RingCap)
	}
	if got := audit.Dropped(); got != n-RingCap {
		t.Errorf("Dropped = %d, want %d", got, n-RingCap)
	}
	v := audit.Violations()
	if len(v) != RingCap || audit.Len() != RingCap {
		t.Fatalf("kept %d violations, Len %d, want %d", len(v), audit.Len(), RingCap)
	}
	if v[0].Detail != strconv.Itoa(n-RingCap) || v[RingCap-1].Detail != strconv.Itoa(n-1) {
		t.Errorf("kept %s..%s, want the newest %d oldest first", v[0].Detail, v[RingCap-1].Detail, RingCap)
	}
}
