package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The crash-recovery matrix: every way a crash can tear the log —
// mid-append truncation, flipped bits, a zeroed tail, a torn ack log, an
// empty just-rolled segment — reopened and verified to recover to exactly
// the committed prefix, with acked offsets intact. The broker-level
// resume-after-restart test lives in package broker; this matrix owns the
// file-format corner cases.

// fillJournal writes n records into dir with small segments and returns
// the segment file paths in order.
func fillJournal(t *testing.T, dir string, n int) []string {
	t.Helper()
	j, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustAppend(t, j, testRecord(i))
	}
	if err := j.Ack("g", int64(n/2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("test needs multiple segments, got %v", names)
	}
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = filepath.Join(dir, name)
	}
	return paths
}

// lastSegmentRecords returns how many records the reopened journal holds
// and verifies every one of them reads back intact.
func verifyRecovered(t *testing.T, dir string, wantAcked int64) int64 {
	t.Helper()
	j, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer j.Close()
	end := j.NextOffset()
	var rec Record
	for i := int64(0); i < end; i++ {
		if err := j.Read(i, &rec); err != nil {
			t.Fatalf("recovered Read %d: %v", i, err)
		}
	}
	if got := j.Acked("g"); got != wantAcked {
		t.Fatalf("recovered Acked(g) = %d, want %d", got, wantAcked)
	}
	// Recovery must leave an appendable log: the next record lands at the
	// recovered bound and reads back.
	off := mustAppend(t, j, testRecord(int(end)))
	if off != end {
		t.Fatalf("post-recovery append at %d, want %d", off, end)
	}
	if err := j.Read(off, &rec); err != nil {
		t.Fatalf("post-recovery Read: %v", err)
	}
	return end
}

func TestRecoveryTornTail(t *testing.T) {
	const n = 20
	dir := t.TempDir()
	paths := fillJournal(t, dir, n)
	last := paths[len(paths)-1]

	// Crash mid-append: the final record's bytes are half-written.
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	end := verifyRecovered(t, dir, n/2)
	if end >= n || end == 0 {
		t.Fatalf("recovered bound %d, want in (0,%d)", end, n)
	}
}

func TestRecoveryCorruptLastSegmentBitFlip(t *testing.T) {
	const n = 20
	dir := t.TempDir()
	paths := fillJournal(t, dir, n)
	last := paths[len(paths)-1]

	// Flip a bit in the middle of the last segment: CRC catches it and
	// recovery truncates from the damaged record on.
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}
	end := verifyRecovered(t, dir, n/2)
	if end >= n {
		t.Fatalf("recovered bound %d, want < %d (damaged records dropped)", end, n)
	}
}

func TestRecoveryZeroedTail(t *testing.T) {
	const n = 20
	dir := t.TempDir()
	paths := fillJournal(t, dir, n)
	last := paths[len(paths)-1]

	// A crash on some filesystems leaves allocated-but-zeroed tail blocks.
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	end := verifyRecovered(t, dir, n/2)
	if end == 0 {
		t.Fatal("zeroed tail wiped the whole last segment")
	}
}

func TestRecoveryInteriorCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	paths := fillJournal(t, dir, 20)

	// Damage a non-final segment: that is not a torn tail, and silently
	// truncating there would orphan every later segment — Open must fail.
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentSize: 256}); err == nil {
		t.Fatal("Open with interior corruption: want error")
	} else if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("Open error = %v, want ErrCorruptRecord", err)
	}
}

func TestRecoveryMissingSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	paths := fillJournal(t, dir, 20)
	if len(paths) < 3 {
		t.Fatalf("test needs an interior segment, got %d segments", len(paths))
	}
	// A missing interior segment is a gap, not a compacted prefix (only a
	// prefix can legally be absent — compaction unlinks lowest-first).
	if err := os.Remove(paths[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentSize: 256}); err == nil {
		t.Fatal("Open with missing interior segment: want error")
	}
}

func TestRecoveryEmptyRolledSegment(t *testing.T) {
	const n = 20
	dir := t.TempDir()
	paths := fillJournal(t, dir, n)

	// Crash between rolling a new segment file and writing its first
	// record: an empty final segment is a clean recovery point.
	_ = paths
	empty := filepath.Join(dir, segmentName(int64(n)))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	end := verifyRecovered(t, dir, n/2)
	if end != n {
		t.Fatalf("recovered bound %d, want %d (empty segment holds no records)", end, n)
	}
}

func TestRecoveryTornAckLog(t *testing.T) {
	const n = 20
	dir := t.TempDir()
	fillJournal(t, dir, n)

	ackPath := filepath.Join(dir, ackLogName)
	fi, err := os.Stat(ackPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(ackPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	// The one ack record is torn, so the group folds back to zero — and
	// the journal still opens, reads and appends.
	verifyRecovered(t, dir, 0)
}

// crashHistory is what one run of the scripted history was told: the
// appends and acks that returned nil, and how many file writes and fsyncs
// it made.
type crashHistory struct {
	writes, syncs int
	appended      []*Record // successful appends, in offset order
	acked         map[string]int64
	// failed is set once the failing fsync has run; unsyncedFrom is
	// NextOffset as it found it.
	failed       bool
	unsyncedFrom int64
}

// errTorn is the error a torn write returns; errSync is a failed fsync's.
var (
	errTorn = errors.New("injected write error")
	errSync = errors.New("injected fsync error")
)

// crashRecord is record i of the scripted history. It comes in three
// sizes — unlabelled, one label, two labels — so that a torn record can be
// followed by a larger one that no longer fits the segment: the roll then
// seals whatever bytes the tear left behind.
func crashRecord(i int) *Record {
	rec := testRecord(i)
	switch i % 4 {
	case 2:
		rec.Labels = ""
	case 3:
		rec.Labels += ",label:conf:ward-b"
	}
	return rec
}

// runCrashHistory opens a journal in dir and runs the scripted history:
// twelve appends across four segment rolls, acks from two groups and one
// Compact that deletes two segments and rewrites the ack log. Each step is
// followed by a Sync, so that under SyncBatch the step's group commit is
// over before the next step and the history makes the same fsyncs, in the
// same order, on every run. When tearAt > 0 the tearAt-th file write is
// torn — half its bytes land, then it fails — and the operation that made
// it must fail with errTorn while every other operation succeeds. With
// stop set the history ends at the tear as a crash would, torn bytes and
// all; otherwise it carries on and the live journal is checked. When
// failSyncAt > 0 the failSyncAt-th fsync fails instead (see
// TestRecoveryEverySync).
func runCrashHistory(t *testing.T, dir string, policy SyncPolicy, tearAt, failSyncAt int, stop bool) *crashHistory {
	t.Helper()
	j, err := Open(dir, Options{SegmentSize: 256, Sync: policy})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	h := &crashHistory{acked: make(map[string]int64)}
	// Under SyncBatch the syncer may make the fsync, but it holds syncMu
	// to do so and the step's Sync waits for syncMu: h is only read after.
	j.syncHook = func(f *os.File) error {
		h.syncs++
		if h.syncs != failSyncAt {
			return f.Sync()
		}
		h.failed, h.unsyncedFrom = true, j.NextOffset()
		return errSync
	}
	torn := false
	var crash func() // writes the torn bytes again, past any tail restore
	j.writeHook = func(f *os.File, b []byte) (int, error) {
		h.writes++
		if h.writes != tearAt {
			return f.Write(b)
		}
		torn = true
		half := append([]byte(nil), b[:len(b)/2]...)
		crash = func() { _, _ = f.Write(half) } // a discarded staging file is closed: no-op
		n, _ := f.Write(half)
		return n, errTorn
	}

	appendRec := func(i int) func() error {
		return func() error {
			rec := crashRecord(i)
			off, err := j.Append(rec)
			if err == nil {
				if off != int64(len(h.appended)) {
					t.Fatalf("append %d at offset %d, want %d", i, off, len(h.appended))
				}
				h.appended = append(h.appended, rec)
			}
			return err
		}
	}
	ack := func(group string, offset int64) func() error {
		return func() error {
			err := j.Ack(group, offset)
			if err == nil {
				h.acked[group] = max(h.acked[group], offset)
			}
			return err
		}
	}
	compact := func() error { _, err := j.Compact(); return err }
	script := []func() error{
		appendRec(0), appendRec(1), appendRec(2), appendRec(3), ack("a", 2),
		appendRec(4), appendRec(5), appendRec(6), ack("b", 1), ack("a", 5), j.Sync,
		appendRec(7), appendRec(8), ack("b", 6), ack("a", 8), compact,
		appendRec(9), appendRec(10), appendRec(11), ack("a", 11), ack("b", 9), j.Sync,
	}
	for i, op := range script {
		wasTorn, wasFailed := torn, h.failed
		err := op()
		if torn && stop {
			// Stopping is a crash mid-write: the torn bytes stay on disk,
			// where no tail restore ever ran.
			crash()
			return h
		}
		serr := j.Sync()
		if failSyncAt == 0 {
			if tornHere := torn && !wasTorn; tornHere != (err != nil) || (err != nil && !errors.Is(err, errTorn)) || serr != nil {
				t.Fatalf("step %d: err = %v (sync: %v), want the torn write's error exactly when this step tore (tore: %v)", i, err, serr, tornHere)
			}
			continue
		}
		// A failed fsync fails its own step under SyncAlways (the record or
		// ack is restored away); under SyncBatch a failed group commit fails
		// closed, so later appends (and Syncs and Compacts while a batch is
		// unpublished) fail with it. Nothing fails before it, and nothing
		// fails with another error.
		for _, e := range []error{err, serr} {
			if e != nil && (!h.failed || !errors.Is(e, errSync)) {
				t.Fatalf("step %d: %v (failed fsync %d run: %v)", i, e, failSyncAt, h.failed)
			}
		}
		if policy == SyncAlways && h.failed && !wasFailed && err == nil {
			t.Fatalf("step %d made the failing fsync and succeeded", i)
		}
	}
	j.writeHook, j.syncHook = nil, nil
	j.mu.Lock()
	sticky := j.appendErr
	j.mu.Unlock()
	if sticky != nil {
		// A group commit failed. Its batch never became readable while the
		// journal was live: the bound never moved past where the failure
		// found it.
		var rec Record
		if next := j.NextOffset(); next != h.unsyncedFrom {
			t.Fatalf("NextOffset = %d after a failed batch sync at %d", next, h.unsyncedFrom)
		}
		if err := j.Read(h.unsyncedFrom, &rec); !errors.Is(err, ErrOffsetOutOfRange) {
			t.Fatalf("Read(%d) of the failed batch: %v, want ErrOffsetOutOfRange", h.unsyncedFrom, err)
		}
		return h // failed closed; the caller's reopen recovers it
	}
	checkCrashHistory(t, j, dir, policy, h)
	return h
}

// checkCrashHistory asserts j holds exactly h: every successful append,
// byte for byte at dense offsets, from a FirstOffset that is a segment
// base; compacted offsets fail loudly; each group's ack is its largest
// successful one. Then it appends one more (large) record at NextOffset,
// closes j and reopens it to read that record back, adding it to h.
func checkCrashHistory(t *testing.T, j *Journal, dir string, policy SyncPolicy, h *crashHistory) {
	t.Helper()
	first, next := j.FirstOffset(), j.NextOffset()
	if next != int64(len(h.appended)) {
		t.Fatalf("NextOffset = %d, want %d successful appends", next, len(h.appended))
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 || names[0] != segmentName(first) {
		t.Fatalf("FirstOffset %d is not the first segment's base (segments %v)", first, names)
	}
	var rec Record
	for off := int64(0); off < next; off++ {
		err := j.Read(off, &rec)
		if off < first {
			if !errors.Is(err, ErrOffsetCompacted) {
				t.Fatalf("Read(%d) below FirstOffset %d: %v, want ErrOffsetCompacted", off, first, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Read(%d): %v", off, err)
		}
		if want := h.appended[off]; rec.Time != want.Time || rec.Topic != want.Topic ||
			rec.Labels != want.Labels || rec.Split != want.Split || !bytes.Equal(rec.Image, want.Image) {
			t.Fatalf("Read(%d) = %+v, want %+v", off, rec, *want)
		}
	}
	for _, group := range []string{"a", "b"} {
		if got, want := j.Acked(group), h.acked[group]; got != want {
			t.Fatalf("Acked(%s) = %d, want %d", group, got, want)
		}
	}

	// The log still appends at NextOffset, and the append survives a
	// reopen: any torn bytes left at the tail would now sit in front of it,
	// or inside a segment its roll sealed.
	extra := crashRecord(99)
	if off := mustAppend(t, j, extra); off != next {
		t.Fatalf("append after the history at %d, want %d", off, next)
	}
	h.appended = append(h.appended, extra)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err = Open(dir, Options{SegmentSize: 256, Sync: policy})
	if err != nil {
		t.Fatalf("reopen after the extra append: %v", err)
	}
	defer j.Close()
	if err := j.Read(next, &rec); err != nil || !bytes.Equal(rec.Image, extra.Image) {
		t.Fatalf("Read(%d) after reopen: %v", next, err)
	}
}

// TestRecoveryEveryWrite enumerates the crash points instead of picking
// them: the scripted history is run once per file write it makes, with
// that write torn, under SyncNever and SyncBatch, and either carried on
// past the tear or stopped there. Reopened, the journal must hold exactly
// what reported success — the torn append or ack, and nothing else, is
// missing — and keep appending.
func TestRecoveryEveryWrite(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncNever, SyncBatch} {
		dir := t.TempDir()
		writes := runCrashHistory(t, dir, policy, 0, 0, false).writes
		if writes < 19 { // twelve appends and seven advancing acks, at least
			t.Fatalf("%v: history made %d writes, want at least 19", policy, writes)
		}
		if names, err := segmentNames(dir); err != nil || len(names) == 0 || names[0] != segmentName(5) {
			t.Fatalf("%v: untorn history left segments %v (%v), want the first two compacted", policy, names, err)
		}
		for k := 1; k <= writes; k++ {
			for _, stop := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/tear%02d/stop=%v", policy, k, stop), func(t *testing.T) {
					dir := t.TempDir()
					h := runCrashHistory(t, dir, policy, k, 0, stop)
					j, err := Open(dir, Options{SegmentSize: 256, Sync: policy})
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					checkCrashHistory(t, j, dir, policy, h)
				})
			}
		}
	}
}

// TestRecoveryEverySync enumerates the fsync crash points the same way:
// the scripted history is run once per fsync it makes, with that fsync
// failed, under SyncBatch and SyncAlways. Under SyncAlways the append or
// ack that made it fails and is restored away; under SyncBatch a failed
// group commit publishes nothing of its batch and fails the journal
// closed, which runCrashHistory checks while it is live. Reopened, the
// journal must hold exactly what reported success — under SyncBatch that
// includes the failed batch, whose records were written — and keep
// appending.
func TestRecoveryEverySync(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncBatch, SyncAlways} {
		syncs := runCrashHistory(t, t.TempDir(), policy, 0, 0, false).syncs
		if syncs < 20 { // twelve appends, seven advancing acks, one ack-log rewrite
			t.Fatalf("%v: history made %d fsyncs, want at least 20", policy, syncs)
		}
		for k := 1; k <= syncs; k++ {
			t.Run(fmt.Sprintf("%v/fail%02d", policy, k), func(t *testing.T) {
				dir := t.TempDir()
				h := runCrashHistory(t, dir, policy, 0, k, false)
				if !h.failed {
					t.Fatalf("fsync %d never ran", k)
				}
				j, err := Open(dir, Options{SegmentSize: 256, Sync: policy})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				checkCrashHistory(t, j, dir, policy, h)
			})
		}
	}
}
