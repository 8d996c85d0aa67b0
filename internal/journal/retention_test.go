package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Compaction, retention and batched-fsync coverage: the moving lower
// bound (FirstOffset), acked-prefix deletion, the time/size windows, the
// soak-style byte-budget invariant, SyncBatch publish semantics, and two
// named failed-write regressions. TestRecoveryEveryWrite enumerates every
// failed-write crash point; the two here pin the historic shapes by name.

// segmentBytes sums the directory's segment file sizes.
func segmentBytes(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, name := range names {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// readAll verifies every offset in [first, next) reads back and that
// every offset below first fails ErrOffsetCompacted.
func readAll(t *testing.T, j *Journal) {
	t.Helper()
	var rec Record
	first, next := j.FirstOffset(), j.NextOffset()
	for off := int64(0); off < first; off++ {
		if err := j.Read(off, &rec); !errors.Is(err, ErrOffsetCompacted) {
			t.Fatalf("Read(%d) below FirstOffset %d: got %v, want ErrOffsetCompacted", off, first, err)
		}
	}
	for off := first; off < next; off++ {
		if err := j.Read(off, &rec); err != nil {
			t.Fatalf("Read(%d) in [%d,%d): %v", off, first, next, err)
		}
	}
}

func TestCompactAckedPrefix(t *testing.T) {
	dir := t.TempDir()
	var compacts []CompactStats
	j, err := Open(dir, Options{
		SegmentSize: 256,
		OnCompact:   func(st CompactStats) { compacts = append(compacts, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const n = 24
	for i := 0; i < n; i++ {
		mustAppend(t, j, testRecord(i))
	}
	segsBefore, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segsBefore) < 3 {
		t.Fatalf("test needs >=3 segments, got %d", len(segsBefore))
	}

	// Two groups: the laggard pins the prefix — a segment is deleted only
	// when EVERY group's cumulative ack covers it.
	if err := j.Ack("fast", n); err != nil {
		t.Fatal(err)
	}
	if err := j.Ack("slow", 2); err != nil {
		t.Fatal(err)
	}
	st, err := j.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.RetentionSegments != 0 {
		t.Fatalf("no retention windows configured, got %d retention deletes", st.RetentionSegments)
	}
	if first := j.FirstOffset(); first > 2 {
		t.Fatalf("FirstOffset %d passed the slow group's ack 2", first)
	}
	readAll(t, j)

	// Catch the laggard up: the rest of the prefix goes, but never the
	// active segment — NextOffset must survive.
	if err := j.Ack("slow", n); err != nil {
		t.Fatal(err)
	}
	st, err = j.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.AckedSegments == 0 {
		t.Fatal("fully-acked prefix not compacted")
	}
	if first := j.FirstOffset(); first == 0 {
		t.Fatal("FirstOffset did not advance")
	}
	if next := j.NextOffset(); next != n {
		t.Fatalf("NextOffset = %d after compaction, want %d", next, n)
	}
	segsAfter, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("compaction deleted no segment files: %d -> %d", len(segsBefore), len(segsAfter))
	}
	readAll(t, j)
	if len(compacts) == 0 {
		t.Fatal("OnCompact never fired")
	}

	// The moving lower bound survives a reopen: FirstOffset derives from
	// the surviving segment files, and the acks survive their rewrite.
	first, next := j.FirstOffset(), j.NextOffset()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer j2.Close()
	if got := j2.FirstOffset(); got != first {
		t.Fatalf("reopened FirstOffset = %d, want %d", got, first)
	}
	if got := j2.NextOffset(); got != next {
		t.Fatalf("reopened NextOffset = %d, want %d", got, next)
	}
	if got := j2.Acked("slow"); got != n {
		t.Fatalf("reopened Acked(slow) = %d, want %d", got, n)
	}
	readAll(t, j2)
}

func TestCompactNoGroupsKeepsEverything(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 24; i++ {
		mustAppend(t, j, testRecord(i))
	}
	// No consumer group exists: nothing is ack-covered, so the acked-
	// prefix pass must delete nothing (an empty quorum is not "everyone").
	st, err := j.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.AckedSegments != 0 || st.RetentionSegments != 0 {
		t.Fatalf("groupless Compact deleted segments: %+v", st)
	}
	if first := j.FirstOffset(); first != 0 {
		t.Fatalf("FirstOffset = %d, want 0", first)
	}
	readAll(t, j)
}

func TestCompactRetentionAge(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentSize: 256, RetentionAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// Pin the clock near the record timestamps (1000+i ns) so the
	// roll-time compaction during the fill expires nothing; then jump it
	// past the window.
	clock := int64(2000)
	j.now = func() int64 { return clock }
	const n = 24
	for i := 0; i < n; i++ {
		mustAppend(t, j, testRecord(i))
	}
	// Nothing is acked; age alone must expire the prefix — retention is
	// the storage bound even for groups that never ack.
	clock = int64(1000+n) + int64(2*time.Hour)
	st, err := j.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.RetentionSegments == 0 {
		t.Fatal("age window expired no segments")
	}
	if st.AckedSegments != 0 {
		t.Fatalf("no acks exist, yet %d segments counted as acked", st.AckedSegments)
	}
	// The active segment survives even though it too is past the age —
	// the offset counter must stay recoverable from disk.
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("want only the active segment to survive, got %v", names)
	}
	if next := j.NextOffset(); next != n {
		t.Fatalf("NextOffset = %d, want %d", next, n)
	}
	readAll(t, j)
}

// TestRetentionBytesSoak is the byte-budget soak: appends run past
// several retention thresholds with rolls enforcing the window, and at
// every step the journal directory stays within the configured budget
// while every unacked record above FirstOffset stays replayable. Midway
// the journal is reopened — restart mid-retention — and the invariant
// must keep holding.
func TestRetentionBytesSoak(t *testing.T) {
	const (
		segSize = 512
		budget  = 4 * segSize
		rounds  = 3
		perRnd  = 60
	)
	dir := t.TempDir()
	opts := Options{SegmentSize: segSize, RetentionBytes: budget}
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRnd; i++ {
			mustAppend(t, j, testRecord(seq))
			seq++
			if got := segmentBytes(t, dir); got > budget {
				t.Fatalf("round %d append %d: journal dir %d bytes, budget %d", round, i, got, budget)
			}
		}
		readAll(t, j) // every retained record replayable, below-floor reads loud
		if j.FirstOffset() == 0 {
			t.Fatalf("round %d: retention never advanced FirstOffset", round)
		}
		// Restart mid-retention: recovery must accept the compacted prefix
		// and keep enforcing the same budget.
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, err = Open(dir, opts)
		if err != nil {
			t.Fatalf("round %d reopen: %v", round, err)
		}
		if got := int(j.NextOffset()); got != seq {
			t.Fatalf("round %d reopen: NextOffset %d, want %d", round, got, seq)
		}
		readAll(t, j)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryCompactedPrefix(t *testing.T) {
	const n = 20
	dir := t.TempDir()
	paths := fillJournal(t, dir, n)

	// Crash mid-compaction: unlink-lowest-first means any prefix of the
	// planned deletions may have happened. Simulate the worst cut — some
	// segments gone, the ack log still un-rewritten (fillJournal acked
	// g=n/2) and a half-written ack rewrite left behind.
	for _, p := range paths[:2] {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, ackTmpName), []byte("torn rewrite"), 0o644); err != nil {
		t.Fatal(err)
	}

	j, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatalf("reopen after crash mid-compaction: %v", err)
	}
	defer j.Close()
	if _, err := os.Stat(filepath.Join(dir, ackTmpName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale ack rewrite not cleaned up: %v", err)
	}
	if first := j.FirstOffset(); first == 0 {
		t.Fatal("FirstOffset = 0, want the surviving prefix's base")
	}
	if got := j.Acked("g"); got != n/2 {
		t.Fatalf("Acked(g) = %d, want %d (old ack log still authoritative)", got, n/2)
	}
	readAll(t, j)
	// And the log is still appendable past the recovered bound.
	end := j.NextOffset()
	if off := mustAppend(t, j, testRecord(int(end))); off != end {
		t.Fatalf("post-recovery append at %d, want %d", off, end)
	}
}

// openSyncBatch opens a SyncBatch journal in dir with its batch
// thresholds replaced by the given ones.
func openSyncBatch(t *testing.T, dir string, batchBytes int64, batchInterval time.Duration) *Journal {
	t.Helper()
	j, err := Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	j.batchBytes, j.batchInterval = batchBytes, batchInterval
	return j
}

func TestSyncBatchPublishesOnlyAfterFlush(t *testing.T) {
	j := openSyncBatch(t, t.TempDir(), 1<<20, time.Hour) // byte threshold out of reach
	defer j.Close()

	sig := j.AppendSignal()
	off, err := j.Append(testRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	if off != 0 {
		t.Fatalf("offset = %d, want 0", off)
	}
	// The record is written but its batch is not synced: it must not be
	// published — not readable, no signal — until the flush.
	if got := j.NextOffset(); got != 0 {
		t.Fatalf("NextOffset = %d before flush, want 0", got)
	}
	select {
	case <-sig:
		t.Fatal("append signal fired before the batch was synced")
	default:
	}
	var rec Record
	if err := j.Read(0, &rec); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("Read before flush: got %v, want ErrOffsetOutOfRange", err)
	}

	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := j.NextOffset(); got != 1 {
		t.Fatalf("NextOffset = %d after flush, want 1", got)
	}
	select {
	case <-sig:
	default:
		t.Fatal("append signal did not fire at flush")
	}
	if err := j.Read(0, &rec); err != nil {
		t.Fatalf("Read after flush: %v", err)
	}
}

func TestSyncBatchByteThresholdFlushes(t *testing.T) {
	j := openSyncBatch(t, t.TempDir(), 1, time.Hour) // every append crosses the threshold
	defer j.Close()
	for i := 0; i < 5; i++ {
		mustAppend(t, j, testRecord(i))
		if got := j.NextOffset(); got != int64(i+1) {
			t.Fatalf("NextOffset = %d after append %d, want %d (byte threshold must flush inline)", got, i, i+1)
		}
	}
}

func TestSyncBatchIntervalFlushes(t *testing.T) {
	j := openSyncBatch(t, t.TempDir(), 1<<20, 5*time.Millisecond)
	defer j.Close()
	sig := j.AppendSignal()
	mustAppend(t, j, testRecord(0))
	select {
	case <-sig:
	case <-time.After(5 * time.Second):
		t.Fatal("interval flush never published the batch")
	}
	if got := j.NextOffset(); got != 1 {
		t.Fatalf("NextOffset = %d after interval flush, want 1", got)
	}
}

func TestSyncBatchCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	j := openSyncBatch(t, dir, 1<<20, time.Hour)
	const n = 4
	for i := 0; i < n; i++ {
		mustAppend(t, j, testRecord(i))
	}
	if err := j.Ack("g", 2); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.NextOffset(); got != n {
		t.Fatalf("reopened NextOffset = %d, want %d (Close must flush the batch)", got, n)
	}
	if got := j2.Acked("g"); got != 2 {
		t.Fatalf("reopened Acked(g) = %d, want 2", got)
	}
}

// TestRecoveryAppendWriteError: a transient failed/short segment write
// must not corrupt the log. An error path that truncates without
// re-seeking the file position makes the next append write past EOF and
// leave a zero-filled gap — recovered reads lose every record stacked
// after the tear (or, once the segment rolls, Open refuses the whole
// journal as interior corruption).
func TestRecoveryAppendWriteError(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 3; i++ {
		mustAppend(t, j, testRecord(i))
	}

	// One transient fault: half the record's bytes hit the file, then the
	// device errors — the torn-tail shape a real short write leaves.
	injected := errors.New("injected write error")
	j.writeHook = func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/2])
		return n, injected
	}
	if _, err := j.Append(testRecord(3)); !errors.Is(err, injected) {
		t.Fatalf("faulted Append: got %v, want injected error", err)
	}
	j.writeHook = nil

	// The fault was transient: later appends must succeed and stack
	// exactly after the committed prefix.
	for i := 3; i < 6; i++ {
		if off := mustAppend(t, j, testRecord(i)); off != int64(i) {
			t.Fatalf("post-fault append at %d, want %d", off, i)
		}
	}
	readAll(t, j)

	// And the log must survive reopen intact: all six records, no torn
	// gap, still appendable.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatalf("reopen after transient write fault: %v", err)
	}
	defer j2.Close()
	if got := j2.NextOffset(); got != 6 {
		t.Fatalf("reopened NextOffset = %d, want 6 (records lost to the tear)", got)
	}
	readAll(t, j2)
	if off := mustAppend(t, j2, testRecord(6)); off != 6 {
		t.Fatalf("reopened append at %d, want 6", off)
	}
}

// TestRecoveryAckWriteError: a transient failed ack write must not poison
// the ack log. Torn bytes left at the tail would put every later ack
// behind the tear, and the open-time scan would discard them all at the
// next open — the group would re-deliver work it had already acked.
func TestRecoveryAckWriteError(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 10; i++ {
		mustAppend(t, j, testRecord(i))
	}
	if err := j.Ack("g", 2); err != nil {
		t.Fatal(err)
	}

	injected := errors.New("injected ack write error")
	j.writeHook = func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/2])
		return n, injected
	}
	if err := j.Ack("g", 5); !errors.Is(err, injected) {
		t.Fatalf("faulted Ack: got %v, want injected error", err)
	}
	j.writeHook = nil

	// Later acks must both apply live and survive the reopen.
	if err := j.Ack("g", 8); err != nil {
		t.Fatalf("post-fault Ack: %v", err)
	}
	if got := j.Acked("g"); got != 8 {
		t.Fatalf("Acked(g) = %d, want 8", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after transient ack fault: %v", err)
	}
	defer j2.Close()
	if got := j2.Acked("g"); got != 8 {
		t.Fatalf("reopened Acked(g) = %d, want 8 (acks lost behind the tear)", got)
	}
}

func TestJournalOpenFirstSegmentBaseNonZero(t *testing.T) {
	// A freshly-seen directory whose first segment starts above zero is a
	// compacted prefix, not corruption — but the segments present must
	// still be contiguous.
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustAppend(t, j, testRecord(i))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, names[0])); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatalf("Open with compacted prefix: %v", err)
	}
	defer j2.Close()
	if first := j2.FirstOffset(); first == 0 {
		t.Fatal("FirstOffset = 0, want the second segment's base")
	}
	var rec Record
	if err := j2.Read(0, &rec); !errors.Is(err, ErrOffsetCompacted) {
		t.Fatalf("Read(0): got %v, want ErrOffsetCompacted", err)
	}
	readAll(t, j2)
}
