package journal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Compaction, retention and batched-fsync coverage: the moving lower
// bound (FirstOffset), acked-prefix deletion, the time/size windows, the
// soak-style byte-budget invariant, SyncBatch group commit, and two
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

// syncGate is a syncHook that counts fsyncs and holds one on request:
// after hold, the next fsync reports its file's base name on entered and
// blocks until hold's release is called; from then on fsyncs fail with the
// error release was given, or run for real when it was nil.
type syncGate struct {
	mu      sync.Mutex
	calls   int
	armed   chan struct{} // the gate the next fsync waits on, nil when not held
	fail    error
	entered chan string
}

// openSyncBatch opens a SyncBatch journal in dir with a syncGate on its
// fsync seam.
func openSyncBatch(t *testing.T, dir string, opts Options) (*Journal, *syncGate) {
	t.Helper()
	opts.Sync = SyncBatch
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := &syncGate{entered: make(chan string, 1)}
	j.syncHook = g.fsync
	return j, g
}

func (g *syncGate) fsync(f *os.File) error {
	g.mu.Lock()
	g.calls++
	gate := g.armed
	g.armed = nil
	g.mu.Unlock()
	if gate != nil {
		g.entered <- filepath.Base(f.Name())
		<-gate
	}
	g.mu.Lock()
	fail := g.fail
	g.mu.Unlock()
	if fail != nil {
		return fail
	}
	return f.Sync()
}

func (g *syncGate) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

// hold makes the next fsync block until release is called. Only a
// release's first call counts: a test defers release(nil) so that failing
// while an fsync is held does not leave Close waiting for it.
func (g *syncGate) hold() (release func(fail error)) {
	gate := make(chan struct{})
	g.mu.Lock()
	g.armed = gate
	g.mu.Unlock()
	var once sync.Once
	return func(fail error) {
		once.Do(func() {
			g.mu.Lock()
			g.fail = fail
			g.mu.Unlock()
			close(gate)
		})
	}
}

// waitHeld waits for a held fsync to begin and returns its file's name.
func (g *syncGate) waitHeld(t *testing.T) string {
	t.Helper()
	select {
	case name := <-g.entered:
		return name
	case <-time.After(5 * time.Second):
		t.Fatal("no fsync began")
		return ""
	}
}

// waitPublished waits, in WaitAppend, until NextOffset reaches n.
func waitPublished(t *testing.T, j *Journal, n int64) {
	t.Helper()
	stop := make(chan struct{})
	timer := time.AfterFunc(5*time.Second, func() { close(stop) })
	defer timer.Stop()
	if !j.WaitAppend(n-1, stop) {
		t.Fatalf("NextOffset stuck at %d, want %d", j.NextOffset(), n)
	}
}

func TestSyncBatchPublishesOnlyAfterFlush(t *testing.T) {
	j, g := openSyncBatch(t, t.TempDir(), Options{})
	defer j.Close()

	release := g.hold()
	defer release(nil)
	// A tailing reader parked before the append must be woken by its
	// publication, and not before.
	stop := make(chan struct{})
	defer close(stop)
	woken := make(chan bool, 1)
	go func() { woken <- j.WaitAppend(0, stop) }()
	waitTailParked(t, 1)
	off, err := j.Append(testRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	if off != 0 {
		t.Fatalf("offset = %d, want 0", off)
	}
	g.waitHeld(t)
	// The record is written and the fsync covering it has begun but not
	// returned: it must not be published — not readable, no wake-up.
	if got := j.NextOffset(); got != 0 {
		t.Fatalf("NextOffset = %d during the fsync, want 0", got)
	}
	select {
	case <-woken:
		t.Fatal("tailing reader woke before the fsync returned")
	default:
	}
	var rec Record
	if err := j.Read(0, &rec); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("Read during the fsync: got %v, want ErrOffsetOutOfRange", err)
	}

	release(nil)
	select {
	case ok := <-woken:
		if !ok {
			t.Fatal("tailing reader's wait ended without the record")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tailing reader not woken once the fsync returned")
	}
	if got := j.NextOffset(); got != 1 {
		t.Fatalf("NextOffset = %d after the fsync, want 1", got)
	}
	if err := j.Read(0, &rec); err != nil {
		t.Fatalf("Read after the fsync: %v", err)
	}
}

// TestSyncBatchByteThresholdFlushes: the byte threshold it was named for
// is gone — a batch is whatever was written while the previous fsync ran.
// It checks that instead: appends made while one fsync is held return
// without waiting for it, and are all published by exactly one following
// fsync.
func TestSyncBatchByteThresholdFlushes(t *testing.T) {
	j, g := openSyncBatch(t, t.TempDir(), Options{})
	defer j.Close()
	release := g.hold()
	defer release(nil)
	appendNoWait(t, j, 0, 1)
	g.waitHeld(t)
	const n = 8
	appendNoWait(t, j, 1, n)
	if got := j.NextOffset(); got != 0 {
		t.Fatalf("NextOffset = %d while the first fsync is held, want 0", got)
	}
	release(nil)
	waitPublished(t, j, n)
	if got := g.count(); got != 2 {
		t.Fatalf("%d fsyncs published %d appends, want 2 (one for the first, one for the rest)", got, n)
	}
}

// appendNoWait appends testRecord(from) up to testRecord(to-1), and fails
// if that waits for an fsync.
func appendNoWait(t *testing.T, j *Journal, from, to int) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := from; i < to; i++ {
			if _, err := j.Append(testRecord(i)); err != nil {
				t.Errorf("Append %d: %v", i, err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Append waited for an fsync")
	}
}

// TestSyncBatchIntervalFlushes: there is no interval any more — an append
// wakes the syncer itself. It checks the nearest property instead: a lone
// append is published, with no explicit Sync, by one fsync of its own.
func TestSyncBatchIntervalFlushes(t *testing.T) {
	j, g := openSyncBatch(t, t.TempDir(), Options{})
	defer j.Close()
	mustAppend(t, j, testRecord(0))
	waitPublished(t, j, 1)
	if got := g.count(); got != 1 {
		t.Fatalf("%d fsyncs published one append, want 1", got)
	}
}

// TestSyncBatchAckSyncedWithoutAppend: an ack after the last append of a
// burst is fsynced by the syncer, not left until the next append, Sync,
// Compact or Close.
func TestSyncBatchAckSyncedWithoutAppend(t *testing.T) {
	j, g := openSyncBatch(t, t.TempDir(), Options{})
	defer j.Close()
	// The syncer publishes the append: its wakeup is used up, and only the
	// ack can wake it again.
	mustAppend(t, j, testRecord(0))
	waitPublished(t, j, 1)
	release := g.hold()
	defer release(nil)
	if err := j.Ack("g", 1); err != nil {
		t.Fatal(err)
	}
	if name := g.waitHeld(t); name != ackLogName {
		t.Fatalf("the ack woke an fsync of %s, want %s", name, ackLogName)
	}
	release(nil)
}

// TestSyncBatchFailedSyncPublishesNothing: a failed fsync publishes no
// record of its batch and fails the journal closed, and a reopen recovers
// every record that was written.
func TestSyncBatchFailedSyncPublishesNothing(t *testing.T) {
	dir := t.TempDir()
	j, g := openSyncBatch(t, dir, Options{})
	defer j.Close()
	mustAppend(t, j, testRecord(0))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	release := g.hold()
	defer release(nil)
	mustAppend(t, j, testRecord(1))
	g.waitHeld(t)
	mustAppend(t, j, testRecord(2))
	mustAppend(t, j, testRecord(3))
	injected := errors.New("injected fsync error")
	release(injected)
	if err := j.Sync(); !errors.Is(err, injected) {
		t.Fatalf("Sync after the failed fsync: %v, want the injected error", err)
	}
	if got := j.NextOffset(); got != 1 {
		t.Fatalf("NextOffset = %d after the failed fsync, want 1", got)
	}
	var rec Record
	if err := j.Read(1, &rec); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("Read(1) of the failed batch: %v, want ErrOffsetOutOfRange", err)
	}
	if _, err := j.Append(testRecord(4)); !errors.Is(err, injected) {
		t.Fatalf("Append after the failed fsync: %v, want the sticky injected error", err)
	}
	if err := j.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close: %v, want the sticky injected error", err)
	}

	j2, err := Open(dir, Options{Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.NextOffset(); got != 4 {
		t.Fatalf("reopened NextOffset = %d, want 4 written records", got)
	}
	readAll(t, j2)
}

func TestSyncBatchCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	j, _ := openSyncBatch(t, dir, Options{})
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

// TestSyncBatchHeldFsyncRace runs what can close or publish beside the
// syncer while its fsync is held: a retention-on-roll, an explicit Sync, a
// Compact that rewrites the ack log, and Close. None may publish a record
// the held fsync covers, close a file under it (the syncer would then fail
// "file already closed", which is sticky), delete a record no fsync has
// covered, or let FirstOffset pass NextOffset; and the syncer must be gone
// when Close returns.
func TestSyncBatchHeldFsyncRace(t *testing.T) {
	dir := t.TempDir()
	var clock atomic.Int64
	clock.Store(2000) // no record (timestamps 1000+i) has aged yet
	j, g := openSyncBatch(t, dir, Options{SegmentSize: 256, RetentionAge: 5000})
	j.now = clock.Load

	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			first, next := j.FirstOffset(), j.NextOffset()
			if first > next {
				t.Errorf("FirstOffset %d passed NextOffset %d", first, next)
			}
			if !j.WaitAppend(next, stop) {
				return
			}
		}
	}()
	defer func() { close(stop); <-watched }()

	appended := int64(0)
	appendRec := func() {
		mustAppend(t, j, testRecord(int(appended)))
		appended++
	}
	ack := func(off int64) {
		if err := j.Ack("g", off); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		appendRec()
	}
	ack(1)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	const published = 12

	// Hold a pass on the ack log, write a record and another ack behind
	// it, then let it go and hold the next pass: that one has both the
	// record's segment and the ack log in flight.
	releaseAcks := g.hold()
	defer releaseAcks(nil)
	ack(2)
	if name := g.waitHeld(t); name != ackLogName {
		t.Fatalf("held fsync of %s, want %s", name, ackLogName)
	}
	appendRec()
	ack(3)
	release := g.hold()
	defer release(nil)
	releaseAcks(nil)
	if name := g.waitHeld(t); !strings.HasSuffix(name, segmentSuffix) {
		t.Fatalf("held fsync of %s, want the segment record %d is in", name, published)
	}
	checkHeld := func(when string) {
		t.Helper()
		if first, next := j.FirstOffset(), j.NextOffset(); next != published || first > next {
			t.Fatalf("%s: FirstOffset %d, NextOffset %d while the fsync is held, want NextOffset %d", when, first, next, published)
		}
	}

	// Retention on roll, with every record past RetentionAge: it must
	// neither wait for the held fsync, nor delete the segment under it
	// (its records are unpublished), nor fold the ack log under it.
	clock.Store(10000)
	for j.FirstOffset() == 0 {
		if appended > 30 {
			t.Fatal("no roll expired the old segments")
		}
		appendRec()
	}
	checkHeld("after retention")

	syncDone := make(chan error, 1)
	go func() { syncDone <- j.Sync() }()
	compactDone := make(chan error, 1)
	go func() { _, err := j.Compact(); compactDone <- err }()
	select {
	case err := <-syncDone:
		syncDone <- err
	case <-time.After(20 * time.Millisecond):
	}
	checkHeld("after Sync and Compact")

	release(nil)
	for _, done := range []chan error{syncDone, compactDone} {
		if err := <-done; err != nil {
			t.Fatalf("Sync/Compact beside the held fsync: %v", err)
		}
	}
	j.mu.Lock()
	sticky := j.appendErr
	j.mu.Unlock()
	if sticky != nil {
		t.Fatalf("sticky error after the held fsync: %v", sticky)
	}
	waitPublished(t, j, appended)
	// Compact ran after the release: every sealed segment had aged, so
	// only the active one is left, and the ack log is folded.
	if names, err := segmentNames(dir); err != nil || len(names) != 1 {
		t.Fatalf("segments after Compact: %v (%v), want only the active one", names, err)
	}
	readAll(t, j)
	fold, err := appendAckRecord(nil, "g", 3)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, ackLogName)); err != nil || fi.Size() != int64(len(fold)) {
		t.Fatalf("ack log after Compact: %v, %v; want it folded to one record", fi, err)
	}

	// Close beside a held fsync: it waits for it, closes nothing under it,
	// and returns only once the syncer has exited.
	release = g.hold()
	defer release(nil)
	appendRec()
	g.waitHeld(t)
	closeDone := make(chan error, 1)
	go func() { closeDone <- j.Close() }()
	select {
	case err := <-closeDone:
		t.Fatalf("Close returned (%v) while an fsync was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	release(nil)
	if err := <-closeDone; err != nil {
		t.Fatalf("Close beside the held fsync: %v", err)
	}
	select {
	case <-j.syncerDone:
	default:
		t.Fatal("syncer still running after Close returned")
	}

	j2, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.NextOffset(); got != appended {
		t.Fatalf("reopened NextOffset = %d, want %d", got, appended)
	}
	readAll(t, j2)
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
