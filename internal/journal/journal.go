// Package journal implements the append-only event log behind SafeWeb's
// durable topics: a fixed-size segment log whose records carry a
// published event's preencoded STOMP MESSAGE image (stomp.WireImage)
// verbatim, plus the topic, label header and timestamp replay needs to
// re-route and re-check it.
//
// One Journal is one topic's log, a directory of numbered segment files
// plus an ack log. The design goals, in order:
//
//   - Zero re-marshal. Append stores the wire image the fan-out path
//     already encoded; replay serves those bytes straight back to the
//     wire. Neither direction touches the event codec.
//   - Fail-closed recovery. Every record is CRC-32C framed; Open scans
//     the log and truncates the torn tail a crash mid-append leaves
//     behind, so the journal never replays half a record.
//   - Idempotent cumulative acks. A consumer group's progress is a single
//     monotonic offset ("records below N are processed"), persisted as
//     append-only ack records whose live value is the maximum — the same
//     CAS-max discipline the credit window uses, so duplicated or
//     reordered acks can never regress a group.
//   - Clearance at read time. Records keep the event's label header;
//     the broker re-parses and re-enforces clearance on every replay, so
//     a policy change between write and read is honoured (package broker
//     owns that check; the journal just preserves the evidence).
//   - Bounded storage. The log has a moving lower bound, FirstOffset:
//     whole segments are deleted once every consumer group's cumulative
//     ack covers them (Compact), or once the time/size retention windows
//     expire them (enforced on every segment roll and on Compact). Reads
//     below FirstOffset fail ErrOffsetCompacted — a consumer that fell
//     behind retention is told so, never silently skipped. The active
//     segment is never deleted, so the offset counter always survives a
//     restart.
//
// Offsets are dense record indexes starting at zero; [FirstOffset,
// NextOffset) is the readable range. The fsync policy is explicit:
// SyncNever trusts the OS page cache, SyncAlways syncs every append, and
// SyncBatch group-commits: one syncer goroutine per journal fsyncs
// whatever was written since its last pass, and a record is only
// published (readable, and so replayable-as-durable) once an fsync that
// began after its write has returned.
//
// Segments and the ack log are one kind of file, a logFile: CRC-framed
// (record.go: sealFrame builds a frame header, openFrame checks one) and
// append-only. Its rules live in one place each, whichever file it is:
// openLog scans it at Open and truncates a torn tail (or refuses a sealed
// segment with a bad frame), Journal.appendLog writes through the one
// write seam and restores the committed tail when a write or SyncAlways
// fsync fails, and Journal.groupSync is the batch fsync. Every byte the
// journal writes reaches disk through appendLog — the ack log's compaction
// rewrite included — and every fsync goes through Journal.fsync, so a test
// that tears the k-th write or fails the k-th fsync enumerates every crash
// point.
package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"safeweb/internal/event"
	"safeweb/internal/park"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncNever never fsyncs: appends are durable against process crash
	// (the write hits the page cache) but not against power loss. The
	// default, and what the durable fan-out benchmark measures.
	SyncNever SyncPolicy = iota
	// SyncBatch group-commits: an append or ack wakes the journal's
	// syncer and returns without waiting; the syncer fsyncs everything
	// written before it woke, outside the append lock, and then publishes
	// it. Records written during that fsync form the next batch, so a
	// batch is one record under light load and everything that arrived
	// during the previous fsync at saturation. A batched record is not
	// published — NextOffset does not cover it and tailing replay cannot
	// see it — until its batch is synced, so everything readable is also
	// durable against power loss.
	SyncBatch
	// SyncAlways fsyncs after every event append and every ack.
	SyncAlways
)

// ParseSyncPolicy parses a policy name as used by configuration flags:
// "never", "batch" or "always".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "never":
		return SyncNever, nil
	case "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("journal: unknown sync policy %q (want never, batch or always)", s)
}

// String returns the flag-form name of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// defaultSegmentSize is the segment roll threshold when Options leaves it
// zero.
const defaultSegmentSize = 64 << 20

// segmentSuffix names segment files: "<base offset, 20 digits>.seg".
const segmentSuffix = ".seg"

// ackLogName is the per-journal ack log file; ackTmpName is the scratch
// file its compaction rewrite stages through (renamed into place, so a
// crash mid-rewrite leaves the longer original intact).
const (
	ackLogName = "acks.log"
	ackTmpName = ackLogName + ".tmp"
)

// Options configures a Journal.
type Options struct {
	// SegmentSize is the roll threshold in bytes: an append that would
	// grow the active segment past it starts a new segment (a single
	// record larger than the threshold still gets a segment to itself).
	// Zero means 64 MiB.
	SegmentSize int64
	// Sync is the fsync policy; the zero value is SyncNever.
	Sync SyncPolicy
	// RetentionAge, when positive, expires whole segments: a non-active
	// segment whose newest record is older than this is deleted on the
	// next segment roll or Compact, acked or not — retention is the
	// storage bound, the ack prefix is only the fast path.
	RetentionAge time.Duration
	// RetentionBytes, when positive, bounds the journal directory's
	// segment bytes: rolls and Compact delete oldest segments first until
	// the total — counting the active segment at its full roll threshold,
	// so the bound holds even after it fills — fits the budget. The
	// active segment is never deleted, so budgets below 2× SegmentSize
	// degrade to "active segment only".
	RetentionBytes int64
	// OnCompact, when non-nil, observes every compaction pass that
	// deleted at least one segment. It is called with internal locks held
	// and must not call back into the Journal or block.
	OnCompact func(CompactStats)
}

// CompactStats summarises one compaction pass.
type CompactStats struct {
	// AckedSegments counts segments deleted because every consumer
	// group's cumulative ack covered them; RetentionSegments counts
	// segments the time/size windows deleted regardless of acks.
	AckedSegments     int
	RetentionSegments int
	// FirstOffset is the journal's lowest retained offset after the pass.
	FirstOffset int64
}

// ErrOffsetOutOfRange reports a Read at an offset the journal does not
// hold (negative, or at/past NextOffset).
var ErrOffsetOutOfRange = errors.New("journal: offset out of range")

// ErrOffsetCompacted reports a Read below FirstOffset: the record existed
// but compaction or retention deleted its segment. Callers resume from
// FirstOffset — and say so; a consumer must never silently miss records.
var ErrOffsetCompacted = errors.New("journal: offset compacted away")

// errClosed reports use of a closed journal.
var errClosed = errors.New("journal: closed")

// tailSite is where a tailing reader parks in WaitAppend.
var tailSite = park.NewSite("journal.tail")

// segment is one log file holding records [base, base+len(pos)).
type segment struct {
	*logFile
	base int64
	// pos holds each record's byte offset within the file; a record's
	// framed length runs to the next entry (or to size for the last).
	pos []int64
	// lastTime is the newest record's timestamp (UnixNano), the segment's
	// age for RetentionAge.
	lastTime int64
}

// Journal is one topic's append-only log. All methods are safe for
// concurrent use; appends are serialised, reads run concurrently with
// appends (a reader never sees a record before NextOffset covers it).
//
// Lock order: syncMu before mu before acks.mu.
type Journal struct {
	dir  string
	opts Options // as passed to Open, SegmentSize defaulted

	// syncMu serialises group commits: the syncer's, and the ones Sync,
	// Compact and Close run themselves. Holding it means no group-commit
	// fsync is in flight, so no dirty flag a pass cleared hides unsynced
	// bytes and no file is closed under a running fsync.
	syncMu sync.Mutex
	// kick wakes the SyncBatch syncer; its one slot coalesces the wakeups
	// of every append and ack made while a pass runs. Nil under the other
	// policies, which start no syncer. Closed by Close, which then waits
	// for syncerDone.
	kick       chan struct{}
	syncerDone chan struct{}

	// next is the offset the next append publishes — the exclusive upper
	// bound of readable offsets. Advanced only after the record is fully
	// written (and, under SyncBatch, fsynced), so a concurrent reader
	// bounded by NextOffset only ever reads committed bytes.
	next atomic.Int64
	// first is the lowest retained offset: compaction and retention
	// advance it by whole segments. Reads below it fail
	// ErrOffsetCompacted.
	first atomic.Int64

	// tail wakes the readers parked in WaitAppend after every commit.
	tail park.Gate

	mu     sync.Mutex // guards segs, scratch and append/roll/compact
	segs   []*segment
	buf    []byte // append scratch, reused
	closed bool
	// written is the offset the next append receives; it runs ahead of
	// next under SyncBatch (written-but-unpublished batch) and equals it
	// otherwise.
	written int64
	// syncingAcks is set while a group commit fsyncs the ack log outside
	// mu: a roll's compaction must not close it then, so skips the fold.
	syncingAcks bool
	// appendErr is sticky: set when a failed write's tail restoration (or
	// a batch fsync) fails, leaving the log in a state a further append
	// would corrupt. Every later append fails with it — fail closed; a
	// reopen repairs the tail.
	appendErr error

	acks ackTable

	// writeHook and syncHook, when non-nil, intercept every file write
	// (appendLog) and every fsync (Journal.fsync) — the fault-injection
	// seams the recovery tests use. Set before the first append.
	writeHook func(f *os.File, b []byte) (int, error)
	syncHook  func(f *os.File) error
	// now is the clock RetentionAge compares against, injectable in
	// tests.
	now func() int64
}

// Open opens (creating if needed) the journal in dir, scanning every
// segment to rebuild the offset index and truncating any torn tail the
// last crash left in the final segment or the ack log. The first segment
// present may start at any base — a compacted prefix — but the segments
// present must be contiguous: corruption in the interior of the log (a
// non-final segment, or a gap between segments) is not repairable and
// fails Open.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = defaultSegmentSize
	}
	if opts.Sync < SyncNever || opts.Sync > SyncAlways {
		return nil, fmt.Errorf("journal: unknown sync policy %d", opts.Sync)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	// A crash between staging the ack-log rewrite and renaming it into
	// place leaves the scratch file behind; the original ack log is still
	// authoritative.
	_ = os.Remove(filepath.Join(dir, ackTmpName))
	j := &Journal{
		dir:  dir,
		opts: opts,
		now:  func() int64 { return time.Now().UnixNano() },
	}
	if err := j.openFiles(); err != nil {
		j.closeLocked()
		return nil, err
	}
	if j.opts.Sync == SyncBatch {
		j.kick, j.syncerDone = make(chan struct{}, 1), make(chan struct{})
		go j.syncer()
	}
	return j, nil
}

// openFiles scans the segments and then the ack log. Every segment but
// the last is sealed: a bad frame in one has good records after it.
func (j *Journal) openFiles() error {
	names, err := segmentNames(j.dir)
	if err != nil {
		return err
	}
	for i, name := range names {
		base, err := strconv.ParseInt(strings.TrimSuffix(name, segmentSuffix), 10, 64)
		if err != nil {
			return fmt.Errorf("journal: bad segment name %q", name)
		}
		// The lowest segment sets the floor: everything below it was
		// compacted away (possibly by a crash mid-compaction — the
		// unlink-lowest-first order makes any deleted prefix look exactly
		// like a completed compaction).
		if i == 0 {
			j.first.Store(base)
			j.written = base
		}
		if base != j.written {
			return fmt.Errorf("journal: segment %q starts at offset %d, want %d (missing segment?)", name, base, j.written)
		}
		seg := &segment{base: base}
		var rec Record
		seg.logFile, err = openLog(filepath.Join(j.dir, name), i < len(names)-1, func(at int64, b []byte) (int, error) {
			n, err := decodeRecord(b, &rec, nil)
			if err == nil {
				seg.pos = append(seg.pos, at)
				seg.lastTime = rec.Time
			}
			return n, err
		})
		if err != nil {
			return err
		}
		j.segs = append(j.segs, seg)
		j.written = base + int64(len(seg.pos))
	}
	j.next.Store(j.written)
	return j.acks.open(j.dir)
}

// segmentNames lists the directory's segment files in base-offset order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), segmentSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded bases sort numerically
	return names, nil
}

// Append writes one record and returns its offset. The record is framed,
// written with a single write call and committed (made visible to
// NextOffset and WaitAppend) only afterwards — under SyncBatch
// only once the syncer's next fsync returns, which Append does not wait
// for — so a crash can tear at most the records not yet published,
// exactly what Open's tail truncation repairs.
func (j *Journal) Append(rec *Record) (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, errClosed
	}
	if j.appendErr != nil {
		return 0, fmt.Errorf("journal: append: %w", j.appendErr)
	}
	buf, err := appendRecord(j.buf[:0], rec)
	if err != nil {
		return 0, err
	}
	j.buf = buf

	offset := j.written
	seg := j.activeSegmentLocked(int64(len(buf)))
	if seg == nil {
		seg, err = j.newSegmentLocked(offset)
		if err != nil {
			return 0, err
		}
		// Rolling is where the retention windows are enforced: the
		// just-sealed segment is now a deletion candidate. Unlink failures
		// are left for the next pass. A pass that deletes also folds the
		// ack log, which fsyncs the staged file unless SyncNever: under
		// SyncBatch the one fsync an append can wait for, once per such
		// roll.
		if j.opts.RetentionAge > 0 || j.opts.RetentionBytes > 0 {
			_, _ = j.compactLocked()
		}
	}
	at := seg.size
	if err := j.appendLog(seg.logFile, buf, &j.appendErr); err != nil {
		return 0, fmt.Errorf("journal: append: %w", err)
	}
	seg.pos = append(seg.pos, at)
	seg.lastTime = rec.Time
	j.written = offset + 1
	if j.opts.Sync == SyncBatch {
		j.kickSyncer()
	} else {
		j.commitLocked(j.written)
	}
	return offset, nil
}

// commitLocked publishes every record below upTo: advance the readable
// bound, then wake tailing readers.
func (j *Journal) commitLocked(upTo int64) {
	j.next.Store(upTo)
	j.tail.Wake()
}

// kickSyncer wakes the SyncBatch syncer without blocking: a wakeup already
// pending covers this one too. A no-op under the other policies (kick is
// nil). Callers hold mu or acks.mu, so a closed journal is never kicked.
func (j *Journal) kickSyncer() {
	select {
	case j.kick <- struct{}{}:
	default:
	}
}

// syncer is the SyncBatch group-commit loop, one per journal, started by
// Open and ended by Close closing kick. A pass's failure is sticky in
// appendErr and surfaces on the next Append or Sync.
func (j *Journal) syncer() {
	defer close(j.syncerDone)
	for range j.kick {
		_ = j.Sync()
	}
}

// groupSync is one group commit, run with syncMu held: under mu it records
// the written bound and takes the dirty files, then fsyncs them with mu
// released — appends carry on and become the next batch — and then
// publishes up to the recorded bound. A failed fsync publishes nothing and
// is sticky in appendErr: the batch cannot reach stable storage, so it
// must never read as durable (a reopen recovers it).
func (j *Journal) groupSync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errClosed
	}
	upTo := j.written
	if j.appendErr != nil && upTo > j.next.Load() {
		return j.appendErr // what a failed pass left unpublished stays so
	}
	// A commit rarely finds more than the active segment, one just
	// rolled and the ack log dirty, so the list lives on the stack.
	var files [4]*logFile
	dirty := files[:0]
	for _, seg := range j.segs {
		if seg.dirty {
			seg.dirty = false
			dirty = append(dirty, seg.logFile)
		}
	}
	j.acks.mu.Lock()
	if l := j.acks.log; l.dirty {
		l.dirty, j.syncingAcks = false, true
		dirty = append(dirty, l)
	}
	j.acks.mu.Unlock()

	j.mu.Unlock()
	var err error
	for _, l := range dirty {
		if err = j.fsync(l.f); err != nil {
			break
		}
	}
	j.mu.Lock()

	j.syncingAcks = false
	if err != nil {
		j.appendErr = fmt.Errorf("batch sync: %w", err)
		return j.appendErr
	}
	if upTo > j.next.Load() {
		j.commitLocked(upTo)
	}
	return nil
}

// Sync forces any batch-buffered appends (and acks) to stable storage and
// publishes them, waiting for a pass the syncer has in flight first.
// Meaningful under SyncBatch; a no-op otherwise.
func (j *Journal) Sync() error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	return j.groupSync()
}

// Compact runs one compaction pass: delete every non-active prefix
// segment covered by all consumer groups' cumulative acks (with no
// groups, nothing is ack-covered — a groupless journal is bounded by the
// retention windows only), then apply the RetentionAge/RetentionBytes
// windows. Segments are unlinked lowest-first, so a crash mid-pass leaves
// a shorter contiguous log that Open accepts as an already-compacted
// prefix. Returns what the pass deleted and the new FirstOffset.
func (j *Journal) Compact() (CompactStats, error) {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	// Sync first, so that a batch written before the call is published
	// and its segments become candidates.
	if err := j.groupSync(); err != nil {
		return CompactStats{FirstOffset: j.first.Load()}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compactLocked()
}

// compactLocked is Compact with mu held; segment rolls call it too, with
// the syncer possibly mid-fsync.
func (j *Journal) compactLocked() (CompactStats, error) {
	st := CompactStats{FirstOffset: j.first.Load()}
	if len(j.segs) == 0 {
		return st, nil
	}

	// All three criteria produce prefixes (segments are offset- and
	// time-ordered), so the pass reduces to one prefix length. The active
	// (last) segment is never a candidate: it keeps the offset counter
	// recoverable and the append path simple. minAck is -1 when no group
	// exists: deleting on an empty quorum would drop data the first group
	// to appear still wants.
	minAck := j.acks.min()
	acked := 0
	for acked < len(j.segs)-1 {
		seg := j.segs[acked]
		if minAck < 0 || seg.base+int64(len(seg.pos)) > minAck {
			break
		}
		acked++
	}
	del := acked
	if j.opts.RetentionAge > 0 {
		cutoff := j.now() - int64(j.opts.RetentionAge)
		for del < len(j.segs)-1 && j.segs[del].lastTime < cutoff {
			del++
		}
	}
	if j.opts.RetentionBytes > 0 {
		// Count the active segment at its full roll threshold so the
		// budget keeps holding as it fills between rolls.
		total := max(j.opts.SegmentSize-j.segs[len(j.segs)-1].size, 0) // 0: an oversized single-record segment
		for _, seg := range j.segs {
			total += seg.size
		}
		for del < len(j.segs)-1 && total > j.opts.RetentionBytes {
			total -= j.segs[del].size
			del++
		}
	}
	// Nor is a segment holding a record no group commit has published:
	// it is not durable yet, and the syncer may be fsyncing it.
	for del > 0 && j.segs[del].base > j.next.Load() {
		del--
	}
	if del == 0 {
		return st, nil
	}

	// Unlink lowest-first: after any crash the surviving files are a
	// contiguous suffix — indistinguishable from a smaller completed
	// pass. A failed unlink stops the pass (deleting past it would leave
	// a gap) and leaves the rest for the next one.
	removed := 0
	var err error
	for ; removed < del; removed++ {
		seg := j.segs[removed]
		if rerr := os.Remove(filepath.Join(j.dir, segmentName(seg.base))); rerr != nil {
			err = fmt.Errorf("journal: compact: %w", rerr)
			break
		}
		_ = seg.f.Close()
	}
	if removed == 0 {
		return st, err
	}
	j.segs = j.segs[removed:]
	j.first.Store(j.segs[0].base)
	st.AckedSegments = min(removed, acked)
	st.RetentionSegments = removed - st.AckedSegments
	st.FirstOffset = j.segs[0].base
	// Fold the ack log down to one record per group — unless the syncer
	// is fsyncing it; a later pass folds then. A crash between the unlinks
	// above and this rewrite just leaves the longer log, which max-wins
	// folding absorbs at the next open.
	if !j.syncingAcks {
		if aerr := j.rewriteAcks(); aerr != nil && err == nil {
			err = aerr
		}
	}
	if j.opts.OnCompact != nil {
		j.opts.OnCompact(st)
	}
	return st, err
}

// activeSegmentLocked returns the segment the next append goes to, or nil
// when a new one must be rolled: no segments yet, or the active one is at
// the roll threshold and non-empty (a record larger than the threshold
// still gets a segment to itself rather than failing).
func (j *Journal) activeSegmentLocked(recLen int64) *segment {
	if len(j.segs) == 0 {
		return nil
	}
	seg := j.segs[len(j.segs)-1]
	if len(seg.pos) > 0 && seg.size+recLen > j.opts.SegmentSize {
		return nil
	}
	return seg
}

// segmentName formats a segment filename from its base offset.
func segmentName(base int64) string {
	return fmt.Sprintf("%020d%s", base, segmentSuffix)
}

// newSegmentLocked rolls a fresh segment whose base is the given offset.
func (j *Journal) newSegmentLocked(base int64) (*segment, error) {
	path := filepath.Join(j.dir, segmentName(base))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: roll segment: %w", err)
	}
	seg := &segment{logFile: &logFile{f: f}, base: base}
	j.segs = append(j.segs, seg)
	return seg, nil
}

// maxRunBytes bounds the file read behind one ReadRun: a run ends before
// the record that would take it past this many bytes, unless that record
// is the run's first.
const maxRunBytes = 64 << 10

// Read decodes the record at the given offset into rec: ReadRun of one
// record, with no label memo. Offsets at or past NextOffset return
// ErrOffsetOutOfRange; offsets below FirstOffset return
// ErrOffsetCompacted — the record is gone, and the caller decides
// (loudly) whether to resume from FirstOffset.
func (j *Journal) Read(offset int64, rec *Record) error {
	run := [1]Record{*rec}
	_, err := j.ReadRun(offset, run[:], nil)
	*rec = run[0]
	return err
}

// ReadRun decodes up to len(recs) consecutive records, starting at offset,
// into recs and returns how many it decoded: at least one, unless it fails
// as Read does for the record at offset. A run is the records of one
// segment published when it is called — it never waits for more — and is
// read with one ReadAt of at most maxRunBytes (or of its first record,
// when that alone is larger). Each call reads into a fresh buffer that the
// run's Images alias and that is never reused, so readers hand an Image to
// the wire (or hold it arbitrarily long) without aliasing journal state.
// No string aliases the buffer, so a kept Topic or Labels never pins a
// run: a string recs already holds is kept when equal, any other label
// header that labels (the reader's memo, or nil) holds is the memo's own
// string, and the rest are copied (see decodeRecord). An empty recs reads
// nothing.
func (j *Journal) ReadRun(offset int64, recs []Record, labels *event.LabelCache) (int, error) {
	j.mu.Lock()
	next, first := j.next.Load(), j.first.Load()
	var err error
	switch {
	case j.closed:
		err = errClosed
	case offset < 0 || offset >= next:
		err = fmt.Errorf("%w: %d (journal holds [%d,%d))", ErrOffsetOutOfRange, offset, first, next)
	case offset < first:
		err = fmt.Errorf("%w: %d (journal holds [%d,%d))", ErrOffsetCompacted, offset, first, next)
	}
	if err != nil || len(recs) == 0 {
		j.mu.Unlock()
		return 0, err
	}
	// Locate the owning segment: the last one whose base is <= offset. A
	// run of n records ends where record rel+n begins, or at the segment's
	// size; shrink the longest run the bounds allow until it fits.
	i := sort.Search(len(j.segs), func(i int) bool { return j.segs[i].base > offset }) - 1
	seg := j.segs[i]
	rel := int(offset - seg.base)
	start, end := seg.pos[rel], seg.size
	n := int(min(int64(len(recs)), int64(len(seg.pos)-rel), next-offset))
	for ; ; n-- {
		if rel+n < len(seg.pos) {
			end = seg.pos[rel+n]
		}
		if n == 1 || end-start <= maxRunBytes {
			break
		}
	}
	f := seg.f
	j.mu.Unlock()

	// The byte range is committed and immutable; the ReadAt runs outside
	// the lock so replay never stalls appends. A concurrent compaction can
	// close the file under us — re-check the floor on failure so the caller
	// sees the compaction, not a bare I/O error. A record past the first
	// that fails to decode ends the run; the next call reports it.
	buf := make([]byte, end-start)
	_, err = f.ReadAt(buf, start)
	k := 0
	for err == nil && k < n {
		var m int
		if m, err = decodeRecord(buf, &recs[k], labels); err == nil {
			buf, k = buf[m:], k+1
		}
	}
	if k > 0 {
		return k, nil
	}
	if offset < j.first.Load() {
		return 0, fmt.Errorf("%w: %d", ErrOffsetCompacted, offset)
	}
	return 0, fmt.Errorf("journal: read offset %d: %w", offset, err)
}

// NextOffset returns the offset the next append will publish — the
// exclusive upper bound of readable offsets.
func (j *Journal) NextOffset() int64 { return j.next.Load() }

// FirstOffset returns the lowest retained offset — the inclusive lower
// bound of readable offsets, advanced by compaction and retention.
func (j *Journal) FirstOffset() int64 { return j.first.Load() }

// WaitAppend blocks until the record at off is published (NextOffset
// passes it) or done closes, and reports whether the record was
// published. A tailing reader parks here once it has read everything
// below NextOffset.
func (j *Journal) WaitAppend(off int64, done <-chan struct{}) bool {
	return j.tail.Wait(func() bool { return j.next.Load() > off }, done, 0, tailSite) == nil
}

// Close closes the journal's files, syncing any pending SyncBatch batch
// first, and returns once the syncer has exited. Appends, acks and reads
// fail afterwards.
func (j *Journal) Close() error {
	j.syncMu.Lock()
	err := j.groupSync()
	if errors.Is(err, errClosed) {
		err = nil
	}
	j.mu.Lock()
	if cerr := j.closeLocked(); err == nil {
		err = cerr
	}
	j.mu.Unlock()
	j.syncMu.Unlock()
	if j.syncerDone != nil {
		<-j.syncerDone
	}
	return err
}

func (j *Journal) closeLocked() error {
	if j.closed {
		return nil
	}
	j.closed = true
	var err error
	for _, seg := range j.segs {
		if cerr := seg.f.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := j.acks.close(); err == nil {
		err = cerr
	}
	// Last: once closed and acks.close have run, no Append (checks closed
	// under mu) or Ack (checks the log under acks.mu) kicks again.
	if j.kick != nil {
		close(j.kick)
	}
	return err
}
