package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ackTable is the consumer groups' cumulative progress: the live maximum
// per group, and the append-only ack log it is folded from on open.
type ackTable struct {
	mu  sync.Mutex
	log *logFile // nil once closed
	// acked is each group's largest persisted ack.
	acked map[string]int64
	// err is the ack log's sticky failure, as appendErr is the segments'.
	err error
	buf []byte // record scratch, reused
}

// open scans dir's ack log, truncating its torn tail and folding every
// record into the per-group maximum.
func (a *ackTable) open(dir string) error {
	a.acked = make(map[string]int64)
	l, err := openLog(filepath.Join(dir, ackLogName), false, func(_ int64, b []byte) (int, error) {
		group, offset, n, err := decodeAckRecord(b)
		if err == nil {
			a.acked[group] = max(a.acked[group], offset)
		}
		return n, err
	})
	a.log = l
	return err
}

// min returns the offset every group has reached, or -1 when there are
// no groups.
func (a *ackTable) min() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := int64(-1)
	for _, off := range a.acked {
		if m < 0 || off < m {
			m = off
		}
	}
	return m
}

func (a *ackTable) close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.log == nil {
		return nil
	}
	err := a.log.f.Close()
	a.log = nil
	return err
}

// Ack records a consumer group's cumulative progress: every record below
// offset is processed. Acks are idempotent max-wins — an offset at or
// below the group's current mark is a no-op, so duplicated, reordered or
// replayed acks can never regress a group. Under SyncBatch the ack wakes
// the syncer as an append does and rides its next fsync: a power cut
// before it only loses acks, which re-deliver.
func (j *Journal) Ack(group string, offset int64) error {
	if group == "" {
		return errors.New("journal: empty ack group")
	}
	if offset < 0 {
		return fmt.Errorf("journal: negative ack offset %d", offset)
	}
	a := &j.acks
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.log == nil {
		return errClosed
	}
	if a.err != nil {
		return fmt.Errorf("journal: ack: %w", a.err)
	}
	if offset <= a.acked[group] {
		return nil
	}
	buf, err := appendAckRecord(a.buf[:0], group, offset)
	if err != nil {
		return err
	}
	a.buf = buf
	if err := j.appendLog(a.log, buf, &a.err); err != nil {
		return fmt.Errorf("journal: ack: %w", err)
	}
	a.acked[group] = offset
	j.kickSyncer()
	return nil
}

// Acked returns a group's cumulative acked offset — the offset replay
// resumes from. An unknown group is at zero: the whole log is unacked.
func (j *Journal) Acked(group string) int64 {
	j.acks.mu.Lock()
	defer j.acks.mu.Unlock()
	return j.acks.acked[group]
}

// rewriteAcks folds the ack log down to one record per group. The new log
// is staged in ackTmpName — written through the write seam and, unless
// SyncNever, fsynced — then renamed over the old one, so a crash leaves
// one log or the other, never a mix; the staged file's handle becomes the
// ack log.
func (j *Journal) rewriteAcks() error {
	a := &j.acks
	a.mu.Lock()
	defer a.mu.Unlock()
	buf := a.buf[:0]
	var err error
	for group, off := range a.acked {
		if buf, err = appendAckRecord(buf, group, off); err != nil {
			return err
		}
	}
	a.buf = buf
	tmp := filepath.Join(j.dir, ackTmpName)
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact acks: %w", err)
	}
	staged := &logFile{f: f}
	// A failed staged file is removed, so its restore failure is not kept.
	if err = j.appendLog(staged, buf, new(error)); err == nil && staged.dirty {
		err = j.fsync(f)
		staged.dirty = false
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(j.dir, ackLogName))
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("journal: compact acks: %w", err)
	}
	_ = a.log.f.Close()
	a.log = staged
	return nil
}
