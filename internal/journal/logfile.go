package journal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// logFile is one CRC-framed append-only file: a segment or the ack log.
// It is the one place the rules for such a file live — Open's torn-tail
// scan (openLog), the write-then-restore append (Journal.appendLog) and
// the group commit's dirty flag — and none of them asks which file it
// serves.
type logFile struct {
	f *os.File
	// size is the committed length: what the open-time scan accepted plus
	// every append that succeeded, and the point a failed append restores.
	size int64
	// dirty marks bytes appended under SyncBatch that no group commit has
	// taken yet. Guarded by the owner's lock (mu for a segment, acks.mu
	// for the ack log); a group commit clears it when it takes the file,
	// before its fsync returns.
	dirty bool
}

// openLog opens (creating if needed) the log file at path and scans it
// frame by frame: visit decodes the frame at the front of b, found at
// file offset at, and returns its length. The first frame visit rejects
// ends the log — the torn or corrupt tail a crash mid-append leaves —
// and is truncated away, unless the file is sealed: a sealed segment has
// good records after it, so a bad frame there is interior corruption and
// fails the open rather than silently orphaning them.
func openLog(path string, sealed bool, visit func(at int64, b []byte) (int, error)) (*logFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	l := &logFile{f: f}
	data, err := os.ReadFile(path)
	for err == nil && l.size < int64(len(data)) {
		n, verr := visit(l.size, data[l.size:])
		if verr == nil {
			l.size += int64(n)
			continue
		}
		if sealed {
			err = fmt.Errorf("%s offset %d: %w", filepath.Base(path), l.size, verr)
		} else {
			// Torn tail: drop everything from the first bad frame on.
			err = f.Truncate(l.size)
		}
		break
	}
	if err == nil {
		_, err = f.Seek(l.size, io.SeekStart)
	}
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	return l, nil
}

// write is the file-write seam: the fault-injection hook, when armed,
// stands in for os.File.Write.
func (j *Journal) write(f *os.File, b []byte) (int, error) {
	if j.writeHook != nil {
		return j.writeHook(f, b)
	}
	return f.Write(b)
}

// fsync is the file-sync seam every journal fsync goes through: the
// fault-injection hook, when armed, stands in for os.File.Sync.
func (j *Journal) fsync(f *os.File) error {
	if j.syncHook != nil {
		return j.syncHook(f)
	}
	return f.Sync()
}

// appendLog appends b to l with one write through the write seam — every
// journal byte reaches a file this way — and fsyncs it under SyncAlways,
// which promises durability on return; under SyncBatch it marks l dirty
// for the group commit. A failed write or fsync leaves
// torn or unpromised bytes, so l is restored to its committed length:
// truncated AND re-seeked, or the next append would land past the
// truncation point and leave a zero-filled gap that Open rejects as
// interior corruption once the file is no longer last. If the restore
// itself fails the tear stays, and anything appended behind it would be
// lost at the next open, so the failure goes to *sticky, which fails the
// file's later appends until a reopen repairs the tail.
func (j *Journal) appendLog(l *logFile, b []byte, sticky *error) error {
	_, err := j.write(l.f, b)
	if err == nil && j.opts.Sync == SyncAlways {
		err = j.fsync(l.f)
	}
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			*sticky = fmt.Errorf("tail restore after %v: truncate: %w", err, terr)
		} else if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
			*sticky = fmt.Errorf("tail restore after %v: seek: %w", err, serr)
		}
		return err
	}
	l.size += int64(len(b))
	l.dirty = l.dirty || j.opts.Sync == SyncBatch
	return nil
}
