package journal

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"unsafe"

	"safeweb/internal/event"
)

// readOracle is Read as it was before run reads: one ReadAt of one record.
// TestReadRunMatchesRead holds ReadRun to it.
func readOracle(j *Journal, offset int64, rec *Record) error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return errClosed
	}
	if offset < 0 || offset >= j.next.Load() {
		j.mu.Unlock()
		return fmt.Errorf("%w: %d (journal holds [%d,%d))", ErrOffsetOutOfRange, offset, j.first.Load(), j.next.Load())
	}
	if offset < j.first.Load() {
		j.mu.Unlock()
		return fmt.Errorf("%w: %d (journal holds [%d,%d))", ErrOffsetCompacted, offset, j.first.Load(), j.next.Load())
	}
	i := sort.Search(len(j.segs), func(i int) bool { return j.segs[i].base > offset }) - 1
	seg := j.segs[i]
	rel := offset - seg.base
	start := seg.pos[rel]
	end := seg.size
	if int(rel+1) < len(seg.pos) {
		end = seg.pos[rel+1]
	}
	f := seg.f
	j.mu.Unlock()

	buf := make([]byte, end-start)
	_, err := f.ReadAt(buf, start)
	if err == nil {
		_, err = decodeRecord(buf, rec, nil)
	}
	if err != nil {
		if offset < j.first.Load() {
			return fmt.Errorf("%w: %d", ErrOffsetCompacted, offset)
		}
		return fmt.Errorf("journal: read offset %d: %w", offset, err)
	}
	return nil
}

// sizedRecord is testRecord(i) with an image of at least size bytes.
func sizedRecord(i, size int) *Record {
	rec := testRecord(i)
	if pad := size - len(rec.Image); pad > 0 {
		rec.Image = append(rec.Image, bytes.Repeat([]byte{'p'}, pad)...)
	}
	return rec
}

// runSpan locates the records [off, off+n): the segment index of each end
// and the bytes they span.
func runSpan(j *Journal, off int64, n int) (firstSeg, lastSeg int, span int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	segOf := func(o int64) int {
		return sort.Search(len(j.segs), func(i int) bool { return j.segs[i].base > o }) - 1
	}
	firstSeg, lastSeg = segOf(off), segOf(off+int64(n)-1)
	if firstSeg != lastSeg || firstSeg < 0 {
		return firstSeg, lastSeg, 0
	}
	seg := j.segs[firstSeg]
	rel := int(off - seg.base)
	end := seg.size
	if rel+n < len(seg.pos) {
		end = seg.pos[rel+n]
	}
	return firstSeg, lastSeg, end - seg.pos[rel]
}

// checkRuns calls ReadRun at every offset around the readable range with
// every run length given, and holds each result to the oracle: the same
// error, or records equal to reading each offset alone; never across a
// segment or NextOffset; within maxRunBytes unless a lone record; and no
// shorter than those bounds force.
func checkRuns(t *testing.T, j *Journal, lengths ...int) {
	t.Helper()
	first, next := j.FirstOffset(), j.NextOffset()
	for off := min(first, 0) - 2; off <= next+1; off++ {
		for _, length := range lengths {
			recs := make([]Record, length)
			n, err := j.ReadRun(off, recs, nil)
			var want Record
			werr := readOracle(j, off, &want)
			if werr != nil {
				if err == nil || err.Error() != werr.Error() || n != 0 {
					t.Fatalf("ReadRun(%d, %d) = %d, %v; the oracle fails %v", off, length, n, err, werr)
				}
				continue
			}
			if err != nil || n < 1 || n > length || off+int64(n) > next {
				t.Fatalf("ReadRun(%d, %d) = %d, %v; want 1..%d records below NextOffset %d", off, length, n, err, length, next)
			}
			for k := 0; k < n; k++ {
				if err := readOracle(j, off+int64(k), &want); err != nil {
					t.Fatalf("oracle at %d: %v", off+int64(k), err)
				}
				got := recs[k]
				if got.Time != want.Time || got.Topic != want.Topic || got.Labels != want.Labels ||
					got.Split != want.Split || !bytes.Equal(got.Image, want.Image) {
					t.Fatalf("ReadRun(%d, %d) record %d differs from the oracle", off, length, k)
				}
			}
			fs, ls, span := runSpan(j, off, n)
			if fs != ls {
				t.Fatalf("ReadRun(%d, %d) = %d records across segments %d..%d", off, length, n, fs, ls)
			}
			if n > 1 && span > maxRunBytes {
				t.Fatalf("ReadRun(%d, %d) = %d records spanning %d bytes, above %d", off, length, n, span, maxRunBytes)
			}
			if n < length && off+int64(n) < next {
				if fs, ls, span := runSpan(j, off, n+1); fs == ls && span <= maxRunBytes {
					t.Fatalf("ReadRun(%d, %d) stopped at %d records; one more fits its segment and %d bytes", off, length, n, maxRunBytes)
				}
			}
		}
	}
}

// TestReadRunMatchesRead pins the run read to the one-record read it
// replaced, across segment rolls, a record larger than a run's byte bound,
// an unpublished SyncBatch tail, a compaction between runs and a closed
// journal.
func TestReadRunMatchesRead(t *testing.T) {
	lengths := []int{1, 2, 3, 7, 64}

	t.Run("segment rolls and a large record", func(t *testing.T) {
		j, err := Open(t.TempDir(), Options{SegmentSize: 256 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for i := 0; i < 300; i++ {
			size := 40 + i%7*300
			if i == 150 {
				size = maxRunBytes + 30000
			}
			mustAppend(t, j, sizedRecord(i, size))
		}
		if len(j.segs) < 2 {
			t.Fatalf("%d segments, want several", len(j.segs))
		}
		checkRuns(t, j, lengths...)
	})

	t.Run("unpublished SyncBatch tail", func(t *testing.T) {
		j, g := openSyncBatch(t, t.TempDir(), Options{})
		defer j.Close()
		for i := 0; i < 20; i++ {
			mustAppend(t, j, testRecord(i))
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		release := g.hold()
		defer release(nil)
		for i := 20; i < 30; i++ {
			mustAppend(t, j, testRecord(i))
		}
		g.waitHeld(t)
		if got := j.NextOffset(); got != 20 {
			t.Fatalf("NextOffset = %d with the batch's fsync held, want 20", got)
		}
		checkRuns(t, j, lengths...)
		release(nil)
		waitPublished(t, j, 30)
		checkRuns(t, j, lengths...)
	})

	t.Run("compaction between runs", func(t *testing.T) {
		j, err := Open(t.TempDir(), Options{SegmentSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for i := 0; i < 40; i++ {
			mustAppend(t, j, testRecord(i))
		}
		recs := make([]Record, 64)
		n, err := j.ReadRun(0, recs, nil)
		if err != nil || n < 1 {
			t.Fatalf("ReadRun(0) = %d, %v", n, err)
		}
		if err := j.Ack("g", 30); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Compact(); err != nil {
			t.Fatal(err)
		}
		if j.FirstOffset() <= int64(n) {
			t.Fatalf("FirstOffset = %d after compaction, want past the first run's %d records", j.FirstOffset(), n)
		}
		if _, err := j.ReadRun(int64(n), recs, nil); !errors.Is(err, ErrOffsetCompacted) {
			t.Fatalf("ReadRun past the compacted run: %v, want ErrOffsetCompacted", err)
		}
		checkRuns(t, j, lengths...)
	})

	t.Run("closed journal", func(t *testing.T) {
		j, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			mustAppend(t, j, testRecord(i))
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := j.ReadRun(0, make([]Record, 4), nil); !errors.Is(err, errClosed) {
			t.Fatalf("ReadRun on a closed journal: %v, want errClosed", err)
		}
		checkRuns(t, j, lengths...)
	})
}

// TestReadRunLabelsFromMemo: a run hands back the reader's memo's own
// string for every label header the memo holds, and an equal copy of any
// other; a header the reader has since parsed through the memo comes back
// as the memo's string on the next run.
func TestReadRunLabelsFromMemo(t *testing.T) {
	j, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	headers := []string{"label:conf:ward-a", "label:conf:ward-b", ""}
	for i := 0; i < 9; i++ {
		rec := testRecord(i)
		rec.Labels = headers[i%len(headers)]
		mustAppend(t, j, rec)
	}
	var memo event.LabelCache
	owned := func(hdr string) bool {
		return unsafe.StringData(memo.Header([]byte(hdr))) == unsafe.StringData(hdr)
	}
	check := func(held map[string]bool) {
		t.Helper()
		recs := make([]Record, 9)
		if n, err := j.ReadRun(0, recs, &memo); n != len(recs) || err != nil {
			t.Fatalf("ReadRun = %d, %v; want %d records", n, err, len(recs))
		}
		for i, rec := range recs {
			if want := headers[i%len(headers)]; rec.Labels != want {
				t.Fatalf("record %d labels %q, want %q", i, rec.Labels, want)
			}
			if rec.Labels != "" && owned(rec.Labels) != held[rec.Labels] {
				t.Errorf("record %d: header %q memo-owned %v, want %v", i, rec.Labels, !held[rec.Labels], held[rec.Labels])
			}
		}
	}
	if _, err := memo.Parse(headers[0]); err != nil {
		t.Fatal(err)
	}
	check(map[string]bool{headers[0]: true})
	if _, err := memo.Parse(string([]byte(headers[1]))); err != nil {
		t.Fatal(err)
	}
	check(map[string]bool{headers[0]: true, headers[1]: true})
}
