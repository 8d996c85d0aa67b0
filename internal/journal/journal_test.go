package journal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// testRecord builds a distinguishable record for offset i.
func testRecord(i int) *Record {
	img := []byte(fmt.Sprintf("MESSAGE\ndestination:/t\n\nbody-%d\x00", i))
	return &Record{
		Time:   int64(1000 + i),
		Topic:  "/t",
		Labels: "label:conf:ward-a",
		Split:  22,
		Image:  img,
	}
}

func mustAppend(t *testing.T, j *Journal, rec *Record) int64 {
	t.Helper()
	off, err := j.Append(rec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return off
}

func TestJournalAppendReadRoundTrip(t *testing.T) {
	j, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	const n = 10
	for i := 0; i < n; i++ {
		if off := mustAppend(t, j, testRecord(i)); off != int64(i) {
			t.Fatalf("append %d: got offset %d", i, off)
		}
	}
	if got := j.NextOffset(); got != n {
		t.Fatalf("NextOffset = %d, want %d", got, n)
	}
	var rec Record
	for i := 0; i < n; i++ {
		if err := j.Read(int64(i), &rec); err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		want := testRecord(i)
		if rec.Time != want.Time || rec.Topic != want.Topic || rec.Labels != want.Labels ||
			rec.Split != want.Split || !bytes.Equal(rec.Image, want.Image) {
			t.Fatalf("Read %d: got %+v, want %+v", i, rec, want)
		}
	}
	if err := j.Read(n, &rec); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("Read past end: got %v, want ErrOffsetOutOfRange", err)
	}
	if err := j.Read(-1, &rec); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("Read(-1): got %v, want ErrOffsetOutOfRange", err)
	}
}

func TestJournalUnlabelledRecord(t *testing.T) {
	j, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, &Record{Topic: "/t", Image: []byte("x\x00"), Split: 1})
	var rec Record
	if err := j.Read(0, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Labels != "" {
		t.Fatalf("Labels = %q, want empty", rec.Labels)
	}
}

// TestJournalSegmentRoll forces tiny segments and checks reads span the
// roll and the reopened journal sees every record.
func TestJournalSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		mustAppend(t, j, testRecord(i))
	}
	segs, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	var rec Record
	for i := 0; i < n; i++ {
		if err := j.Read(int64(i), &rec); err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.NextOffset(); got != n {
		t.Fatalf("reopened NextOffset = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if err := j2.Read(int64(i), &rec); err != nil {
			t.Fatalf("reopened Read %d: %v", i, err)
		}
		if !bytes.Equal(rec.Image, testRecord(i).Image) {
			t.Fatalf("reopened Read %d: wrong image", i)
		}
	}
}

func TestJournalAckMaxWins(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Acked("g"); got != 0 {
		t.Fatalf("unknown group Acked = %d, want 0", got)
	}
	for _, off := range []int64{3, 7, 5, 7, 2} { // duplicates and regressions are no-ops
		if err := j.Ack("g", off); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Ack("h", 1); err != nil {
		t.Fatal(err)
	}
	if got := j.Acked("g"); got != 7 {
		t.Fatalf("Acked(g) = %d, want 7", got)
	}
	if err := j.Ack("", 1); err == nil {
		t.Fatal("empty group Ack: want error")
	}
	if err := j.Ack("g", -1); err == nil {
		t.Fatal("negative Ack: want error")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Acks are persisted append-only and folded max-wins on reopen.
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Acked("g"); got != 7 {
		t.Fatalf("reopened Acked(g) = %d, want 7", got)
	}
	if got := j2.Acked("h"); got != 1 {
		t.Fatalf("reopened Acked(h) = %d, want 1", got)
	}
}

// TestJournalWaitAppend checks the tailing wait: a published record wins
// over done, an unpublished one does not, and a reader parked before an
// append is woken by it.
func TestJournalWaitAppend(t *testing.T) {
	j, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	closed := make(chan struct{})
	close(closed)
	if j.WaitAppend(0, closed) {
		t.Fatal("WaitAppend(0) reported a record before any append")
	}
	mustAppend(t, j, testRecord(0))
	if !j.WaitAppend(0, closed) {
		t.Fatal("WaitAppend(0) after its append lost to a closed done")
	}

	// A tailing reader sees records appended after it started waiting.
	stop := make(chan struct{})
	defer close(stop)
	got := make(chan bool, 1)
	go func() { got <- j.WaitAppend(1, stop) }()
	waitTailParked(t, 1)
	mustAppend(t, j, testRecord(1))
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("tailing reader's wait ended without the record")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tailing reader never woke")
	}
}

// waitTailParked waits until n readers are parked in WaitAppend.
func waitTailParked(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tailSite.Parked() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d readers parked in WaitAppend, want %d", tailSite.Parked(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJournalConcurrentReadersAndAppends exercises the lock split (reads
// outside the append lock) under -race.
func TestJournalConcurrentReadersAndAppends(t *testing.T) {
	j, err := Open(t.TempDir(), Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	const n = 200
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec Record
			next := int64(0)
			for next < n {
				end := j.NextOffset()
				for next < end {
					if err := j.Read(next, &rec); err != nil {
						t.Errorf("Read %d: %v", next, err)
						return
					}
					next++
				}
				if next < n {
					j.WaitAppend(next, nil)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		mustAppend(t, j, testRecord(i))
	}
	wg.Wait()
}

func TestJournalClosedErrors(t *testing.T) {
	j, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, testRecord(0))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(testRecord(1)); err == nil {
		t.Fatal("Append on closed journal: want error")
	}
	var rec Record
	if err := j.Read(0, &rec); err == nil {
		t.Fatal("Read on closed journal: want error")
	}
	if err := j.Ack("g", 1); err == nil {
		t.Fatal("Ack on closed journal: want error")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestJournalSyncAlways(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, testRecord(0))
	if err := j.Ack("g", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := filepath.Glob(filepath.Join(dir, "*.seg")); err != nil {
		t.Fatal(err)
	}
}
