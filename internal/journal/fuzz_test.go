package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"unsafe"
)

// FuzzJournalRecord drives the record codec both ways: structured inputs
// round-trip byte-exactly (the image aliasing the frame, and a reused
// Record keeping its equal strings), a corrupted CRC is rejected, and arbitrary or
// truncated bytes never panic the decoder — recovery feeds it whatever a
// crash left on disk, so "no panic, fail closed" is the contract.
func FuzzJournalRecord(f *testing.F) {
	f.Add(int64(1), "/t", "label:conf:a", 3, []byte("MESSAGE\n\nhi\x00"), []byte{})
	f.Add(int64(0), "", "", 0, []byte{}, []byte{})
	f.Add(int64(-5), "/a/b", "", 1, []byte{0, 1, 2}, []byte("trailing"))
	f.Add(int64(1<<40), "/x", "l", 0, bytes.Repeat([]byte{7}, 300), []byte{0xff, 0xff, 0xff, 0xff})

	// Compacted-log layouts: a surviving segment after prefix compaction
	// is a concatenation of valid frames whose offsets start well above
	// zero — the decoder sees them back to back during recovery scans.
	var compacted []byte
	for i := 40; i < 44; i++ {
		b, err := appendRecord(compacted, &Record{
			Time:   int64(1000 + i),
			Topic:  "/t",
			Labels: "label:conf:ward-a",
			Split:  5,
			Image:  []byte("MESSAGE\n\nbody\x00"),
		})
		if err != nil {
			f.Fatal(err)
		}
		compacted = b
	}
	f.Add(int64(1040), "/t", "label:conf:ward-a", 5, []byte("MESSAGE\n\nbody\x00"), compacted)
	// A torn compacted segment: the same layout cut mid-frame, the shape
	// a crash during retention leaves at the tail.
	f.Add(int64(1040), "/t", "", 0, []byte{}, compacted[:len(compacted)-9])
	// Frames preceded by garbage, as when a scan resumes misaligned.
	f.Add(int64(0), "", "", 0, []byte{}, append([]byte{0xde, 0xad}, compacted...))

	f.Fuzz(func(t *testing.T, tm int64, topic, labels string, split int, image, raw []byte) {
		// Encode → decode round-trip for any encodable record.
		rec := &Record{Time: tm, Topic: topic, Labels: labels, Split: split, Image: image}
		encoded, err := appendRecord(nil, rec)
		if err == nil {
			var got Record
			n, err := decodeRecord(encoded, &got, nil)
			if err != nil {
				t.Fatalf("decode of own encoding failed: %v", err)
			}
			if n != len(encoded) {
				t.Fatalf("decode consumed %d of %d bytes", n, len(encoded))
			}
			if got.Time != rec.Time || got.Topic != rec.Topic || got.Labels != rec.Labels ||
				got.Split != rec.Split || !bytes.Equal(got.Image, rec.Image) {
				t.Fatalf("round-trip mismatch: got %+v, want %+v", got, rec)
			}
			if cap(got.Image) != len(got.Image) || len(got.Image) > 0 && &got.Image[0] != &encoded[len(encoded)-len(image)] {
				t.Fatal("decoded image does not alias its frame, capped at its own length")
			}

			// Decoding into the same Record again keeps the strings it
			// holds when they are equal, and replaces them when not.
			kept := got
			if _, err := decodeRecord(encoded, &got, nil); err != nil {
				t.Fatalf("second decode: %v", err)
			}
			if !sameString(got.Topic, kept.Topic) || !sameString(got.Labels, kept.Labels) {
				t.Fatal("second decode replaced equal strings")
			}
			other, err := appendRecord(nil, &Record{Time: tm, Topic: topic + "/x", Labels: labels, Split: split, Image: image})
			if err == nil {
				if _, err := decodeRecord(other, &got, nil); err != nil {
					t.Fatalf("decode of the other topic: %v", err)
				}
				if got.Topic != topic+"/x" || !sameString(got.Labels, kept.Labels) {
					t.Fatalf("decode of the other topic: got topic %q, labels kept %v", got.Topic, sameString(got.Labels, kept.Labels))
				}
			}

			// Corrupt the CRC: the decode must reject, never accept.
			bad := append([]byte(nil), encoded...)
			bad[4] ^= 0x01
			if _, err := decodeRecord(bad, &got, nil); err == nil {
				t.Fatal("corrupt CRC accepted")
			}

			// Every truncation of a valid frame is rejected without panic.
			for cut := 0; cut < len(encoded); cut += 1 + len(encoded)/16 {
				if _, err := decodeRecord(encoded[:cut], &got, nil); err == nil {
					t.Fatalf("truncated frame (%d/%d bytes) accepted", cut, len(encoded))
				}
			}
		}

		// Arbitrary bytes: decode must not panic, and anything it does
		// accept must carry a valid CRC by construction.
		var got Record
		if n, err := decodeRecord(raw, &got, nil); err == nil {
			payload := raw[frameHeaderLen:n]
			if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(raw[4:]) {
				t.Fatal("decoder accepted a frame whose CRC does not verify")
			}
		}
		// Same for the ack codec.
		if g, off, n, err := decodeAckRecord(raw); err == nil {
			if n > len(raw) || off < -(1<<62) {
				t.Fatalf("ack decode out of bounds: group=%q n=%d", g, n)
			}
		}
	})
}

// FuzzJournalAckRecord round-trips the ack codec.
func FuzzJournalAckRecord(f *testing.F) {
	f.Add("group-a", int64(42))
	f.Add("", int64(0))
	f.Fuzz(func(t *testing.T, group string, offset int64) {
		encoded, err := appendAckRecord(nil, group, offset)
		if err != nil {
			return
		}
		g, off, n, err := decodeAckRecord(encoded)
		if err != nil {
			t.Fatalf("decode of own ack encoding failed: %v", err)
		}
		if g != group || off != offset || n != len(encoded) {
			t.Fatalf("ack round-trip: got (%q,%d,%d), want (%q,%d,%d)", g, off, n, group, offset, len(encoded))
		}
	})
}

// sameString reports whether a and b are the same string: equal, and
// backed by the same bytes.
func sameString(a, b string) bool {
	return a == b && (a == "" || unsafe.StringData(a) == unsafe.StringData(b))
}
