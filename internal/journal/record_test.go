package journal

import (
	"encoding/hex"
	"testing"
)

// TestRecordBytesPinned pins the on-disk format: the framed bytes of a
// labelled event record, an unlabelled one and an ack record. A journal
// written by one build must open under the next, so any change here is a
// format change and needs a new recordVersion.
func TestRecordBytesPinned(t *testing.T) {
	labelled, err := appendRecord(nil, &Record{
		Time:   1_700_000_000_123_456_789,
		Topic:  "/mdt/7",
		Labels: "label:conf:ecric.org.uk/mdt/7",
		Split:  27, // the routing-header splice, ahead of content-length
		Image:  []byte("MESSAGE\ndestination:/mdt/7\ncontent-length:2\n\nhi\x00"),
	})
	if err != nil {
		t.Fatal(err)
	}
	unlabelled, err := appendRecord(nil, &Record{
		Time:  -1,
		Topic: "/t",
		Split: 0,
		Image: []byte("MESSAGE\n\n\x00"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := appendAckRecord(nil, "group-a", 1<<40+7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"labelled", labelled, "0000006976e3e85e010117979cfe3d85cd150000001b00062f6d64742f37001d6c6162656c3a636f6e663a65637269632e6f72672e756b2f6d64742f37000000304d4553534147450a64657374696e6174696f6e3a2f6d64742f370a636f6e74656e742d6c656e6774683a320a0a686900"},
		{"unlabelled", unlabelled, "00000020ab108cc50100ffffffffffffffff0000000000022f740000000a4d4553534147450a0a00"},
		{"ack", ack, "0000001100a599f7000767726f75702d610000010000000007"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s record bytes changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
