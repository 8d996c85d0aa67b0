package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"safeweb/internal/event"
)

// On-disk record framing. Every record — event records in segment files
// and ack records in the ack log — is stored as
//
//	u32 payload length | u32 CRC-32C of the payload | payload
//
// (all integers big-endian). The CRC covers the payload only; a torn
// write, a zeroed tail or a flipped bit fails the checksum and marks the
// end of the recoverable log. sealFrame builds the header and openFrame
// checks it, for both kinds of payload. An event-record payload is
//
//	u8  version (recordVersion)
//	u8  flags (flagHasLabels)
//	i64 publish timestamp, Unix nanoseconds
//	u32 wire-image split offset (see stomp.WireImage)
//	u16 topic length  | topic bytes
//	u16 label length  | label header bytes (present iff flagHasLabels)
//	u32 image length  | the event's STOMP MESSAGE wire-image bytes
//
// The image bytes are the event's publish-time stomp.WireImage verbatim:
// append re-uses the encoding the fan-out path already produced, and
// replay hands the stored bytes straight back to the wire
// (stomp.RawMessageImage), so neither direction re-marshals the event.

const (
	// recordVersion is the event-record payload version; decode rejects
	// anything else so a future format change cannot be misread.
	recordVersion = 1

	// flagHasLabels marks a record whose event carried security labels;
	// unlabelled events skip the label field entirely.
	flagHasLabels = 1 << 0

	// frameHeaderLen is the length+CRC framing prefix.
	frameHeaderLen = 8

	// maxRecordSize bounds a single framed record. The scan on Open trusts
	// the length field only up to this bound, so a corrupt length cannot
	// make recovery attempt a multi-gigabyte allocation.
	maxRecordSize = 16 << 20
)

// castagnoli is the CRC-32C table shared by all framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptRecord reports a record that failed its CRC or structural
// decode — the fail-closed signal for both recovery truncation and the
// fuzz harness.
var ErrCorruptRecord = errors.New("journal: corrupt record")

// Record is one journaled event: the publish-time wire image plus the
// framing replay needs to re-route and re-check it.
type Record struct {
	// Time is the append timestamp in Unix nanoseconds.
	Time int64
	// Topic is the destination the event was published to.
	Topic string
	// Labels is the event's label header in its sorted wire form
	// (label.Set.String()), empty for unlabelled events. Replay re-parses
	// it and re-enforces clearance at read time.
	Labels string
	// Split is the wire image's routing-header splice offset.
	Split int
	// Image is the event's preencoded STOMP MESSAGE image bytes.
	Image []byte
}

// sealFrame fills in the header of the frame that starts at dst[base] —
// frameHeaderLen reserved bytes followed by the payload — and returns dst.
func sealFrame(dst []byte, base int) ([]byte, error) {
	if len(dst)-base > maxRecordSize {
		return dst[:base], fmt.Errorf("journal: record too large (%d bytes, max %d)", len(dst)-base, maxRecordSize)
	}
	payload := dst[base+frameHeaderLen:]
	binary.BigEndian.PutUint32(dst[base:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[base+4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

// openFrame checks the frame at the front of b and returns its payload and
// framed length. A truncated frame, a length past maxRecordSize or a CRC
// mismatch is ErrCorruptRecord.
func openFrame(b []byte) ([]byte, int, error) {
	if len(b) < frameHeaderLen {
		return nil, 0, fmt.Errorf("%w: truncated frame header", ErrCorruptRecord)
	}
	n := frameHeaderLen + int(binary.BigEndian.Uint32(b))
	if n > maxRecordSize {
		return nil, 0, fmt.Errorf("%w: length %d exceeds record bound", ErrCorruptRecord, n-frameHeaderLen)
	}
	if len(b) < n {
		return nil, 0, fmt.Errorf("%w: truncated payload", ErrCorruptRecord)
	}
	if crc32.Checksum(b[frameHeaderLen:n], castagnoli) != binary.BigEndian.Uint32(b[4:]) {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorruptRecord)
	}
	return b[frameHeaderLen:n], n, nil
}

// appendRecord appends the framed wire form of rec to dst.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	if len(rec.Topic) > 0xFFFF {
		return dst, fmt.Errorf("journal: topic too long (%d bytes)", len(rec.Topic))
	}
	if len(rec.Labels) > 0xFFFF {
		return dst, fmt.Errorf("journal: label header too long (%d bytes)", len(rec.Labels))
	}
	if rec.Split < 0 || rec.Split > len(rec.Image) {
		return dst, fmt.Errorf("journal: image split %d out of range [0,%d]", rec.Split, len(rec.Image))
	}
	flags := byte(0)
	if rec.Labels != "" {
		flags |= flagHasLabels
	}
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, recordVersion, flags)
	dst = binary.BigEndian.AppendUint64(dst, uint64(rec.Time))
	dst = binary.BigEndian.AppendUint32(dst, uint32(rec.Split))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(rec.Topic)))
	dst = append(dst, rec.Topic...)
	if flags&flagHasLabels != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(rec.Labels)))
		dst = append(dst, rec.Labels...)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.Image)))
	dst = append(dst, rec.Image...)
	return sealFrame(dst, base)
}

// decodeRecord parses one framed record from the front of b into rec and
// returns the framed length consumed. Truncated input, a failed CRC, an
// unknown version or any structural mismatch returns ErrCorruptRecord;
// recovery treats every such failure as the torn tail of the log. The
// decoded Image aliases b, so b must be a buffer nobody writes again (every
// read allocates a fresh one). Topic and Labels never alias b: a string
// rec already holds is kept when equal, so a reader that decodes into the
// same Records again copies a repeated topic only once. Any other label
// header is the memo's own string when labels holds it (see
// event.LabelCache.Header), and a copy only on a miss, so a reader that
// parses its headers through the same memo copies each one once.
func decodeRecord(b []byte, rec *Record, labels *event.LabelCache) (int, error) {
	payload, n, err := openFrame(b)
	if err != nil {
		return 0, err
	}
	if len(payload) < 1+1+8+4+2 {
		return 0, fmt.Errorf("%w: payload too short", ErrCorruptRecord)
	}
	if payload[0] != recordVersion {
		return 0, fmt.Errorf("%w: unknown record version %d", ErrCorruptRecord, payload[0])
	}
	rec.Time = int64(binary.BigEndian.Uint64(payload[2:]))
	split := int(binary.BigEndian.Uint32(payload[10:]))
	p := payload[14:]

	topicLen := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < topicLen {
		return 0, fmt.Errorf("%w: truncated topic", ErrCorruptRecord)
	}
	rec.Topic = keepString(rec.Topic, p[:topicLen])
	p = p[topicLen:]

	hdr := p[:0]
	if payload[1]&flagHasLabels != 0 {
		if len(p) < 2 {
			return 0, fmt.Errorf("%w: truncated label length", ErrCorruptRecord)
		}
		labelLen := int(binary.BigEndian.Uint16(p))
		p = p[2:]
		if len(p) < labelLen {
			return 0, fmt.Errorf("%w: truncated labels", ErrCorruptRecord)
		}
		hdr, p = p[:labelLen], p[labelLen:]
	}
	if rec.Labels != string(hdr) {
		rec.Labels = labels.Header(hdr)
	}

	if len(p) < 4 {
		return 0, fmt.Errorf("%w: truncated image length", ErrCorruptRecord)
	}
	imageLen := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if len(p) != imageLen {
		return 0, fmt.Errorf("%w: image length %d does not match remaining payload %d", ErrCorruptRecord, imageLen, len(p))
	}
	if split > imageLen {
		return 0, fmt.Errorf("%w: split %d beyond image length %d", ErrCorruptRecord, split, imageLen)
	}
	rec.Split = split
	rec.Image = p[:imageLen:imageLen]
	return n, nil
}

// keepString returns s when it equals b, and b as a new string otherwise.
func keepString(s string, b []byte) string {
	if s == string(b) {
		return s
	}
	return string(b)
}

// Ack records are framed identically; their payload is
//
//	u16 group length | group bytes
//	i64 cumulative acked offset
//
// and the log is append-only: the live ack of a group is the maximum
// offset of its records, so a duplicate or reordered append can never
// regress a group (the same CAS-max discipline the credit window uses).

// appendAckRecord appends the framed wire form of one (group, offset) ack.
func appendAckRecord(dst []byte, group string, offset int64) ([]byte, error) {
	if len(group) > 0xFFFF {
		return dst, fmt.Errorf("journal: group too long (%d bytes)", len(group))
	}
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(group)))
	dst = append(dst, group...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(offset))
	return sealFrame(dst, base)
}

// decodeAckRecord parses one framed ack record from the front of b,
// returning the framed length consumed.
func decodeAckRecord(b []byte) (group string, offset int64, n int, err error) {
	payload, n, err := openFrame(b)
	if err != nil {
		return "", 0, 0, err
	}
	if len(payload) < 2+8 {
		return "", 0, 0, fmt.Errorf("%w: ack payload too short", ErrCorruptRecord)
	}
	groupLen := int(binary.BigEndian.Uint16(payload))
	if len(payload) != 2+groupLen+8 {
		return "", 0, 0, fmt.Errorf("%w: ack group length mismatch", ErrCorruptRecord)
	}
	return string(payload[2 : 2+groupLen]), int64(binary.BigEndian.Uint64(payload[2+groupLen:])), n, nil
}
