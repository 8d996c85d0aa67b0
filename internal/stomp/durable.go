package stomp

import "strconv"

// Durable-topic replay rides the same frames credit flow control does:
//
//   - SUBSCRIBE may carry an offset header ("earliest", "next", or a
//     non-negative decimal offset) selecting where replay of a durable
//     topic starts, and a group header naming the consumer group whose
//     cumulative acked offset the subscription resumes from (and
//     advances). A SUBSCRIBE with neither header is a plain live
//     subscription, byte-identical to today's wire behaviour. A start
//     position below the journal's retained lower bound (journals are
//     compacted; see package journal) is clamped up to the oldest
//     retained record — the broker counts the clamp, it is never silent.
//   - ACK may carry an offset header holding the consumer's cumulative
//     progress: every journal record below the offset is processed. Like
//     credit grants, offset acks are cumulative and idempotent — the live
//     value is the maximum ever acked, so duplicated or reordered acks
//     can only be no-ops. One ACK frame may carry an offset ack, a credit
//     grant, or both; the broker applies whichever are present.
//   - MESSAGE frames replayed from a journal carry the record's offset in
//     the reserved HdrDeliveryOffset header, which is what the consumer
//     acks once its handler completes.
//
// This file holds the shared pieces: header names and fail-closed
// parsers. A client sends offset acks, and credit grants with them,
// through a subscription's AckSlot (client.go). Journal storage and the
// replay feed live in packages journal and broker.

// HdrOffset is the SUBSCRIBE header selecting a replay start position and
// the ACK header carrying a cumulative offset ack.
const HdrOffset = "offset"

// HdrGroup is the SUBSCRIBE header naming the durable consumer group.
const HdrGroup = "group"

// HdrDeliveryOffset is the reserved MESSAGE header carrying a replayed
// record's journal offset. It lives in the transport's reserved namespace
// (like the label headers) so it can never collide with an application
// attribute.
const HdrDeliveryOffset = "x-safeweb-offset"

// OffsetSpec is a parsed SUBSCRIBE offset header: where replay starts.
type OffsetSpec struct {
	// Earliest replays from the start of the journal.
	Earliest bool
	// Next skips the backlog and replays only records appended after the
	// subscription is established.
	Next bool
	// At is the absolute start offset when neither flag is set.
	At int64
}

// ParseOffsetSpec parses a SUBSCRIBE offset header: "earliest", "next",
// or a non-negative decimal offset. Anything else fails closed with a
// ProtocolError so a malformed spec rejects the subscription rather than
// silently picking a start position.
func ParseOffsetSpec(s string) (OffsetSpec, error) {
	switch s {
	case "earliest":
		return OffsetSpec{Earliest: true}, nil
	case "next":
		return OffsetSpec{Next: true}, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return OffsetSpec{}, protoErrorf("offset header %q: not earliest, next, or a decimal int64", s)
	}
	if n < 0 {
		return OffsetSpec{}, protoErrorf("offset header %q: must be non-negative", s)
	}
	return OffsetSpec{At: n}, nil
}

// ParseOffsetAck parses an ACK offset header value: a non-negative
// decimal int64 (acking offset 0 is a legal no-op restating "nothing
// processed yet"). Anything else fails closed with a ProtocolError.
func ParseOffsetAck(s string) (int64, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, protoErrorf("offset ack %q: not a decimal int64", s)
	}
	if n < 0 {
		return 0, protoErrorf("offset ack %q: must be non-negative", s)
	}
	return n, nil
}
