package stomp

import "strconv"

// Durable-topic replay rides the same frames credit flow control does:
//
//   - SUBSCRIBE may carry an offset header, "earliest" or "next", selecting
//     where replay of a durable topic starts, and a group header naming
//     the consumer group whose acked mark the subscription resumes from
//     (and advances). A SUBSCRIBE with neither header is a plain live
//     subscription, byte-identical to today's wire behaviour. There is no
//     absolute start: journal offsets stay inside the broker. A start
//     below the journal's retained lower bound (journals are compacted;
//     see package journal) is clamped up to the oldest retained record —
//     the broker counts the clamp, it is never silent.
//   - ACK may carry an offset header holding a delivery count k: the
//     subscription's first k deliveries are processed. The consumer
//     counts its own MESSAGE frames; the broker maps the count back to
//     the journal. Like credit grants, these acks are cumulative and
//     idempotent — a duplicated or reordered ack can only be a no-op. One
//     ACK frame may carry an offset ack, a credit grant, or both; the
//     broker applies both or, if either is invalid, neither. A grouped
//     subscription must ack: the broker stops sending once 4,096 of its
//     deliveries are unacked, and an ack reopens the window.
//   - A replayed MESSAGE carries the same headers as a live one: there is
//     no delivery-offset header, so a consumer cannot tell from its frames
//     how many records it was not cleared for.
//
// This file holds the shared pieces: header names and the fail-closed
// ack parser. A client sends offset acks, and credit grants with them,
// through a subscription's AckSlot (client.go). Journal storage and the
// replay feed live in packages journal and broker.

// HdrOffset is the SUBSCRIBE header selecting a replay start position and
// the ACK header carrying a cumulative delivery count.
const HdrOffset = "offset"

// HdrGroup is the SUBSCRIBE header naming the durable consumer group.
const HdrGroup = "group"

// ParseOffsetAck parses an ACK offset header value: a non-negative
// decimal int64 (acking 0 is a legal no-op restating "nothing processed
// yet"). Anything else fails closed with a ProtocolError.
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
