package stomp

import "strconv"

// Credit flow control rides two frames of the ordinary STOMP vocabulary:
//
//   - SUBSCRIBE may carry a credit header advertising the consumer's
//     delivery window — the broker will put at most that many MESSAGE
//     frames on the wire for the subscription before further matched
//     deliveries park broker-side. A SUBSCRIBE without the header keeps
//     today's wire behaviour: infinite credit, byte-identical frames.
//   - ACK carries a replenishment grant: a subscription header naming the
//     wire subscription and a credit header holding the consumer's
//     cumulative delivery allowance (initial window + deliveries whose
//     processing has completed). Grants are cumulative and idempotent —
//     a duplicate or reordered grant can only be a no-op, never a
//     regression of the window — so the sender needs no delivery
//     tracking handshake, just a monotonic counter.
//
// This file holds the pieces both ends share: the header name and the
// fail-closed parser. A client sends grants through a subscription's
// AckSlot (client.go). The broker-side accounting (per-subscription
// atomic windows, the pending ring) lives in package broker.

// HdrCredit is the header carrying a delivery window on SUBSCRIBE and a
// cumulative replenishment grant on ACK.
const HdrCredit = "credit"

// ParseCredit parses a credit header value: a positive decimal int64.
// Anything else — empty, non-numeric, zero, negative, or overflowing —
// fails closed with a ProtocolError so a malformed grant can reject the
// frame but never grant.
func ParseCredit(s string) (int64, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, protoErrorf("credit header %q: not a decimal int64", s)
	}
	if n <= 0 {
		return 0, protoErrorf("credit header %q: must be positive", s)
	}
	return n, nil
}
