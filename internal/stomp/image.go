package stomp

import (
	"io"
	"strconv"
)

// WireImage is the preencoded, immutable wire form of one frame: the
// canonical header block and the content-length/body tail, with splice
// points where per-send headers are inserted. For broadcast MESSAGE
// frames the per-delivery routing headers (subscription, message-id) go
// in at the end of the header block via Encoder.EncodeImage; for
// publisher SEND frames an optional receipt header goes in at its sorted
// position via Encoder.EncodeSendImage, keeping the wire bytes identical
// to a frame encoded with the receipt in its header map.
//
// An image is encoded once — at first delivery of a published event, or
// at publish time on the producer — and then shared by every send of the
// same logical frame: fan-out to S sessions (or S retried/fan-in
// publishes) costs one marshal instead of S. The backing buffer is
// immutable after ImageBuilder.Finish returns; images are safe for
// concurrent use and must never be mutated.
type WireImage struct {
	// buf holds the full image: command line plus sorted base headers up
	// to split, content-length header, blank line, body and the NUL
	// terminator after it.
	buf   []byte
	split int
	// rsplit is the offset where a "receipt" header sorts within the
	// header block; EncodeSendImage splices the per-publish receipt there
	// so the bytes match an Encoder.Encode of the same frame with the
	// receipt set in its map.
	rsplit int
}

// RawMessageImage makes *dst the image of already-encoded MESSAGE bytes —
// typically read back from a durable journal — without copying or
// re-marshalling: a reader fills one slot of a slab it allocates per batch
// of images. buf must be a full image as produced by package event's
// builder (command line, header block, content-length, body, NUL), and
// split its routing-header splice offset; both come verbatim from Bytes
// and Split of the image that was persisted. The caller hands over
// ownership: neither buf nor *dst may be mutated afterwards.
func RawMessageImage(dst *WireImage, buf []byte, split int) {
	*dst = WireImage{buf: buf, split: split, rsplit: split}
}

// Bytes returns the full encoded image. The returned slice aliases the
// image and must not be modified; pair it with Split to persist an image
// and RawMessageImage to restore it.
func (img *WireImage) Bytes() []byte { return img.buf }

// Split returns the routing-header splice offset within Bytes.
func (img *WireImage) Split() int { return img.split }

// Prefix returns the command line and canonical (sorted, escaped) header
// block, ending just before the splice point for the routing headers.
// The returned slice aliases the image and must not be modified.
func (img *WireImage) Prefix() []byte { return img.buf[:img.split:img.split] }

// Suffix returns the content-length header, the blank separator line, the
// body and the frame's NUL terminator. The returned slice aliases the
// image and must not be modified.
func (img *WireImage) Suffix() []byte { return img.buf[img.split:] }

// WireLen returns the encoded size of the image excluding the per-delivery
// routing headers.
func (img *WireImage) WireLen() int { return len(img.buf) }

// ImageBuilder assembles a WireImage — SEND or MESSAGE — from headers
// supplied one at a time, with no intermediate header map (package event
// encodes an event's fields straight in, one routine for both frame
// kinds). Callers must supply headers in the canonical sorted order the
// Encoder emits, and must not pass content-length (derived from the body
// by Finish) nor, for images destined for EncodeImage, the subscription
// and message-id routing headers. The bytes an image puts on the wire are
// Encoder.Encode's for the same headers and body, with the per-send
// headers spliced in.
type ImageBuilder struct {
	buf    []byte
	rsplit int
}

// NewImageBuilder starts an image for the given command. sizeHint should
// estimate the full encoded size so the common case builds the image in a
// single allocation.
func NewImageBuilder(command string, sizeHint int) ImageBuilder {
	b := ImageBuilder{rsplit: -1}
	b.buf = make([]byte, 0, sizeHint)
	b.buf = append(b.buf, command...)
	b.buf = append(b.buf, '\n')
	return b
}

// Header appends one header, escaping key and value. Headers must arrive
// in canonical sorted key order.
func (b *ImageBuilder) Header(k, v string) {
	if b.rsplit < 0 && k > HdrReceipt {
		b.rsplit = len(b.buf)
	}
	b.buf = appendEscapedHeader(b.buf, k)
	b.buf = append(b.buf, ':')
	b.buf = appendEscapedHeader(b.buf, v)
	b.buf = append(b.buf, '\n')
}

// Finish seals the image with the content-length header derived from
// body, the body itself and the frame terminator. body is copied; the
// caller keeps ownership. The builder must not be reused afterwards.
func (b *ImageBuilder) Finish(body []byte) WireImage {
	split := len(b.buf)
	if b.rsplit < 0 {
		b.rsplit = split
	}
	buf := append(b.buf, HdrContentLength...)
	buf = append(buf, ':')
	buf = strconv.AppendInt(buf, int64(len(body)), 10)
	buf = append(buf, '\n', '\n')
	buf = append(buf, body...)
	buf = append(buf, 0)
	b.buf = nil
	return WireImage{buf: buf, split: split, rsplit: b.rsplit}
}

// Route addresses one delivery of a shared MESSAGE image: the values of
// the per-delivery headers that exist only on the wire. A live delivery
// and a replayed journal record route alike.
type Route struct {
	// Subscription is the client-chosen subscription id.
	Subscription string
	// IDPrefix and Seq form the message-id (prefix followed by the
	// decimal seq).
	IDPrefix string
	Seq      uint64
}

// EncodeImage writes a preencoded MESSAGE image to w with the per-delivery
// subscription and message-id (idPrefix followed by the decimal seq)
// routing headers spliced between the image's header block and its tail.
// Only the routing headers are encoded per delivery; the shared image is
// written as-is, so a fan-out burst pays the header/body marshalling cost
// once per published event rather than once per session.
//
//safeweb:hotpath
func (e *Encoder) EncodeImage(w io.Writer, img *WireImage, subscription, idPrefix string, seq uint64) error {
	return e.encodeRouted(w, img, Route{Subscription: subscription, IDPrefix: idPrefix, Seq: seq})
}

// encodeRouted is the one routing-header splice: the image's header
// block, then subscription and message-id, then the image's tail. The stored image bytes are
// written as-is on both sides of the splice.
//
//safeweb:hotpath
func (e *Encoder) encodeRouted(w io.Writer, img *WireImage, r Route) error {
	if _, err := w.Write(img.Prefix()); err != nil {
		return err
	}
	b := e.buf[:0]
	b = append(b, HdrSubscription...)
	b = append(b, ':')
	b = appendEscapedHeader(b, r.Subscription)
	b = append(b, '\n')
	b = append(b, HdrMessageID...)
	b = append(b, ':')
	b = appendEscapedHeader(b, r.IDPrefix)
	b = strconv.AppendUint(b, r.Seq, 10)
	b = append(b, '\n')
	if cap(b) <= maxRetainedEncodeBuf {
		e.buf = b[:0]
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err := w.Write(img.Suffix())
	return err
}

// EncodeSendImage writes a preencoded SEND image to w, splicing the
// per-publish receipt header (when receipt is non-empty) at its canonical
// sorted position within the header block. The wire bytes are identical
// to an Encoder.Encode of the same logical frame with the receipt set in
// its header map — the producer fast path changes where the bytes come
// from, never what is on the wire. A receipt-free send writes the shared
// image in a single Write.
//
//safeweb:hotpath
func (e *Encoder) EncodeSendImage(w io.Writer, img *WireImage, receipt string) error {
	return e.encodeSend(w, img, receipt, 0)
}

// encodeSend is EncodeSendImage for receipt id, or for receipt number n
// when n is non-zero, formatted straight into the scratch buffer: the
// bytes are those of receipt strconv.FormatUint(n, 10), with no string
// built. Neither id nor n asks for no receipt.
//
//safeweb:hotpath
func (e *Encoder) encodeSend(w io.Writer, img *WireImage, id string, n uint64) error {
	if id == "" && n == 0 {
		_, err := w.Write(img.buf)
		return err
	}
	b := append(appendReceiptID(append(e.buf[:0], HdrReceipt+":"...), id, n), '\n')
	if cap(b) <= maxRetainedEncodeBuf {
		e.buf = b[:0]
	}
	if _, err := w.Write(img.buf[:img.rsplit:img.rsplit]); err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err := w.Write(img.buf[img.rsplit:])
	return err
}

// appendReceiptID appends a receipt id to b, escaped: the decimal n when n
// is non-zero, id otherwise.
func appendReceiptID(b []byte, id string, n uint64) []byte {
	if n != 0 {
		return strconv.AppendUint(b, n, 10)
	}
	return appendEscapedHeader(b, id)
}

// encodeReceipt writes the RECEIPT frame confirming receipt id — the
// decimal n when n is non-zero, id otherwise — straight from the scratch
// buffer: no Frame, no header map, and no string for a numbered id. The
// wire bytes are Encoder.Encode's for a RECEIPT frame whose one header is
// receipt-id.
func (e *Encoder) encodeReceipt(w io.Writer, id string, n uint64) error {
	b := appendReceiptID(append(e.buf[:0], CmdReceipt+"\n"+HdrReceiptID+":"...), id, n)
	b = append(b, "\n"+HdrContentLength+":0\n\n\x00"...)
	if cap(b) <= maxRetainedEncodeBuf {
		e.buf = b[:0]
	}
	_, err := w.Write(b)
	return err
}

// encodeAck writes the ACK frame for an ack slot straight from the
// scratch buffer. It clears queued before it loads the values: a release
// that stores after the load then finds the slot unqueued and queues
// another frame, so no value is left behind. The wire bytes are
// Encoder.Encode's for the ACK frame with the same headers.
//
//safeweb:hotpath
func (e *Encoder) encodeAck(w io.Writer, s *AckSlot) error {
	s.queued.Store(false)
	credit, offset := s.credit.Load(), s.offset.Load()
	b := append(e.buf[:0], CmdAck+"\n"...)
	if credit > 0 {
		b = append(strconv.AppendInt(append(b, HdrCredit+":"...), credit, 10), '\n')
	}
	if offset > 0 {
		b = append(strconv.AppendInt(append(b, HdrOffset+":"...), offset, 10), '\n')
	}
	b = append(b, HdrSubscription+":"...)
	b = appendEscapedHeader(b, s.sub)
	b = append(b, "\n"+HdrContentLength+":0\n\n\x00"...)
	if cap(b) <= maxRetainedEncodeBuf {
		e.buf = b[:0]
	}
	_, err := w.Write(b)
	return err
}
