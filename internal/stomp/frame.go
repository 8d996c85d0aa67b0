// Package stomp implements the Streaming Text Oriented Messaging Protocol
// used as the wire protocol of SafeWeb's event broker (paper §4.2): "each
// request consists of a command, such as CONNECT, SEND or SUBSCRIBE, a set
// of optional headers and an optional body."
//
// The implementation covers the STOMP 1.0/1.1 frame format with 1.1 header
// escaping, content-length handling, receipts, and TLS at the transport
// layer. SafeWeb's label extensions ride in ordinary headers (see package
// event); the codec itself is label-agnostic.
//
// # Decode fast path
//
// Frame is the mutable, map-backed representation; the decode hot path
// never builds it. Decoder.DecodeView yields a FrameView whose HeaderView
// is a flat key/value span slice over the decoder's reused scratch buffer,
// with common header keys and all commands interned. Ownership rules:
//
//   - A HeaderView (and its FrameView) is confined to the goroutine running
//     the owning Decoder — one read loop per connection — and is
//     invalidated by that Decoder's next Decode/DecodeView call. Never
//     retain one across frames; copy what you keep (Get/Key/Value/Map
//     return owned data, KeyBytes/ValueBytes do not).
//   - The view's Body is freshly allocated per frame and its ownership
//     transfers to the consumer (package event hands it to the decoded
//     event without copying).
//   - The header map is materialised lazily — FrameView.Materialize — only
//     for callers that mutate headers or retain the frame; Decoder.Decode
//     remains as that compatibility path.
//
// # Encode fast path
//
// The encode counterpart is the preencoded WireImage: ImageBuilder
// freezes a MESSAGE's canonical header block and body into an immutable
// byte image once, and Encoder.EncodeImage splices only the per-delivery
// subscription/message-id routing headers around it. Images are immutable
// and safe for concurrent use — the broker builds one per published event
// (event.Event.WireImage) and shares it across every session, so fan-out
// to S sessions costs one marshal instead of S. Wire bytes are the
// reference Encoder.Encode's for the same logical frame, with the routing
// headers spliced in just ahead of content-length.
//
// The producer side is the same builder: it assembles a SEND image
// directly from ordered headers (no map — package event encodes an
// event's fields straight in, event.Event.SendImage), and
// Encoder.EncodeSendImage writes it with the per-publish receipt header
// spliced at its canonical sorted position, so the bytes are identical to
// encoding the same frame with the receipt in its header map.
//
// # Receipts
//
// A client's receipts are a per-connection count: every
// receipt-requesting frame carries the next decimal number, from 1, and
// because the broker answers a connection's frames in order, RECEIPT n
// confirms every m ≤ n. The client keeps one confirmed number, and a
// RECEIPT naming anything but a number it sent changes nothing.
// Client.SendImageAsync returns the number, which the connection writer
// formats straight into the SEND, and Client.WaitReceipt settles it
// later, so a producer keeps a window of sends in flight — a count, not a
// set of pending receipts — instead of paying a round trip per publish.
// Every writer, client or session, flushes only when it has drained its
// queue or filled its buffer, so RECEIPTs queued while a session's writer
// was busy leave in one write, as MESSAGE bursts do.
//
// # Flow control and slow consumers
//
// Every connection writes through a single coalescing writer goroutine
// draining a bounded queue (ServerConfig.WriteQueueLen for a session,
// default 128, negative lengths rejected at construction; 128 for a
// client). The queue is where a peer that stops reading becomes visible.
// A session has two enqueue entry points: Session.Send for control
// frames, and Session.Deliver for routed MESSAGE images, whose
// EnqueueMode picks what a full queue does — EnqueueBlock waits (lossless
// back-pressure) and EnqueueTry fails fast and leaves the overflow
// decision to the caller. A queued frame is never dropped on its own: it
// is written, or lost with its whole connection. ServerConfig.WriteTimeout arms a per-write deadline on each session,
// re-armed before every encode and flush, so a peer making progress is
// never penalised for batch size while a stalled one fails its connection
// with a sticky error instead of wedging the writer; and Session.Kill
// severs a connection without draining, for callers evicting a consumer
// that demonstrably stopped reading. Queue occupancy highs are tracked per
// session (Session.QueueHighWater) as the early-warning signal.
//
// # Credit-based flow control
//
// The queue disciplines above are reactive — they decide what to do once
// a consumer's queue has already filled. The proactive half rides the
// protocol itself: a SUBSCRIBE frame may advertise a delivery window in a
// credit header, and the consumer replenishes it with ACK frames carrying
// a cumulative grant (an AckSlot). Grants are cumulative and idempotent,
// so they coalesce — a busy consumer sends one per write batch, not one
// per message — and tolerate duplication or reordering.
// See credit.go for the shared header name and the fail-closed parser;
// the broker-side window accounting lives in package broker. A SUBSCRIBE
// without the credit header is byte-identical to today's wire behaviour.
package stomp

import (
	"fmt"
	"strconv"
	"strings"
)

// Standard STOMP commands.
const (
	CmdConnect     = "CONNECT"
	CmdConnected   = "CONNECTED"
	CmdSend        = "SEND"
	CmdSubscribe   = "SUBSCRIBE"
	CmdUnsubscribe = "UNSUBSCRIBE"
	CmdMessage     = "MESSAGE"
	CmdReceipt     = "RECEIPT"
	CmdError       = "ERROR"
	CmdDisconnect  = "DISCONNECT"
	CmdAck         = "ACK"
	CmdNack        = "NACK"
	CmdBegin       = "BEGIN"
	CmdCommit      = "COMMIT"
	CmdAbort       = "ABORT"
)

// Common header names.
const (
	HdrDestination   = "destination"
	HdrSelector      = "selector"
	HdrID            = "id"
	HdrSubscription  = "subscription"
	HdrMessageID     = "message-id"
	HdrReceipt       = "receipt"
	HdrReceiptID     = "receipt-id"
	HdrContentLength = "content-length"
	HdrLogin         = "login"
	HdrPasscode      = "passcode"
	HdrSession       = "session"
	HdrMessage       = "message"
	HdrVersion       = "version"
)

// MaxHeaderLen bounds a single header line; MaxBodyLen bounds frame bodies.
// Both protect the broker from unbounded memory use on malformed input.
const (
	MaxHeaderLen = 64 * 1024
	MaxBodyLen   = 16 * 1024 * 1024
	maxHeaders   = 256
)

// Frame is a single STOMP frame.
type Frame struct {
	// Command is the frame command, e.g. "SEND".
	Command string
	// Headers holds the frame headers. Values are unescaped.
	Headers map[string]string
	// Body is the optional frame body.
	Body []byte
}

// NewFrame creates a frame with an initialised header map.
func NewFrame(command string) *Frame {
	return &Frame{Command: command, Headers: make(map[string]string)}
}

// Header returns the value of the named header, or "".
func (f *Frame) Header(name string) string { return f.Headers[name] }

// SetHeader sets a header, initialising the map if needed.
func (f *Frame) SetHeader(name, value string) {
	if f.Headers == nil {
		f.Headers = make(map[string]string)
	}
	f.Headers[name] = value
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	out := &Frame{Command: f.Command}
	if f.Headers != nil {
		out.Headers = make(map[string]string, len(f.Headers))
		for k, v := range f.Headers {
			out.Headers[k] = v
		}
	}
	if f.Body != nil {
		out.Body = append([]byte(nil), f.Body...)
	}
	return out
}

// String renders the frame for logs (headers sorted, body length only).
// It shares the encoder's sorted-key helper and avoids fmt on the per-
// header path, since it runs per frame when Logf tracing is enabled.
func (f *Frame) String() string {
	keys := sortedHeaderKeys(make([]string, 0, len(f.Headers)), f.Headers, "")
	var b strings.Builder
	b.WriteString(f.Command)
	for _, k := range keys {
		b.WriteByte(' ')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(f.Headers[k]))
	}
	if len(f.Body) > 0 {
		b.WriteString(" body=")
		b.WriteString(strconv.Itoa(len(f.Body)))
		b.WriteByte('B')
	}
	return b.String()
}

// ProtocolError reports a malformed frame.
type ProtocolError struct{ Msg string }

// Error implements the error interface.
func (e *ProtocolError) Error() string { return "stomp: " + e.Msg }

func protoErrorf(format string, args ...any) error {
	return &ProtocolError{Msg: fmt.Sprintf(format, args...)}
}
