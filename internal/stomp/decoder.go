package stomp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
)

// maxRetainedDecodeBuf bounds the header scratch capacity a Decoder keeps
// between frames; one frame with huge headers must not pin its buffer for
// the connection's lifetime.
const maxRetainedDecodeBuf = 64 * 1024

// Decoder decodes STOMP frames from a stream. The line buffer, the header
// scratch buffer and the span slice are reused across frames, commands and
// common header keys are interned, and DecodeView exposes the headers
// map-free. A Decoder is not safe for concurrent use; each connection read
// loop owns one.
type Decoder struct {
	r     *bufio.Reader
	line  []byte
	hbuf  []byte
	spans []headerSpan
	view  FrameView
}

// NewDecoder wraps r in a Decoder; an existing *bufio.Reader is used
// directly rather than double-buffered.
func NewDecoder(r io.Reader) *Decoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 32*1024)
	}
	return &Decoder{r: br}
}

// Decode reads one frame, materialising the header map. It skips
// heart-beat newlines between frames and returns io.EOF at a clean end of
// stream. Read loops on the hot path use DecodeView instead and skip the
// map.
func (d *Decoder) Decode() (*Frame, error) {
	v, err := d.DecodeView()
	if err != nil {
		return nil, err
	}
	return v.Materialize(), nil
}

// DecodeView reads one frame into the decoder's reused FrameView: no
// header map, no per-header key/value string allocations — the headers are
// spans over a scratch buffer (see HeaderView for the ownership rules).
// The returned view and its headers are invalidated by the next
// Decode/DecodeView call; the body is freshly allocated and ownership
// transfers to the caller. Heart-beat newlines between frames are skipped
// and io.EOF reports a clean end of stream.
func (d *Decoder) DecodeView() (*FrameView, error) {
	// Invalidate the previous view and shed oversized scratch BEFORE
	// blocking on the socket: an idle connection must pin at most
	// maxRetainedDecodeBuf of header scratch, not the worst-case header
	// block of whatever frame happened to arrive last.
	d.view = FrameView{}
	if cap(d.hbuf) > maxRetainedDecodeBuf {
		d.hbuf = nil
	}

	// Skip inter-frame EOLs (heart-beats).
	var cmd string
	for {
		line, err := d.readLine()
		if err != nil {
			return nil, err
		}
		if len(line) > 0 {
			var ok bool
			cmd, ok = internCommand(line)
			if !ok {
				return nil, protoErrorf("unknown command %q", line)
			}
			break
		}
	}

	// Scan the header block into the reused span slice and scratch buffer.
	// content-length frames the body and never enters the view, matching
	// the header map the legacy path exposed.
	d.hbuf = d.hbuf[:0]
	d.spans = d.spans[:0]
	bodyLen := -1
	for i := 0; ; i++ {
		if i > maxHeaders {
			return nil, protoErrorf("too many headers")
		}
		line, err := d.readLine()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(line) == 0 {
			break
		}
		sep := bytes.IndexByte(line, ':')
		if sep < 0 {
			return nil, protoErrorf("malformed header line %q", line)
		}
		var sp headerSpan
		key, interned := internHeaderKey(line[:sep])
		sp.key = key
		sp.k0 = len(d.hbuf)
		if interned {
			// Interned names contain no escapable characters, so the raw
			// wire bytes are already the unescaped key.
			d.hbuf = append(d.hbuf, line[:sep]...)
		} else {
			d.hbuf, err = appendUnescapedHeader(d.hbuf, line[:sep])
			if err != nil {
				return nil, err
			}
		}
		sp.k1 = len(d.hbuf)
		sp.v0 = len(d.hbuf)
		d.hbuf, err = appendUnescapedHeader(d.hbuf, line[sep+1:])
		if err != nil {
			return nil, err
		}
		sp.v1 = len(d.hbuf)
		if interned && key == HdrContentLength {
			if bodyLen < 0 { // per spec, the first occurrence wins
				bodyLen, err = parseContentLength(d.hbuf[sp.v0:sp.v1])
				if err != nil {
					return nil, err
				}
			}
			d.hbuf = d.hbuf[:sp.k0] // framing only; drop it from the view
			continue
		}
		d.spans = append(d.spans, sp)
	}

	var body []byte
	if bodyLen >= 0 {
		if bodyLen > MaxBodyLen {
			return nil, protoErrorf("body of %d bytes exceeds limit", bodyLen)
		}
		body = make([]byte, bodyLen)
		if _, err := io.ReadFull(d.r, body); err != nil {
			return nil, fmt.Errorf("stomp: short body: %w", err)
		}
		terminator, err := d.r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("stomp: missing frame terminator: %w", err)
		}
		if terminator != 0 {
			return nil, protoErrorf("frame not NUL-terminated after body")
		}
	} else {
		// No content-length: body runs to the NUL terminator.
		var err error
		body, err = d.readBodyToNUL()
		if err != nil {
			return nil, err
		}
	}
	if len(body) == 0 {
		body = nil
	}

	d.view = FrameView{
		Command: cmd,
		Headers: HeaderView{buf: d.hbuf, spans: d.spans},
		Body:    body,
	}
	return &d.view, nil
}

// parseContentLength parses a content-length value. It accepts what
// strconv.Atoi accepts (an optional sign and decimal digits, so "-0" is a
// valid zero) and rejects negatives and anything that cannot fit a sane
// body length.
func parseContentLength(b []byte) (int, error) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i++
	}
	if i >= len(b) {
		return 0, protoErrorf("bad content-length %q", b)
	}
	var n int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, protoErrorf("bad content-length %q", b)
		}
		n = n*10 + int64(c-'0')
		if n > math.MaxInt32 { // out of any sane range; avoids overflow
			return 0, protoErrorf("bad content-length %q", b)
		}
	}
	if neg && n != 0 {
		return 0, protoErrorf("bad content-length %q", b)
	}
	return int(n), nil
}

// readBodyToNUL reads a terminator-delimited body, enforcing MaxBodyLen —
// a peer streaming garbage without ever sending the NUL must not grow the
// buffer unboundedly.
func (d *Decoder) readBodyToNUL() ([]byte, error) {
	var body []byte
	for {
		chunk, err := d.r.ReadSlice(0)
		body = append(body, chunk...)
		if err == nil {
			body = body[:len(body)-1]
			if len(body) > MaxBodyLen {
				return nil, protoErrorf("body of %d bytes exceeds limit", len(body))
			}
			return body, nil
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			if len(body) > MaxBodyLen {
				return nil, protoErrorf("body of %d+ bytes exceeds limit", len(body))
			}
			continue
		}
		return nil, fmt.Errorf("stomp: unterminated frame: %w", err)
	}
}

// readLine reads a \n-terminated line into the reused line buffer,
// trimming an optional \r, with a length bound. The returned slice is
// valid until the next readLine call.
func (d *Decoder) readLine() ([]byte, error) {
	d.line = d.line[:0]
	for {
		chunk, err := d.r.ReadSlice('\n')
		d.line = append(d.line, chunk...)
		if err == nil {
			break
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			if len(d.line) > MaxHeaderLen {
				return nil, protoErrorf("header line exceeds %d bytes", MaxHeaderLen)
			}
			continue
		}
		if errors.Is(err, io.EOF) {
			if len(d.line) == 0 {
				return nil, io.EOF
			}
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if len(d.line) > MaxHeaderLen {
		return nil, protoErrorf("header line exceeds %d bytes", MaxHeaderLen)
	}
	line := d.line[:len(d.line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// internCommand returns the canonical string for a frame command, avoiding
// a per-frame allocation in the read loop; ok is false for unknown
// commands.
func internCommand(b []byte) (string, bool) {
	switch string(b) { // compiler optimises away the conversion
	case CmdConnect:
		return CmdConnect, true
	case CmdConnected:
		return CmdConnected, true
	case CmdSend:
		return CmdSend, true
	case CmdSubscribe:
		return CmdSubscribe, true
	case CmdUnsubscribe:
		return CmdUnsubscribe, true
	case CmdMessage:
		return CmdMessage, true
	case CmdReceipt:
		return CmdReceipt, true
	case CmdError:
		return CmdError, true
	case CmdDisconnect:
		return CmdDisconnect, true
	case CmdAck:
		return CmdAck, true
	case CmdNack:
		return CmdNack, true
	case CmdBegin:
		return CmdBegin, true
	case CmdCommit:
		return CmdCommit, true
	case CmdAbort:
		return CmdAbort, true
	}
	return "", false
}

// internHeaderKey returns the canonical string for header keys that
// appear on essentially every frame, avoiding a per-header allocation in
// the read loop. The interned names contain no escapable characters, so
// matching the raw wire bytes is exact. The two x-safeweb names are
// SafeWeb's label extension headers (package event); the codec stays
// label-agnostic but may still recognise their spelling.
func internHeaderKey(b []byte) (string, bool) {
	switch string(b) { // compiler optimises away the conversion
	case HdrDestination:
		return HdrDestination, true
	case HdrSubscription:
		return HdrSubscription, true
	case HdrMessageID:
		return HdrMessageID, true
	case HdrContentLength:
		return HdrContentLength, true
	case HdrReceipt:
		return HdrReceipt, true
	case HdrReceiptID:
		return HdrReceiptID, true
	case HdrID:
		return HdrID, true
	case HdrSelector:
		return HdrSelector, true
	case HdrLogin:
		return HdrLogin, true
	case HdrPasscode:
		return HdrPasscode, true
	case HdrSession:
		return HdrSession, true
	case HdrMessage:
		return HdrMessage, true
	case HdrVersion:
		return HdrVersion, true
	case "x-safeweb-labels":
		return "x-safeweb-labels", true
	case "x-safeweb-clearance":
		return "x-safeweb-clearance", true
	}
	return "", false
}

// appendUnescapedHeader appends the unescaped form of b (reversing
// appendEscapedHeader) to dst, rejecting undefined sequences.
func appendUnescapedHeader(dst, b []byte) ([]byte, error) {
	if bytes.IndexByte(b, '\\') < 0 {
		return append(dst, b...), nil
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c != '\\' {
			dst = append(dst, c)
			continue
		}
		i++
		if i >= len(b) {
			return dst, protoErrorf("dangling escape in header %q", b)
		}
		switch b[i] {
		case '\\':
			dst = append(dst, '\\')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 'c':
			dst = append(dst, ':')
		default:
			return dst, protoErrorf("undefined escape \\%c in header %q", b[i], b)
		}
	}
	return dst, nil
}

// unescapeHeaderBytes reverses appendEscapedHeader, returning an owned
// string; the input may be a reused buffer.
func unescapeHeaderBytes(b []byte) (string, error) {
	out, err := appendUnescapedHeader(nil, b)
	if err != nil {
		return "", err
	}
	return string(out), nil
}
