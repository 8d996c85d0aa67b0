package stomp

import (
	"io"
	"strconv"
	"strings"
)

// maxRetainedEncodeBuf bounds the scratch capacity an Encoder keeps
// between frames; encoding one huge body must not pin its buffer forever.
const maxRetainedEncodeBuf = 64 * 1024

// Encoder encodes STOMP frames. Each frame is assembled into a scratch
// buffer reused across Encode calls and handed to the destination in a
// single Write, with the deterministic (sorted) header order preserved via
// a reused insertion-sorted key slice. An Encoder is not safe for
// concurrent use; each connection writer owns one. The zero value is
// ready to use.
type Encoder struct {
	buf  []byte
	keys []string
}

// Encode writes one frame to w. A content-length header is always emitted
// so bodies may contain NUL bytes. It is the reference encoding every
// image encoder's bytes are checked against.
func (e *Encoder) Encode(w io.Writer, f *Frame) error {
	if f.Command == "" {
		return protoErrorf("cannot write frame with empty command")
	}
	b := append(e.buf[:0], f.Command...)
	b = append(b, '\n')
	e.keys = sortedHeaderKeys(e.keys[:0], f.Headers, HdrContentLength)
	for _, k := range e.keys {
		b = appendEscapedHeader(b, k)
		b = append(b, ':')
		b = appendEscapedHeader(b, f.Headers[k])
		b = append(b, '\n')
	}
	b = append(b, HdrContentLength...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(len(f.Body)), 10)
	b = append(b, '\n', '\n')
	b = append(b, f.Body...)
	b = append(b, 0)
	if cap(b) <= maxRetainedEncodeBuf {
		e.buf = b[:0]
	} else {
		e.buf = nil
	}
	_, err := w.Write(b)
	return err
}

// sortedHeaderKeys appends headers' keys to dst in lexicographic order,
// skipping skip when non-empty. Frames carry a handful of headers, so an
// insertion sort into a reused slice beats sort.Strings and its
// allocations.
func sortedHeaderKeys(dst []string, headers map[string]string, skip string) []string {
	for k := range headers {
		if skip != "" && k == skip {
			continue
		}
		dst = append(dst, k)
		for i := len(dst) - 1; i > 0 && dst[i-1] > k; i-- {
			dst[i], dst[i-1] = dst[i-1], dst[i]
		}
	}
	return dst
}

// appendEscapedHeader appends s to b with STOMP 1.1 header escaping.
func appendEscapedHeader(b []byte, s string) []byte {
	if !strings.ContainsAny(s, "\\\n:\r") {
		return append(b, s...)
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case ':':
			b = append(b, '\\', 'c')
		default:
			b = append(b, s[i])
		}
	}
	return b
}
