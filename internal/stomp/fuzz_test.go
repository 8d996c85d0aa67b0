package stomp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to every decode path and checks the
// cross-path invariants the conformance corpus pins on canonical frames:
//
//   - no decode path may panic, whatever the input;
//   - Decoder.Decode and DecodeView (materialised) agree on
//     success/failure and, on success, on the decoded frame;
//   - decoded bodies respect MaxBodyLen on every path;
//   - a decoded frame re-encodes and decodes to itself (round-trip
//     stability), so anything the decoder accepts is representable.
func FuzzDecode(f *testing.F) {
	for _, tc := range conformanceCorpus() {
		f.Add([]byte(tc.wire))
	}
	// A few shapes the corpus does not cover.
	f.Add([]byte("SEND\n" + strings.Repeat("k:v\n", 300) + "\n\x00")) // header-count limit
	f.Add([]byte("MESSAGE\ncontent-length:100\n\n"))                  // truncated body
	f.Add(bytes.Repeat([]byte{'\n'}, 64))                             // heart-beats, clean EOF

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, errFresh := NewDecoder(bytes.NewReader(data)).Decode()
		view, errView := NewDecoder(bytes.NewReader(data)).DecodeView()

		if (errFresh == nil) != (errView == nil) {
			t.Fatalf("decode paths disagree on error: Decode=%v DecodeView=%v", errFresh, errView)
		}
		if errFresh != nil {
			return
		}

		materialised := view.Materialize()
		if !framesEquivalent(fresh, materialised) {
			t.Fatalf("decode paths disagree:\nDecode:     %v\nDecodeView: %v", fresh, materialised)
		}
		if len(fresh.Body) > MaxBodyLen || len(view.Body) > MaxBodyLen {
			t.Fatalf("decoded body of %d bytes exceeds MaxBodyLen", len(fresh.Body))
		}
		// View accessors agree with the materialised map.
		for k, v := range materialised.Headers {
			if got := view.Headers.Header(k); got != v {
				t.Fatalf("view Header(%q) = %q, want %q", k, got, v)
			}
		}

		// Round-trip stability: re-encode and decode back.
		var buf bytes.Buffer
		if err := new(Encoder).Encode(&buf, fresh); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		back, err := NewDecoder(&buf).Decode()
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !framesEquivalent(fresh, back) {
			t.Fatalf("round trip changed frame:\nbefore: %v\nafter:  %v", fresh, back)
		}
	})
}

// FuzzHeaderEscape checks the header escaping pair: escape→unescape is the
// identity on arbitrary strings, and unescaping arbitrary bytes never
// panics — it either fails or produces something that re-escapes to the
// canonical form of the same value.
func FuzzHeaderEscape(f *testing.F) {
	f.Add("plain")
	f.Add("line1\nline2:with\\colon\rand-cr")
	f.Add(`trailing\`)
	f.Add(`bad\q`)
	f.Add("")
	f.Add("\\c\\n\\r\\\\")

	f.Fuzz(func(t *testing.T, s string) {
		esc := appendEscapedHeader(nil, s)
		back, err := unescapeHeaderBytes(esc)
		if err != nil {
			t.Fatalf("unescape(escape(%q)) failed: %v", s, err)
		}
		if back != s {
			t.Fatalf("unescape(escape(%q)) = %q", s, back)
		}

		// Arbitrary input: must not panic; on success the value must be
		// canonically representable.
		val, err := unescapeHeaderBytes([]byte(s))
		if err != nil {
			return
		}
		canon := appendEscapedHeader(nil, val)
		reback, err := unescapeHeaderBytes(canon)
		if err != nil || reback != val {
			t.Fatalf("canonical re-escape of %q broke: %q, %v", val, reback, err)
		}
	})
}

// FuzzParseCredit pins the fail-closed contract of the credit/ACK header
// parser: arbitrary input must never panic, and only positive in-range
// decimal int64 values may ever be accepted as a grant — negative, zero,
// overflowing and non-numeric inputs must all be rejected, returning a
// zero credit with an error.
func FuzzParseCredit(f *testing.F) {
	for _, seed := range []string{
		"", "1", "0", "-1", "64", "credit", "1e3", " 1", "+1", "0x10",
		"9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "99999999999999999999999999", "1\x00", "١",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseCredit(s)
		if err != nil {
			if n != 0 {
				t.Fatalf("ParseCredit(%q) = %d with error %v; a rejected grant must be zero", s, n, err)
			}
			return
		}
		if n <= 0 {
			t.Fatalf("ParseCredit(%q) accepted non-positive credit %d", s, n)
		}
		// An accepted value must round-trip through its canonical form.
		m, err := ParseCredit(strconv.FormatInt(n, 10))
		if err != nil || m != n {
			t.Fatalf("canonical re-parse of %d = %d, %v", n, m, err)
		}
	})
}
