package stomp

import (
	"bufio"
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickFrame generates random frames with printable and non-printable
// header content to stress the codec.
type quickFrame struct{ F *Frame }

// Generate implements quick.Generator.
func (quickFrame) Generate(rnd *rand.Rand, _ int) reflect.Value {
	commands := []string{CmdSend, CmdMessage, CmdSubscribe, CmdReceipt, CmdError}
	f := NewFrame(commands[rnd.Intn(len(commands))])
	nHeaders := rnd.Intn(6)
	for i := 0; i < nHeaders; i++ {
		f.SetHeader(randString(rnd, 1, 12), randString(rnd, 0, 30))
	}
	if rnd.Intn(2) == 0 {
		body := make([]byte, rnd.Intn(200))
		rnd.Read(body)
		if len(body) > 0 {
			f.Body = body
		}
	}
	return reflect.ValueOf(quickFrame{F: f})
}

func randString(rnd *rand.Rand, minLen, maxLen int) string {
	// Alphabet includes characters requiring escaping.
	alphabet := []byte("abcXYZ019 :\\\n\r-_/.")
	n := minLen + rnd.Intn(maxLen-minLen+1)
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[rnd.Intn(len(alphabet))]
	}
	return string(out)
}

// TestQuickFrameRoundTrip: any frame the encoder accepts must decode to an
// identical frame.
func TestQuickFrameRoundTrip(t *testing.T) {
	prop := func(qf quickFrame) bool {
		var buf bytes.Buffer
		if err := new(Encoder).Encode(&buf, qf.F); err != nil {
			return false
		}
		back, err := NewDecoder(&buf).Decode()
		if err != nil {
			return false
		}
		if back.Command != qf.F.Command {
			return false
		}
		if len(back.Headers) != len(qf.F.Headers) {
			return false
		}
		for k, v := range qf.F.Headers {
			if back.Headers[k] != v {
				return false
			}
		}
		return bytes.Equal(back.Body, qf.F.Body)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// framesEquivalent reports whether two frames have equal command, headers
// and body.
func framesEquivalent(a, b *Frame) bool {
	if a.Command != b.Command || !bytes.Equal(a.Body, b.Body) || len(a.Headers) != len(b.Headers) {
		return false
	}
	for k, v := range a.Headers {
		if b.Headers[k] != v {
			return false
		}
	}
	return true
}

// TestQuickEncoderDecoderAgree: on the random frame corpus, a reused
// Encoder emits bytes identical to a fresh one's, and they decode to the
// original frame. The scratch-buffer reuse across iterations is part of
// what is under test.
func TestQuickEncoderDecoderAgree(t *testing.T) {
	var enc Encoder
	prop := func(qf quickFrame) bool {
		var fresh, reused bytes.Buffer
		if err := new(Encoder).Encode(&fresh, qf.F); err != nil {
			return false
		}
		if err := enc.Encode(&reused, qf.F); err != nil {
			return false
		}
		if !bytes.Equal(fresh.Bytes(), reused.Bytes()) {
			return false
		}
		back, err := NewDecoder(&reused).Decode()
		return err == nil && framesEquivalent(qf.F, back)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// escapeHeader/unescapeHeader adapt the production byte-slice escaping
// helpers to strings for the property tests.
func escapeHeader(s string) string {
	return string(appendEscapedHeader(nil, s))
}

func unescapeHeader(s string) (string, error) {
	return unescapeHeaderBytes([]byte(s))
}

// TestQuickHeaderEscapeRoundTrip: escaping then unescaping is the identity
// on arbitrary strings.
func TestQuickHeaderEscapeRoundTrip(t *testing.T) {
	prop := func(s string) bool {
		back, err := unescapeHeader(escapeHeader(s))
		return err == nil && back == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickStreamOfFrames: multiple frames written back-to-back decode in
// order.
func TestQuickStreamOfFrames(t *testing.T) {
	prop := func(frames []quickFrame) bool {
		var buf bytes.Buffer
		for _, qf := range frames {
			if err := new(Encoder).Encode(&buf, qf.F); err != nil {
				return false
			}
		}
		r := bufio.NewReader(&buf)
		for _, qf := range frames {
			back, err := NewDecoder(r).Decode()
			if err != nil {
				return false
			}
			if back.Command != qf.F.Command || !bytes.Equal(back.Body, qf.F.Body) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
