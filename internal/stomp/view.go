package stomp

// headerSpan locates one decoded header inside its view's flat scratch
// buffer. key holds the canonical interned name when the header is one of
// the common ones (see internHeaderKey), "" otherwise; the key bytes are
// always present in the buffer so KeyBytes works either way.
type headerSpan struct {
	key            string
	k0, k1, v0, v1 int
}

// HeaderView is a map-free, ordered view of one frame's decoded headers:
// a flat key/value span slice over a scratch buffer owned by the Decoder
// that produced it. It preserves wire order and repeated keys; lookups
// return the first occurrence, matching the first-wins rule the map
// materialisation applies.
//
// Ownership rules: a HeaderView is goroutine-confined to the read loop
// that decoded it and is invalidated by the next Decode/DecodeView call on
// the owning Decoder — the scratch buffer is reused. Callers that need the
// headers past that point must copy what they keep (Get/Key/Value return
// owned strings; Map materialises an owned map). KeyBytes/ValueBytes
// return sub-slices of the scratch buffer and must not be retained or
// mutated.
//
// Canonical header names (the internHeaderKey set) are interned: Key and
// InternedKey return the shared constant with no allocation, and consumers
// can classify headers by comparing InternedKey against the Hdr*
// constants without touching the byte form.
type HeaderView struct {
	buf   []byte
	spans []headerSpan
}

// Len returns the number of headers in wire order (repeated keys count
// each occurrence; content-length, consumed by body framing, is absent).
func (hv *HeaderView) Len() int { return len(hv.spans) }

// InternedKey returns the canonical interned name of header i, or "" when
// the key is not one of the common interned names (use KeyBytes then).
func (hv *HeaderView) InternedKey(i int) string { return hv.spans[i].key }

// KeyBytes returns the unescaped key of header i as a sub-slice of the
// view's scratch buffer: valid only until the next decode, never retained.
func (hv *HeaderView) KeyBytes(i int) []byte {
	sp := &hv.spans[i]
	return hv.buf[sp.k0:sp.k1:sp.k1]
}

// ValueBytes returns the unescaped value of header i as a sub-slice of the
// view's scratch buffer: valid only until the next decode, never retained.
func (hv *HeaderView) ValueBytes(i int) []byte {
	sp := &hv.spans[i]
	return hv.buf[sp.v0:sp.v1:sp.v1]
}

// Key returns the key of header i as an owned string (interned for common
// names, allocated otherwise).
func (hv *HeaderView) Key(i int) string {
	if k := hv.spans[i].key; k != "" {
		return k
	}
	return string(hv.KeyBytes(i))
}

// Value returns the value of header i as an owned string.
func (hv *HeaderView) Value(i int) string { return string(hv.ValueBytes(i)) }

func (hv *HeaderView) matches(i int, name string) bool {
	if k := hv.spans[i].key; k != "" {
		return k == name
	}
	return string(hv.KeyBytes(i)) == name
}

// GetBytes returns the value of the first header named name as a scratch
// sub-slice (see ValueBytes), and whether it was present.
func (hv *HeaderView) GetBytes(name string) ([]byte, bool) {
	for i := range hv.spans {
		if hv.matches(i, name) {
			return hv.ValueBytes(i), true
		}
	}
	return nil, false
}

// Get returns the value of the first header named name as an owned string,
// and whether it was present.
func (hv *HeaderView) Get(name string) (string, bool) {
	b, ok := hv.GetBytes(name)
	if !ok {
		return "", false
	}
	return string(b), true
}

// Header returns the value of the first header named name, or "" — the
// view counterpart of Frame.Header.
func (hv *HeaderView) Header(name string) string {
	v, _ := hv.Get(name)
	return v
}

// Map materialises the view into an owned header map with first-occurrence-
// wins semantics for repeated keys — the representation Frame carries.
func (hv *HeaderView) Map() map[string]string {
	m := make(map[string]string, len(hv.spans))
	for i := range hv.spans {
		kb := hv.KeyBytes(i)
		if _, dup := m[string(kb)]; dup {
			continue
		}
		m[hv.Key(i)] = hv.Value(i)
	}
	return m
}

// FrameView is the decoder's map-free representation of one frame: the
// interned command, a HeaderView over the decoder's scratch buffer, and
// the body. The headers share HeaderView's ownership rules (invalid after
// the next decode); the body is freshly allocated per frame and ownership
// transfers to the consumer, which may retain it.
type FrameView struct {
	Command string
	Headers HeaderView
	Body    []byte
}

// Materialize builds an owned Frame from the view, allocating the header
// map that map-based callers expect. This is the lazy escape hatch for
// code that mutates headers; hot read paths consume the view directly.
func (v *FrameView) Materialize() *Frame {
	return &Frame{Command: v.Command, Headers: v.Headers.Map(), Body: v.Body}
}
