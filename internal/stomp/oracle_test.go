package stomp

// NewMessageImage is the map-based MESSAGE image encoder production code
// used before package event built both frame kinds through ImageBuilder.
// It is kept as a conformance oracle: it encodes a MESSAGE frame with the
// given headers and body into a wire image, dropping the subscription and
// message-id headers reserved for per-delivery routing and deriving
// content-length from body.
func NewMessageImage(headers map[string]string, body []byte) *WireImage {
	bld := NewImageBuilder(CmdMessage, imageSizeHint(headers, body))
	keys := sortedHeaderKeys(make([]string, 0, len(headers)), headers, HdrContentLength)
	for _, k := range keys {
		if k == HdrSubscription || k == HdrMessageID {
			continue
		}
		bld.Header(k, headers[k])
	}
	img := bld.Finish(body)
	return &img
}

// imageSizeHint estimates the encoded size of the oracle's image.
func imageSizeHint(headers map[string]string, body []byte) int {
	n := len(CmdMessage) + len(HdrContentLength) + 24 + len(body)
	for k, v := range headers {
		n += len(k) + len(v) + 2
	}
	return n
}
