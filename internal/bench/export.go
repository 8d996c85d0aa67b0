package bench

import (
	"bytes"
	"fmt"

	"safeweb/internal/event"
	"safeweb/internal/stomp"
)

// Pipeline is the exported handle to the synthetic backend pipeline, for
// the repository-level testing.B benchmarks.
type Pipeline struct {
	p *backendPipeline
}

// NewPipelineForBench builds the producer→relay→sink pipeline and returns
// it with its completion channel (one signal per event that reaches the
// sink).
func NewPipelineForBench(network bool) (*Pipeline, <-chan struct{}, error) {
	p, err := newBackendPipeline(network)
	if err != nil {
		return nil, nil, err
	}
	return &Pipeline{p: p}, p.done, nil
}

// Publish sends one benchmark event, labelled when tracking is set.
func (p *Pipeline) Publish(seq int, tracking bool) error {
	return p.p.publish(seq, tracking)
}

// Stop tears the pipeline down.
func (p *Pipeline) Stop() { p.p.stop() }

// newWireHop returns a function carrying an event across one networked
// hop the way production does — the event's SEND image, EncodeSendImage,
// DecodeView, UnmarshalView — over one connection's worth of reused codec
// state. It returns the event the far side builds: a fresh event, so
// feeding it to the next hop encodes a new image, as a relay's republish
// does.
func newWireHop() func(*event.Event) (*event.Event, error) {
	var buf bytes.Buffer
	var enc stomp.Encoder
	var cache event.DecodeCache
	dec := stomp.NewDecoder(&buf)
	return func(ev *event.Event) (*event.Event, error) {
		img, err := ev.SendImage()
		if err != nil {
			return nil, err
		}
		if err := enc.EncodeSendImage(&buf, img, ""); err != nil {
			return nil, err
		}
		v, err := dec.DecodeView()
		if err != nil {
			return nil, err
		}
		return event.UnmarshalView(&v.Headers, v.Body, &cache)
	}
}

// StompRoundTripForBench carries a representative labelled event across n
// wire hops (event → SEND image → bytes → frame view → event); it returns
// the first error.
func StompRoundTripForBench(n int) error {
	if n < 0 {
		return fmt.Errorf("bench: negative iteration count")
	}
	ev := event.New("/bench", map[string]string{"seq": "1"}, benchLabels()...)
	ev.Body = append([]byte(nil), benchBody...)
	hop := newWireHop()
	for i := 0; i < n; i++ {
		var err error
		if ev, err = hop(ev); err != nil {
			return err
		}
	}
	return nil
}
