package engine

import (
	"errors"
	"fmt"

	"safeweb/internal/event"
	"safeweb/internal/jail"
	"safeweb/internal/label"
)

// Context is the label-tracking execution context of one callback
// invocation. It corresponds to the paper's __LABELS__ mechanism (§4.3):
// the tracked set starts as the processed event's labels, grows as the
// callback reads labelled state, and is attached to everything the
// callback publishes or stores.
//
// A Context is owned by a single callback invocation and must not be
// shared across goroutines or retained after the callback returns. The
// engine pools one Context per subscription worker and invalidates it
// between callbacks (like InitContext after Init), so operations on a
// retained Context fail with ErrContextInvalid while the worker is
// between events. The enforcement is best-effort: a retained Context
// used concurrently with the worker's next callback is a data race on
// the pooled fields (before pooling, such retention read a stale private
// snapshot instead), which is why the non-retention rule is a hard
// contract, not a guideline.
//
// The delivered event shares this invalidation lifecycle: when the
// callback completes, the engine releases the event back to the delivery
// pool (event.Event.Release), so callbacks must not retain the event or
// its attribute map either — Clone what must outlive the callback.
type Context struct {
	engine *Engine
	rt     *unitRuntime
	labels label.Set
}

// ErrContextInvalid reports a Context used outside the callback invocation
// that owned it.
var ErrContextInvalid = errors.New("engine: Context used outside its callback")

// Unit returns the executing unit's name, or "" on an invalidated
// Context.
func (c *Context) Unit() string {
	if c.rt == nil {
		return ""
	}
	return c.rt.name
}

// Jail returns the unit's jail for capability checks, or nil on an
// invalidated Context (capability lookups on nil fail closed).
func (c *Context) Jail() *jail.Jail {
	if c.rt == nil {
		return nil
	}
	return c.rt.jail
}

// Labels returns the tracked label set (the paper's __LABELS__).
func (c *Context) Labels() label.Set { return c.labels }

// AddLabels raises the tracked set. Adding confidentiality labels is
// always permitted ("it is always possible to add extra confidentiality
// labels", §4.1); adding an integrity label requires the endorsement
// privilege.
func (c *Context) AddLabels(labels ...label.Label) error {
	if c.engine == nil {
		return ErrContextInvalid
	}
	if err := c.endorse(labels); err != nil {
		return err
	}
	c.labels = c.labels.With(labels...)
	return nil
}

// endorse checks that the unit holds the endorsement privilege for every
// integrity label in labels, counting a flow violation at the first it
// lacks.
func (c *Context) endorse(labels []label.Label) error {
	for _, l := range labels {
		if l.Kind() == label.Integrity && !c.hasPrivilege(label.Endorse, l) {
			c.engine.flowViolations.Add(1)
			return &label.FlowError{
				Op: "endorse", Label: l, Principal: c.rt.name,
				Reason: "adding an integrity label requires the endorsement privilege",
			}
		}
	}
	return nil
}

// hasPrivilege checks a privilege, treating privileged units (paper:
// running at $SAFE=0) as holding declassification over everything — "this
// effectively allows them to declassify any received event" (§4.3).
func (c *Context) hasPrivilege(p label.Privilege, l label.Label) bool {
	if c.rt.privileged && p == label.Declassify {
		return true
	}
	return c.rt.privs.Has(p, l)
}

// PublishOption adjusts the labels attached to a publish or store write,
// mirroring Listing 1's ":remove => __LABELS__, :add => [...]" options.
type PublishOption func(*publishOpts)

type publishOpts struct {
	add       []label.Label
	remove    []label.Label
	removeAll bool
}

// WithAdd attaches extra labels to the published event.
func WithAdd(labels ...label.Label) PublishOption {
	return func(o *publishOpts) { o.add = append(o.add, labels...) }
}

// WithRemove removes labels from the published event; every removed
// confidentiality label requires the declassification privilege.
func WithRemove(labels ...label.Label) PublishOption {
	return func(o *publishOpts) { o.remove = append(o.remove, labels...) }
}

// WithRemoveAll removes the entire tracked set (Listing 1 line 8:
// ":remove => __LABELS__"), subject to the same privilege checks.
func WithRemoveAll() PublishOption {
	return func(o *publishOpts) { o.removeAll = true }
}

// resolveLabels computes the effective label set for an output operation:
// tracked ∪ add − remove, with privilege checks on removal and integrity
// addition.
func (c *Context) resolveLabels(opts []PublishOption) (label.Set, error) {
	if len(opts) == 0 {
		return c.labels, nil
	}
	o := new(publishOpts)
	for _, opt := range opts {
		opt(o)
	}
	out := c.labels
	if o.removeAll {
		o.remove = append(o.remove, out.Sorted()...)
	}
	for _, l := range o.remove {
		// Dropping an integrity label weakens only the data itself; it
		// needs no privilege.
		if l.Kind() == label.Confidentiality && out.Contains(l) && !c.hasPrivilege(label.Declassify, l) {
			c.engine.flowViolations.Add(1)
			return nil, &label.FlowError{
				Op: "declassify", Label: l, Principal: c.rt.name,
				Reason: "removing a confidentiality label requires the declassification privilege",
			}
		}
	}
	if err := c.endorse(o.add); err != nil {
		return nil, err
	}
	return out.Without(o.remove...).With(o.add...), nil
}

// Publish publishes an event. The engine "attaches all labels in
// __LABELS__ to the event" (§4.3), adjusted by options with privilege
// checks.
func (c *Context) Publish(topic string, attrs map[string]string, body []byte, opts ...PublishOption) error {
	if c.engine == nil {
		return ErrContextInvalid
	}
	labels, err := c.resolveLabels(opts)
	if err != nil {
		return err
	}
	ev := event.New(topic, attrs)
	ev.Body = append([]byte(nil), body...)
	ev.Labels = labels
	if err := ev.Validate(); err != nil {
		return err
	}
	return c.rt.bus.Publish(ev)
}

// Get reads a value from the unit's key-value store. All labels associated
// with the key are merged into the tracked set, so confidentiality follows
// data through stateful units (§4.3: "when a value is read from the store,
// __LABELS__ is updated to reflect its confidentiality").
func (c *Context) Get(key string) (string, bool) {
	if c.engine == nil {
		return "", false
	}
	value, labels, ok := c.rt.store.get(key)
	if !ok {
		return "", false
	}
	c.labels = c.labels.Union(labels)
	return value, true
}

// Set writes a value to the unit's key-value store. The tracked set,
// adjusted by options under the usual privilege checks, becomes the key's
// label set ("all confidentiality labels in __LABELS__ are saved as the
// key's confidentiality", §4.3).
func (c *Context) Set(key, value string, opts ...PublishOption) error {
	if c.engine == nil {
		return ErrContextInvalid
	}
	labels, err := c.resolveLabels(opts)
	if err != nil {
		return err
	}
	c.rt.store.set(key, value, labels)
	return nil
}

// Delete removes a key from the unit's store. Deletion destroys data
// rather than disclosing it, so no privilege is needed. A no-op on an
// invalidated Context.
func (c *Context) Delete(key string) {
	if c.rt == nil {
		return
	}
	c.rt.store.delete(key)
}

// StoreKeys returns the unit store's keys, for diagnostic listings. The
// keys themselves are not labelled; values are. Nil on an invalidated
// Context.
func (c *Context) StoreKeys() []string {
	if c.rt == nil {
		return nil
	}
	return c.rt.store.keys()
}

// String implements fmt.Stringer for log lines.
func (c *Context) String() string {
	if c.rt == nil {
		return "engine.Context{invalid}"
	}
	return fmt.Sprintf("engine.Context{unit=%s labels=%s}", c.rt.name, c.labels)
}
