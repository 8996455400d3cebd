// Package obs is p2go's stdlib-only observability layer: hierarchical
// spans carried through context.Context, pluggable trace exporters
// (Chrome trace-event JSON, an in-memory collector for tests),
// Prometheus-style histograms, and a small slog front end.
//
// The design center is zero cost when disabled: every entry point is
// nil-safe, so instrumented code calls obs.Start / span.SetAttr / span.End
// unconditionally and pays only a context lookup when no Tracer is
// installed. A Tracer is installed per run (per CLI invocation, per p2god
// job), never globally, so concurrent jobs get disjoint span trees.
package obs

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are strings so span
// trees compare bytewise in golden tests; use the String/Int/Float
// constructors for consistent formatting.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer-valued attribute.
func Int(key string, value int) Attr {
	return Attr{Key: key, Value: strconv.Itoa(value)}
}

// Int64 builds an int64-valued attribute.
func Int64(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// Float builds a float-valued attribute (shortest round-trip formatting).
func Float(key string, value float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(value, 'g', -1, 64)}
}

// Bool builds a boolean-valued attribute.
func Bool(key string, value bool) Attr {
	return Attr{Key: key, Value: strconv.FormatBool(value)}
}

// SpanData is the immutable record of a finished span, as handed to
// exporters.
type SpanData struct {
	ID       int64
	ParentID int64 // 0 for root spans
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// Exporter receives finished spans. Exporters must be safe for concurrent
// use; the tracer calls Export from whichever goroutine ends the span.
type Exporter interface {
	Export(SpanData)
}

// Tracer assigns span IDs and fans finished spans out to its exporters.
type Tracer struct {
	mu        sync.Mutex
	nextID    int64
	exporters []Exporter
}

// NewTracer builds a tracer exporting to every given exporter.
func NewTracer(exporters ...Exporter) *Tracer {
	return &Tracer{exporters: exporters}
}

func (t *Tracer) export(d SpanData) {
	for _, e := range t.exporters {
		e.Export(d)
	}
}

func (t *Tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// Span is an in-flight span. All methods are nil-safe: a nil *Span (the
// result of Start without an installed tracer) ignores every call.
type Span struct {
	tracer   *Tracer
	id       int64
	parentID int64
	name     string
	start    time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// End finishes the span and exports it. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := append([]Attr(nil), s.attrs...)
	s.mu.Unlock()
	s.tracer.export(SpanData{
		ID:       s.id,
		ParentID: s.parentID,
		Name:     s.name,
		Start:    s.start,
		Duration: time.Since(s.start),
		Attrs:    attrs,
	})
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer installs a tracer into the context; Start calls on the
// returned context (and its descendants) record spans through it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the tracer installed in ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// Start begins a span named name under ctx's current span (if any). When
// no tracer is installed, it returns ctx unchanged and a nil span — every
// method of which is a no-op — so call sites need no conditionals.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	var parentID int64
	if parent, _ := ctx.Value(spanKey).(*Span); parent != nil {
		parentID = parent.id
	}
	s := &Span{
		tracer:   t,
		id:       t.newID(),
		parentID: parentID,
		name:     name,
		start:    time.Now(),
		attrs:    append([]Attr(nil), attrs...),
	}
	return context.WithValue(ctx, spanKey, s), s
}

// SpanFrom returns the span ctx was started under, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Emit records an already-measured span — one whose start and duration
// were observed outside the Start/End pattern (e.g. a job's queue wait,
// reconstructed from enqueue and dequeue timestamps). parent may be nil.
func (t *Tracer) Emit(parent *Span, name string, start time.Time, dur time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	var parentID int64
	if parent != nil {
		parentID = parent.id
	}
	t.export(SpanData{
		ID:       t.newID(),
		ParentID: parentID,
		Name:     name,
		Start:    start,
		Duration: dur,
		Attrs:    append([]Attr(nil), attrs...),
	})
}

// sortAttrs orders attributes by key (stable for duplicate keys) — used
// by exporters that need deterministic rendering.
func sortAttrs(attrs []Attr) []Attr {
	out := append([]Attr(nil), attrs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
