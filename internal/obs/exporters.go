package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Collector is an in-memory exporter: it retains every finished span, in
// export (End) order, for tests and for on-demand rendering (the p2god
// trace endpoint). A cap bounds memory for long-lived collectors; spans
// past the cap are counted but not retained.
type Collector struct {
	mu      sync.Mutex
	spans   []SpanData
	cap     int
	dropped int
}

// NewCollector builds a collector retaining at most cap spans (cap <= 0
// means unbounded).
func NewCollector(cap int) *Collector { return &Collector{cap: cap} }

// Export implements Exporter.
func (c *Collector) Export(d SpanData) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap > 0 && len(c.spans) >= c.cap {
		c.dropped++
		return
	}
	c.spans = append(c.spans, d)
}

// Spans returns a snapshot of the retained spans, in export order.
func (c *Collector) Spans() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanData(nil), c.spans...)
}

// Dropped reports how many spans the cap discarded.
func (c *Collector) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Tree renders the collected spans as an indented name tree with sorted
// attributes, children in creation (ID) order. Attribute keys listed in
// skipAttrs are omitted — golden tests use this to drop timing-dependent
// values (durations, throughput) while keeping structural ones.
func (c *Collector) Tree(skipAttrs ...string) string {
	skip := make(map[string]bool, len(skipAttrs))
	for _, k := range skipAttrs {
		skip[k] = true
	}
	spans := c.Spans()
	children := make(map[int64][]SpanData)
	for _, s := range spans {
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].ID < kids[j].ID })
	}
	var b strings.Builder
	var walk func(parent int64, depth int)
	walk = func(parent int64, depth int) {
		for _, s := range children[parent] {
			b.WriteString(strings.Repeat("  ", depth))
			b.WriteString(s.Name)
			for _, a := range sortAttrs(s.Attrs) {
				if skip[a.Key] {
					continue
				}
				fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
			}
			b.WriteByte('\n')
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
	return b.String()
}

// chromeEvent is one Chrome trace-event ("X" complete events only).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`  // µs since trace start
	Dur  int64             `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the Chrome trace format, loadable
// in Perfetto and chrome://tracing.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders spans as Chrome trace-event JSON. Timestamps
// are microseconds relative to the earliest span start; each span's tid is
// its root ancestor's ID, so concurrent jobs land on separate tracks.
// Events are sorted by (ts, id), making ts monotonically non-decreasing.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	var base time.Time
	for _, s := range spans {
		if base.IsZero() || s.Start.Before(base) {
			base = s.Start
		}
	}
	parent := make(map[int64]int64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.ParentID
	}
	root := func(id int64) int64 {
		for i := 0; i < len(spans); i++ { // bounded walk guards against cycles
			p := parent[id]
			if p == 0 {
				return id
			}
			id = p
		}
		return id
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   s.Start.Sub(base).Microseconds(),
			Dur:  s.Duration.Microseconds(),
			Pid:  1,
			Tid:  root(s.ID),
		}
		if len(s.Attrs) > 0 || s.ParentID != 0 {
			ev.Args = make(map[string]string, len(s.Attrs)+1)
			for _, a := range sortAttrs(s.Attrs) {
				ev.Args[a.Key] = a.Value
			}
			if s.ParentID != 0 {
				ev.Args["parent"] = fmt.Sprintf("%d", s.ParentID)
			}
		}
		events = append(events, ev)
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		return events[i].Tid < events[j].Tid
	})
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ChromeExporter buffers spans and renders them as Chrome trace-event
// JSON on Flush — the `p2go ... -trace out.json` exporter.
type ChromeExporter struct {
	Collector
}

// NewChromeExporter builds an unbounded Chrome trace exporter.
func NewChromeExporter() *ChromeExporter { return &ChromeExporter{} }

// Flush writes the buffered spans as a complete Chrome trace.
func (e *ChromeExporter) Flush(w io.Writer) error {
	return WriteChromeTrace(w, e.Spans())
}
