package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one recorded call into a layer.
type span struct {
	name   string
	op     int // index of the root span of the op this span belongs to
	parent int // index of the enclosing span, -1 for a root
	start  time.Duration
	end    time.Duration
	// units is how much work the call did (packets, lookups), for
	// per-unit metrics; 0 when the call has no natural unit.
	units float64
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps the spans of a traced pass in memory. It is deliberately
// not the program's own tracer (internal/obs): the instrument must not
// change when the thing it measures does. Spans nest by call order, so a
// recorder serves one goroutine at a time — traced ops run the optimizer at
// parallelism 1, and every workload has one client.
//
// A nil *recorder records nothing, so the same op code serves the timed
// (untraced) pass.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span as a child of the innermost open span; end closes it
// and returns how long it was open. units is how much work the call does, 0
// when unknown or without a unit.
func (r *recorder) begin(name string, units float64) {
	if r == nil {
		return
	}
	parent, op := -1, len(r.spans)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
		op = r.spans[parent].op
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, units: units, start: time.Since(r.epoch)})
}

func (r *recorder) end() time.Duration {
	if r == nil {
		return 0
	}
	s := &r.spans[r.open[len(r.open)-1]]
	s.end = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
	return s.dur()
}

// endUnits is end for a call whose size is only known once it returns.
func (r *recorder) endUnits(units float64) {
	if r != nil {
		r.spans[r.open[len(r.open)-1]].units = units
	}
	r.end()
}

// mark and since bracket the spans recorded in between.
func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

func (r *recorder) since(mark int) []span {
	if r == nil {
		return nil
	}
	return r.spans[mark:]
}

// self returns each span's duration minus the time its children cover.
func (r *recorder) self() []time.Duration {
	out := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		out[i] += s.dur()
		if s.parent >= 0 {
			out[s.parent] -= s.dur()
		}
	}
	return out
}

// layerRow is one line of the layer table.
type layerRow struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
	Share float64 `json:"share"` // self time as a share of all root time
}

// layerTable folds the spans by name. Self times sum to the roots' total
// by construction.
func (r *recorder) layerTable() (rows []layerRow, rootTotal float64) {
	self := r.self()
	byName := map[string]*layerRow{}
	for i, s := range r.spans {
		row := byName[s.name]
		if row == nil {
			row = &layerRow{Name: s.name}
			byName[s.name] = row
		}
		row.Count++
		row.Total += ms(s.dur())
		row.Self += ms(self[i])
		if s.parent < 0 {
			rootTotal += ms(s.dur())
		}
	}
	for _, row := range byName {
		if rootTotal > 0 {
			row.Share = row.Self / rootTotal
		}
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, rootTotal
}

// glue is the share of the op roots' time that no child span covers: the
// benchmark's own code between the calls into the layers. It must stay
// small for the table to explain the op.
func (r *recorder) glue() float64 {
	self := r.self()
	var total, own time.Duration
	for i, s := range r.spans {
		if s.parent < 0 && s.name == "job" {
			total += s.dur()
			own += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(own) / float64(total)
}

func printLayerTable(w io.Writer, rows []layerRow, rootTotal float64) {
	fmt.Fprintf(w, "  %-28s %7s %12s %12s %7s\n", "layer", "count", "total ms", "self ms", "share")
	selfSum := 0.0
	for _, row := range rows {
		fmt.Fprintf(w, "  %-28s %7d %12.3f %12.3f %6.1f%%\n", row.Name, row.Count, row.Total, row.Self, 100*row.Share)
		selfSum += row.Self
	}
	fmt.Fprintf(w, "  %-28s %7s %12.3f %12.3f\n", "sum of self / roots", "", rootTotal, selfSum)
}

// writeChrome writes the spans in Chrome trace-event format (load in
// chrome://tracing or Perfetto); one op is one thread row.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: s.op,
			TS: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{"span": i, "parent": s.parent},
		}
		if s.units > 0 {
			events[i].Args["units"] = s.units
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
