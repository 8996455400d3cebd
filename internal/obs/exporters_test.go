package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

func TestChromeTraceRoundTrip(t *testing.T) {
	exp := NewChromeExporter()
	ctx := WithTracer(context.Background(), NewTracer(exp))

	ctx, root := Start(ctx, "optimize", String("workload", "ex1"))
	for i := 0; i < 3; i++ {
		_, s := Start(ctx, "phase3.probe", Int("value", 1024>>i))
		time.Sleep(time.Millisecond)
		s.End()
	}
	root.End()

	var buf bytes.Buffer
	if err := exp.Flush(&buf); err != nil {
		t.Fatal(err)
	}

	// Must round-trip as valid JSON in the Chrome trace-event schema.
	var decoded struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(decoded.TraceEvents))
	}
	prevTs := int64(-1)
	for _, ev := range decoded.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q: ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Ts < prevTs {
			t.Errorf("event %q: ts %d not monotonic (prev %d)", ev.Name, ev.Ts, prevTs)
		}
		prevTs = ev.Ts
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("event %q: negative ts/dur (%d/%d)", ev.Name, ev.Ts, ev.Dur)
		}
		if ev.Pid != 1 {
			t.Errorf("event %q: pid = %d", ev.Name, ev.Pid)
		}
	}
	// The root span starts first: its event has ts 0.
	if decoded.TraceEvents[0].Ts != 0 {
		t.Errorf("first event ts = %d, want 0", decoded.TraceEvents[0].Ts)
	}
	// Children reference their parent and share the root's track.
	var rootID string
	for _, ev := range decoded.TraceEvents {
		if ev.Name == "optimize" {
			if ev.Args["workload"] != "ex1" {
				t.Errorf("root args = %v", ev.Args)
			}
			rootID = "" // root has no parent arg
			if _, ok := ev.Args["parent"]; ok {
				t.Error("root event has a parent arg")
			}
		}
	}
	_ = rootID
	probeTracks := map[int64]bool{}
	for _, ev := range decoded.TraceEvents {
		probeTracks[ev.Tid] = true
		if ev.Name == "phase3.probe" && ev.Args["parent"] == "" {
			t.Error("probe event lost its parent arg")
		}
	}
	if len(probeTracks) != 1 {
		t.Errorf("spans of one tree landed on %d tracks, want 1", len(probeTracks))
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("empty trace not valid JSON: %v", err)
	}
}
