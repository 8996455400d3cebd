package faults

import (
	"errors"
	"fmt"
	"testing"
)

// pattern records which of the first n events at a point fire.
func pattern(s *Set, point string, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = s.Fire(point)
	}
	return out
}

// TestDeterminism: the same spec produces the identical firing pattern on
// every run — the property the CI chaos job re-verifies with -count=2.
func TestDeterminism(t *testing.T) {
	spec := Spec{Point: RedirectLoss, Probability: 0.3, Seed: 42}
	a := pattern(MustSet(spec), RedirectLoss, 1000)
	b := pattern(MustSet(spec), RedirectLoss, 1000)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d: run A fired=%v, run B fired=%v", i, a[i], b[i])
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == 1000 {
		t.Fatalf("p=0.3 fired %d/1000 events", fired)
	}
	if got := MustSet(spec); got.String() != "redirect.loss:p=0.3,seed=42" {
		t.Errorf("String() = %q", got.String())
	}
}

// TestSeedChangesPattern: different seeds give different streams.
func TestSeedChangesPattern(t *testing.T) {
	a := pattern(MustSet(Spec{Point: RedirectLoss, Probability: 0.5, Seed: 1}), RedirectLoss, 200)
	b := pattern(MustSet(Spec{Point: RedirectLoss, Probability: 0.5, Seed: 2}), RedirectLoss, 200)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical 200-event patterns")
	}
}

// TestWindow: a pure window fires every event inside [From, To) and none
// outside.
func TestWindow(t *testing.T) {
	s := MustSet(Spec{Point: ControllerDown, From: 3, To: 6})
	got := pattern(s, ControllerDown, 10)
	for i, fired := range got {
		want := i >= 3 && i < 6
		if fired != want {
			t.Errorf("event %d: fired=%v, want %v", i, fired, want)
		}
	}
	if s.Fired(ControllerDown) != 3 || s.Events(ControllerDown) != 10 {
		t.Errorf("fired=%d events=%d, want 3/10", s.Fired(ControllerDown), s.Events(ControllerDown))
	}
}

// TestWindowWithProbability: probability applies inside the window only.
func TestWindowWithProbability(t *testing.T) {
	s := MustSet(Spec{Point: SimStep, Probability: 0.5, From: 100, To: 200, Seed: 9})
	got := pattern(s, SimStep, 300)
	for i := 0; i < 100; i++ {
		if got[i] || got[200+i] {
			t.Fatalf("event outside window fired (i=%d)", i)
		}
	}
	if f := s.Fired(SimStep); f == 0 || f == 100 {
		t.Errorf("in-window p=0.5 fired %d/100", f)
	}
}

// TestNilSetInert: a nil set is safe at every call site.
func TestNilSetInert(t *testing.T) {
	var s *Set
	if s.Fire(WorkerPanic) || s.Err(WorkerPanic) != nil || s.Fired(WorkerPanic) != 0 ||
		s.Events(WorkerPanic) != 0 || s.Counts() != nil || s.String() != "" {
		t.Error("nil Set must be inert")
	}
}

// TestUnconfiguredPointInert: points without a spec never fire.
func TestUnconfiguredPointInert(t *testing.T) {
	s := MustSet(Spec{Point: RedirectLoss, Probability: 1})
	if s.Fire(ControllerDown) {
		t.Error("unconfigured point fired")
	}
}

// TestErrTyped: Err returns a typed, detectable error carrying the point
// and event index.
func TestErrTyped(t *testing.T) {
	s := MustSet(Spec{Point: CacheCorrupt, From: 1, To: 2})
	if err := s.Err(CacheCorrupt); err != nil {
		t.Fatalf("event 0 should not fault: %v", err)
	}
	err := s.Err(CacheCorrupt)
	if err == nil {
		t.Fatal("event 1 should fault")
	}
	var inj *InjectedError
	if !errors.As(err, &inj) || inj.Point != CacheCorrupt || inj.Event != 1 {
		t.Errorf("err = %#v", err)
	}
	if !IsInjected(fmt.Errorf("wrapped: %w", err)) {
		t.Error("IsInjected must see through wrapping")
	}
	if IsInjected(errors.New("organic")) {
		t.Error("organic error reported as injected")
	}
}

// TestParseRoundTrip: the CLI plan syntax parses and re-renders.
func TestParseRoundTrip(t *testing.T) {
	plan := "controller.down:from=100,to=200;redirect.loss:p=0.05,seed=7"
	s, err := ParseSet(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != plan {
		t.Errorf("round trip = %q, want %q", got, plan)
	}
	for _, bad := range []string{
		"point:p=2",          // probability outside [0,1]
		"point:from=5,to=3",  // empty window
		"point:bogus=1",      // unknown key
		"point:p",            // not k=v
		":p=0.5",             // empty point
		"dup:p=0.5;dup:p=.1", // duplicate point
	} {
		if _, err := ParseSet(bad); err == nil {
			t.Errorf("ParseSet(%q) should fail", bad)
		}
	}
}

// TestZeroSpecNeverFires: a spec with no probability and no window is a
// configured-but-inert stream (useful as a CLI placeholder).
func TestZeroSpecNeverFires(t *testing.T) {
	s := MustSet(Spec{Point: WorkerPanic})
	for i := 0; i < 50; i++ {
		if s.Fire(WorkerPanic) {
			t.Fatal("zero spec fired")
		}
	}
}
