package service

import (
	"encoding/json"
	"testing"
	"time"

	"p2go/internal/report"
)

// TestBindingsInDigest: the tunable bindings are part of the artifact
// identity — same job at different knob values must not share an artifact,
// while equivalent spellings of the same bindings must.
func TestBindingsInDigest(t *testing.T) {
	mk := func(bindings string) JobSpec {
		s := JobSpec{Kind: "optimize", Workload: "syncookie", Bindings: bindings}
		if err := s.normalize(); err != nil {
			t.Fatalf("normalize(%q): %v", bindings, err)
		}
		return s
	}
	base := mk("")
	small := mk("sc_bf_cells=32768")
	big := mk("sc_bf_cells=262080")
	if base.digest() == small.digest() || small.digest() == big.digest() {
		t.Errorf("bindings not separated in digest: %s / %s / %s",
			base.digest(), small.digest(), big.digest())
	}
	// Normalization canonicalizes spelling, so digests are spelling-proof.
	if spaced := mk(" sc_bf_cells = 32768 "); spaced.digest() != small.digest() {
		t.Errorf("equivalent bindings digests differ: %s vs %s", spaced.digest(), small.digest())
	}
	bad := JobSpec{Kind: "optimize", Workload: "syncookie", Bindings: "sc_bf_cells"}
	if err := bad.normalize(); err == nil {
		t.Error("malformed bindings string passed normalize")
	}
}

// TestTuneJobEndToEnd: an optimize job scheduling the tune pass runs the
// knob search under the service's artifact cache and reports the found
// bindings and the per-knob ranges in the result.
func TestTuneJobEndToEnd(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4})
	m.Start()
	defer m.Drain(5 * time.Second)

	st, err := m.Submit(JobSpec{
		Kind:     "optimize",
		Workload: "syncookie",
		Passes:   []string{"tune"},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, st.ID, StateDone)
	var rep report.JobResult
	if err := json.Unmarshal(done.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Bindings == "" {
		t.Error("tune job result carries no bindings")
	}
	if len(rep.Tunables) != 1 || rep.Tunables[0].Name != "sc_bf_cells" {
		t.Fatalf("tunables = %+v, want the sc_bf_cells knob", rep.Tunables)
	}
	k := rep.Tunables[0]
	if k.Value < k.Min || k.Value > k.Max || k.Value >= k.Default {
		t.Errorf("tuned sc_bf_cells = %d (range %d..%d, default %d), want a strict shrink",
			k.Value, k.Min, k.Max, k.Default)
	}
	if rep.StagesAfter >= rep.StagesBefore {
		t.Errorf("tune job stages %d -> %d, want a reduction", rep.StagesBefore, rep.StagesAfter)
	}
}

// TestBindingsJobPinsKnobs: submitting explicit bindings (no tune pass)
// instantiates the program at those values and reports them back.
func TestBindingsJobPinsKnobs(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4})
	m.Start()
	defer m.Drain(5 * time.Second)

	st, err := m.Submit(JobSpec{
		Kind:     "optimize",
		Workload: "syncookie",
		Bindings: "sc_bf_cells=65536",
		Passes:   []string{"phase2"}, // the knob is what is under test, not the schedule
	})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, st.ID, StateDone)
	var rep report.JobResult
	if err := json.Unmarshal(done.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Bindings != "sc_bf_cells=65536" {
		t.Errorf("bindings = %q, want sc_bf_cells=65536", rep.Bindings)
	}
	if len(rep.Tunables) != 1 || rep.Tunables[0].Value != 65536 {
		t.Errorf("tunables = %+v, want sc_bf_cells pinned at 65536", rep.Tunables)
	}

	// Out-of-range values fail the job rather than silently clamping.
	bad, err := m.Submit(JobSpec{Kind: "optimize", Workload: "syncookie", Bindings: "sc_bf_cells=1"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, ok := m.Get(bad.ID, false)
		if !ok {
			t.Fatal("job disappeared")
		}
		if s.State == StateFailed {
			break
		}
		if s.State.Terminal() {
			t.Fatalf("out-of-range bindings job ended %s, want failed", s.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("out-of-range bindings job never failed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
