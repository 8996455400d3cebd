package service

import (
	"encoding/json"
	"testing"
	"time"

	"p2go/internal/fleet"
	"p2go/internal/report"
)

// TestAnalysesShareTheCacheBound: every analysis a job computes lives in
// the artifact cache, so a daemon fed fresh traffic forever holds what its
// bound allows and no more. Forty fleet jobs with fresh seeds over a cache
// far smaller than their combined working set never push it past the
// bound, evict analyses along the way, and still report what a daemon with
// room for everything reports.
func TestAnalysesShareTheCacheBound(t *testing.T) {
	const bound = 24
	newManager := func(entries int) *Manager {
		m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4, Cache: NewCache(entries, "")})
		m.Start()
		t.Cleanup(func() { m.Drain(5 * time.Second) })
		return m
	}
	tight, roomy := newManager(bound), newManager(1<<16)
	run := func(m *Manager, spec fleet.Spec) *report.FleetResult {
		t.Helper()
		st, err := m.Submit(JobSpec{Kind: "fleet", Fleet: &spec})
		if err != nil {
			t.Fatal(err)
		}
		return awaitFleet(t, m, st.ID)
	}
	for job := 0; job < 40; job++ {
		workload := []string{"quickstart", "ex1"}[job%2]
		spec := fleet.Synthetic(workload, 4, int64(1+100*job), 120)
		got, want := run(tight, spec), run(roomy, spec)
		if diffs := report.FleetEquivalent(got, want); len(diffs) > 0 {
			t.Fatalf("job %d: bounded daemon's report differs from the unbounded one: %v", job, diffs)
		}
		if n := tight.Cache().Stats().Entries; n > bound {
			t.Fatalf("after job %d the cache holds %d entries, bound is %d", job, n, bound)
		}
	}
	if st := tight.analysis.Stats(); st.CompileEntries+st.ProfileEntries+st.PlanEntries <= bound {
		t.Errorf("the jobs stored %+v analyses, no more than the bound of %d: nothing was evicted, the test shows nothing", st, bound)
	}
	if n := roomy.Cache().Stats().Entries; n <= bound {
		t.Errorf("the unbounded daemon holds %d entries, no more than the bound of %d", n, bound)
	}
}

// TestSecondJobReusesPreparedPlans: optimize jobs run over the daemon's
// analysis cache like fleets do, so a second job of the same program on
// different traffic re-replays its profiles but prepares nothing — every
// plan lookup hits, and its trace shows the hits as profile.instrument
// spans.
func TestSecondJobReusesPreparedPlans(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4})
	m.Start()
	t.Cleanup(func() { m.Drain(5 * time.Second) })

	optimize := func(seed int64) JobStatus {
		t.Helper()
		st, err := m.Submit(JobSpec{Kind: "optimize", Workload: "ex1", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return waitState(t, m, st.ID, StateDone)
	}
	first := optimize(1)
	cold := m.analysis.Stats()
	if cold.PlanMisses == 0 {
		t.Fatalf("the first job prepared no plans: %+v", cold)
	}
	second := optimize(2)
	warm := m.analysis.Stats()

	var a, b report.JobResult
	if err := json.Unmarshal(first.Result, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Result, &b); err != nil {
		t.Fatal(err)
	}
	if a.OptimizedP4 != b.OptimizedP4 {
		t.Fatal("the two seeds optimize ex1 differently; the test needs the same programs replayed on different traffic")
	}
	if warm.ProfileMisses == cold.ProfileMisses {
		t.Error("the second job replayed nothing: same trace as the first?")
	}
	hits := warm.PlanHits - cold.PlanHits
	if warm.PlanMisses != cold.PlanMisses || hits == 0 {
		t.Errorf("second job: %d plan hits, %d plan misses; want every plan served from the cache",
			hits, warm.PlanMisses-cold.PlanMisses)
	}
	spans, ok := m.Trace(second.ID)
	if !ok {
		t.Fatal("no trace for the second job")
	}
	instrumented := 0
	for _, sp := range spans {
		if sp.Name == "profile.instrument" {
			instrumented++
		}
	}
	if instrumented != hits {
		t.Errorf("second job's trace has %d profile.instrument spans, want one per plan hit (%d)", instrumented, hits)
	}
}
