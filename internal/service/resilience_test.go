package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2go/internal/faults"
)

// TestWorkerPanicRecovered: a panicking job fails alone; the worker (and
// the daemon) survive to run the next job.
func TestWorkerPanicRecovered(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		if job.Spec.Seed == 666 {
			panic("boom")
		}
		return []byte(`{}`), nil
	}
	m.Start()
	defer m.Drain(time.Second)

	bad, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 666})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := m.Get(waitTerminal(t, m, bad.ID).ID, false)
	if st.State != StateFailed || !strings.Contains(st.Error, "worker panic") {
		t.Fatalf("panicking job = %s (%q), want failed with panic text", st.State, st.Error)
	}

	good, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, good.ID); st.State != StateDone {
		t.Fatalf("job after panic = %s (%q), want done", st.State, st.Error)
	}
}

// TestInjectedWorkerPanic: the faults.WorkerPanic injector exercises the
// same recovery path without a cooperating execFn.
func TestInjectedWorkerPanic(t *testing.T) {
	set := faults.MustSet(faults.Spec{Point: faults.WorkerPanic, From: 0, To: 1})
	m := NewManager(ManagerConfig{Workers: 1, Faults: set})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) { return []byte(`{}`), nil }
	m.Start()
	defer m.Drain(time.Second)

	first, _ := m.Submit(JobSpec{Workload: "quickstart", Seed: 1})
	if st := waitTerminal(t, m, first.ID); st.State != StateFailed {
		t.Fatalf("injected panic = %s, want failed", st.State)
	}
	second, _ := m.Submit(JobSpec{Workload: "quickstart", Seed: 2})
	if st := waitTerminal(t, m, second.ID); st.State != StateDone {
		t.Fatalf("job after injected panic = %s (%q), want done", st.State, st.Error)
	}
}

// TestCircuitBreaker: repeated failures of one spec open its circuit;
// submissions bounce with ErrCircuitOpen until the cooldown elapses, a
// half-open trial success resets it, and a trial failure re-opens it.
func TestCircuitBreaker(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	var clock atomic.Int64 // nanoseconds of synthetic offset
	base := time.Now()

	m := NewManager(ManagerConfig{Workers: 1})
	m.now = func() time.Time { return base.Add(time.Duration(clock.Load())) }
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		if fail.Load() {
			return nil, errors.New("broken spec")
		}
		return []byte(`{}`), nil
	}
	m.Start()
	defer m.Drain(time.Second)

	spec := JobSpec{Workload: "quickstart", Seed: 42}
	for i := 0; i < breakerThreshold; i++ {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitTerminal(t, m, st.ID)
	}
	if _, err := m.Submit(spec); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("submit after %d failures: err = %v, want ErrCircuitOpen", breakerThreshold, err)
	}
	// A different spec is unaffected.
	failover, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 43})
	if err != nil {
		t.Fatalf("other spec bounced by unrelated breaker: %v", err)
	}
	waitTerminal(t, m, failover.ID)

	// Cooldown elapses; the half-open trial fails and re-opens the circuit.
	clock.Store(int64(2 * breakerCooldown))
	trial, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("half-open trial rejected: %v", err)
	}
	waitTerminal(t, m, trial.ID)
	if _, err := m.Submit(spec); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("failed trial should re-open the circuit, got err = %v", err)
	}

	// Next cooldown: the trial succeeds and the breaker resets.
	fail.Store(false)
	clock.Store(int64(4 * breakerCooldown))
	ok, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("second trial rejected: %v", err)
	}
	if st := waitTerminal(t, m, ok.ID); st.State != StateDone {
		t.Fatalf("trial = %s, want done", st.State)
	}
	if _, err := m.Submit(spec); err != nil {
		t.Fatalf("breaker should be closed after success: %v", err)
	}
}

// TestCircuitBreakerEscalation: every failed half-open trial doubles the
// cooldown, so a spec that keeps failing probes ever more slowly instead
// of hammering on a fixed period.
func TestCircuitBreakerEscalation(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	var clock atomic.Int64
	base := time.Now()

	m := NewManager(ManagerConfig{Workers: 1})
	m.now = func() time.Time { return base.Add(time.Duration(clock.Load())) }
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		if fail.Load() {
			return nil, errors.New("broken spec")
		}
		return []byte(`{}`), nil
	}
	m.Start()
	defer m.Drain(time.Second)

	spec := JobSpec{Workload: "quickstart", Seed: 99}
	for i := 0; i < breakerThreshold; i++ {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitTerminal(t, m, st.ID)
	}
	// Open for one cooldown c (shift 0). Run the half-open probe at t=2c;
	// its failure re-opens at 2x: openUntil = 2c + 2c.
	clock.Store(int64(2 * breakerCooldown))
	trial, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("first probe rejected: %v", err)
	}
	waitTerminal(t, m, trial.ID)
	// At t=3.5c the original cooldown has long passed — only the
	// escalated 2c one explains a bounce.
	clock.Store(int64(7 * breakerCooldown / 2))
	if _, err := m.Submit(spec); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("cooldown did not escalate after failed probe: err = %v", err)
	}
	// Second failed probe at t=4.5c: re-opens at 4x → openUntil = 8.5c.
	clock.Store(int64(9 * breakerCooldown / 2))
	trial2, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	waitTerminal(t, m, trial2.ID)
	clock.Store(int64(7 * breakerCooldown))
	if _, err := m.Submit(spec); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("cooldown did not double again: err = %v", err)
	}
	// A probe that finally succeeds closes the breaker and clears the
	// escalation — the next submission sails through.
	fail.Store(false)
	clock.Store(int64(9 * breakerCooldown))
	ok, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("succeeding probe rejected: %v", err)
	}
	if st := waitTerminal(t, m, ok.ID); st.State != StateDone {
		t.Fatalf("probe = %s, want done", st.State)
	}
	if _, err := m.Submit(spec); err != nil {
		t.Fatalf("breaker still open after successful probe: %v", err)
	}
}

// TestCacheCorruptionDetected: a corrupted cached artifact is detected on
// hit, purged, and recomputed — never served.
func TestCacheCorruptionDetected(t *testing.T) {
	set := faults.MustSet(faults.Spec{Point: faults.CacheCorrupt, From: 0, To: 1})
	var fills atomic.Int64
	m := NewManager(ManagerConfig{Workers: 1, Faults: set})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		fills.Add(1)
		return []byte(`{"kind":"optimize"}`), nil
	}
	m.Start()
	defer m.Drain(time.Second)

	spec := JobSpec{Workload: "quickstart"}
	first, _ := m.Submit(spec)
	if st := waitTerminal(t, m, first.ID); st.State != StateDone {
		t.Fatalf("first job = %s", st.State)
	}
	// Second submission hits the cache; the injector corrupts the hit,
	// which must be detected and recomputed.
	second, _ := m.Submit(spec)
	st := waitTerminal(t, m, second.ID)
	if st.State != StateDone {
		t.Fatalf("recomputed job = %s (%q)", st.State, st.Error)
	}
	if st.Cached {
		t.Error("corrupted hit served as cached")
	}
	if !bytes.Equal(st.Result, []byte(`{"kind":"optimize"}`)) {
		t.Errorf("result = %q, want the recomputed artifact", st.Result)
	}
	if fills.Load() != 2 {
		t.Errorf("fills = %d, want 2 (original + recompute)", fills.Load())
	}

	// Third submission: the injector's one-event window is spent, so the
	// (re-stored) artifact is served clean from cache.
	third, _ := m.Submit(spec)
	if st := waitTerminal(t, m, third.ID); !st.Cached {
		t.Errorf("clean hit not served from cache (state %s)", st.State)
	}
	if fills.Load() != 2 {
		t.Errorf("clean hit refilled: %d fills", fills.Load())
	}
}

// TestResilienceMetricsRendered: every new counter appears in the
// Prometheus exposition.
func TestResilienceMetricsRendered(t *testing.T) {
	met := NewMetrics()
	met.add(workerPanics, "", 1)
	met.add(circuitOpened, "", 1)
	met.add(circuitRejected, "", 1)
	met.add(journalRecovered, "", 1)
	met.add(journalRequeued, "", 1)
	met.add(cacheCorruptions, "", 1)
	var buf bytes.Buffer
	met.WritePrometheus(&buf, nil)
	for _, want := range []string{
		"p2god_worker_panics_total 1",
		"p2god_circuit_opened_total 1",
		"p2god_circuit_rejected_total 1",
		"p2god_journal_recovered_total 1",
		"p2god_journal_requeued_total 1",
		"p2god_cache_corruption_total 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// waitTerminal polls until the job reaches any terminal state.
func waitTerminal(t *testing.T, m *Manager, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Get(id, true)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}
