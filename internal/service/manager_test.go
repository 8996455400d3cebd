package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"p2go/internal/cache"
)

// waitState polls until the job reaches want or the deadline expires.
func waitState(t *testing.T, m *Manager, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Get(id, true)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// TestConcurrentIdenticalJobsSingleFlight is the satellite requirement: N
// parallel identical jobs must produce one cache fill and N-1 hits.
func TestConcurrentIdenticalJobsSingleFlight(t *testing.T) {
	const n = 6
	var fills atomic.Int64
	release := make(chan struct{})
	m := NewManager(ManagerConfig{Workers: n, QueueDepth: n})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		fills.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return []byte(`{"kind":"optimize"}`), nil
	}
	m.Start()
	defer m.Drain(time.Second)

	spec := JobSpec{Kind: "optimize", Workload: "quickstart"}
	var ids []string
	for i := 0; i < n; i++ {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	// Let every worker pick its job up, then release the single fill.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, running := m.Counts(); running == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("workers never picked all jobs up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)

	cachedCount := 0
	for _, id := range ids {
		st := waitState(t, m, id, StateDone)
		if string(st.Result) != `{"kind":"optimize"}` {
			t.Errorf("job %s result = %s", id, st.Result)
		}
		if st.Cached {
			cachedCount++
		}
	}
	if got := fills.Load(); got != 1 {
		t.Errorf("fills = %d, want 1 (single-flight)", got)
	}
	if cachedCount != n-1 {
		t.Errorf("cached jobs = %d, want %d", cachedCount, n-1)
	}
	if st := m.Cache().Stats(); st.Hits != n-1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want %d hits / 1 miss", st, n-1)
	}
}

// TestCancelReleasesWorkerSlot is the satellite requirement: canceling a
// running job must free its worker for the next job.
func TestCancelReleasesWorkerSlot(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		if job.Spec.Seed == 99 { // the blocked job
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return []byte(`{}`), nil
	}
	m.Start()
	defer m.Drain(time.Second)

	blocked, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocked.ID, StateRunning)
	if _, err := m.Cancel(blocked.ID); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, m, blocked.ID, StateCanceled)
	if st.Error == "" {
		t.Error("canceled job should carry an error string")
	}

	// The single worker must now be free to run another job.
	next, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, next.ID, StateDone)
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	m.Start()
	defer m.Drain(time.Second)

	first, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateRunning)
	queued, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitState(t, m, first.ID, StateDone)
	st := waitState(t, m, queued.ID, StateCanceled)
	if st.StartedAt != "" {
		t.Error("queued job canceled before start should never have started")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 1})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	m.Start()
	defer m.Drain(time.Second)

	running, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning) // queue now empty
	if _, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 2}); err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	if _, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	close(release)
}

func TestDrainCancelsAndRejects(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		<-ctx.Done() // only finishes via cancellation
		return nil, ctx.Err()
	}
	m.Start()

	running, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	queued, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	m.Drain(50 * time.Millisecond)

	if st, _ := m.Get(running.ID, false); st.State != StateCanceled {
		t.Errorf("running job state after drain = %s, want canceled", st.State)
	}
	if st, _ := m.Get(queued.ID, false); st.State != StateCanceled {
		t.Errorf("queued job state after drain = %s, want canceled", st.State)
	}
	if _, err := m.Submit(JobSpec{Workload: "quickstart"}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain err = %v, want ErrDraining", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := NewManager(ManagerConfig{})
	if _, err := m.Submit(JobSpec{Kind: "bogus"}); err == nil {
		t.Error("bogus kind should fail")
	}
	if _, err := m.Submit(JobSpec{Workload: "no-such-workload"}); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestJobTimeout(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 2})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	m.Start()
	defer m.Drain(time.Second)

	st, err := m.Submit(JobSpec{Workload: "quickstart", TimeoutSeconds: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		got, _ := m.Get(st.ID, false)
		if got.State.Terminal() {
			if got.State != StateFailed {
				t.Fatalf("timed-out job state = %s, want failed", got.State)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never timed out")
}

func TestDigestDistinguishesConcatenation(t *testing.T) {
	if cache.Digest("ab", "c") == cache.Digest("a", "bc") {
		t.Fatal("length prefixing failed: ambiguous concatenation collides")
	}
	if cache.Digest("x") != cache.Digest("x") {
		t.Fatal("digest not deterministic")
	}
}

func TestJobSpecDigest(t *testing.T) {
	a := JobSpec{Kind: "optimize", Workload: "ex1", Seed: 1}
	b := JobSpec{Kind: "optimize", Workload: "ex1", Seed: 1, TimeoutSeconds: 30}
	c := JobSpec{Kind: "optimize", Workload: "ex1", Seed: 2}
	if a.digest() != b.digest() {
		t.Error("timeout must not change the artifact digest")
	}
	if a.digest() == c.digest() {
		t.Error("seed must change the artifact digest")
	}
	d := JobSpec{Kind: "optimize", Workload: "ex1", Seed: 1, Passes: []string{"phase2", "phase4"}}
	if a.digest() == d.digest() {
		t.Error("the pass schedule must change the artifact digest")
	}
	for i, spec := range []*JobSpec{&a, &b, &c, &d} {
		if err := spec.normalize(); err != nil {
			t.Fatalf("normalize %d: %v", i, err)
		}
	}
}

func TestJobSpecPasses(t *testing.T) {
	base := JobSpec{Kind: "optimize", Workload: "ex1", Seed: 1}
	reordered := JobSpec{Kind: "optimize", Workload: "ex1", Seed: 1,
		Passes: []string{"phase4", "phase2", "phase3"}}
	defaultOrder := JobSpec{Kind: "optimize", Workload: "ex1", Seed: 1,
		Passes: []string{"phase2", "phase3", "phase4"}}
	if base.digest() == reordered.digest() {
		t.Error("an explicit pass schedule must change the artifact digest")
	}
	if reordered.digest() == defaultOrder.digest() {
		t.Error("pass order must change the artifact digest")
	}

	// JSON cannot distinguish [] from absent: both normalize to nil and
	// share the no-Passes digest.
	empty := JobSpec{Kind: "optimize", Workload: "ex1", Seed: 1, Passes: []string{}}
	if err := empty.normalize(); err != nil {
		t.Fatal(err)
	}
	if empty.Passes != nil {
		t.Errorf("normalize kept empty Passes %v, want nil", empty.Passes)
	}
	if err := base.normalize(); err != nil {
		t.Fatal(err)
	}
	if empty.digest() != base.digest() {
		t.Error("empty pass list must digest like an absent one")
	}

	bad := JobSpec{Kind: "optimize", Workload: "ex1", Seed: 1, Passes: []string{"phase5"}}
	if err := bad.normalize(); err == nil {
		t.Error("normalize accepted unknown pass phase5")
	}
}
