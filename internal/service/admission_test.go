package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2go/internal/faults"
	"p2go/internal/obs"
)

// gatedExec is an execFn whose fills block until release is closed; it
// counts them.
func gatedExec(fills *atomic.Int64, release <-chan struct{}) func(context.Context, *Job) ([]byte, error) {
	return func(ctx context.Context, job *Job) ([]byte, error) {
		fills.Add(1)
		select {
		case <-release:
			return []byte(fmt.Sprintf(`{"kind":"optimize","seed":%d}`, job.Spec.Seed)), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestAdmissionHitLifecycle: the second submission of a spec is answered
// by the POST itself — terminal, done, cached — without touching the
// queue, a worker or the occupancy counters, and it is counted exactly
// once everywhere a job is counted. With the queue full and the one worker
// blocked, a request that needs no work is still answered while one that
// needs a worker is refused.
func TestAdmissionHitLifecycle(t *testing.T) {
	var fills, blocked atomic.Int64
	release := make(chan struct{})
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 1})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		if job.Spec.Seed == 1 { // the spec under test runs straight through
			fills.Add(1)
			return []byte(`{"kind":"optimize"}`), nil
		}
		return gatedExec(&blocked, release)(ctx, job)
	}
	srv := newServerOn(t, m)

	spec := JobSpec{Kind: "optimize", Workload: "quickstart", Seed: 1}
	first, resp := postJob(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted || first.State != StateQueued {
		t.Fatalf("cold submit = %s, state %s; want 202 queued", resp.Status, first.State)
	}
	cold := waitState(t, m, first.ID, StateDone)
	if cold.Cached {
		t.Fatal("the cold job came back cached")
	}
	// The finished counter follows the state flip; let it land before the
	// snapshot the deltas are taken against.
	before := metricsWhen(t, srv.URL, `p2god_jobs_finished_total{outcome="done"} 1`)
	statsBefore := m.Cache().Stats()

	hit, resp := postJob(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %s, want 202", resp.Status)
	}
	if hit.State != StateDone || !hit.Cached || hit.ID == first.ID {
		t.Fatalf("resubmit status = %+v, want a new job already done and cached", hit)
	}
	if hit.StartedAt == "" || hit.FinishedAt == "" || len(hit.Result) != 0 {
		t.Errorf("resubmit status = %+v, want timestamps set and no result in the POST response", hit)
	}
	if q, r := m.Counts(); q != 0 || r != 0 {
		t.Errorf("Counts() = %d queued, %d running after an admission hit; want 0, 0", q, r)
	}
	if got := fills.Load(); got != 1 {
		t.Errorf("fills = %d, want 1: the hit must not run the pipeline", got)
	}
	full := getJob(t, srv.URL, hit.ID)
	if !bytes.Equal(full.Result, cold.Result) {
		t.Errorf("served result %s, want the cold job's stored bytes %s", full.Result, cold.Result)
	}
	if st := m.Cache().Stats(); st.Hits != statsBefore.Hits+1 || st.Misses != statsBefore.Misses {
		t.Errorf("cache stats %+v -> %+v, want exactly one more hit", statsBefore, st)
	}
	after := getBody(t, srv.URL+"/metrics")
	for _, want := range []string{
		"p2god_jobs_submitted_total 2",
		`p2god_jobs_finished_total{outcome="done"} 2`,
		`p2god_cache_hits_total{kind="job"} 1`,
		`p2god_cache_misses_total{kind="job"} 1`,
		"p2god_jobs_queued 0",
		"p2god_queue_wait_seconds_count 1",
	} {
		if !strings.Contains(after, want+"\n") {
			t.Errorf("metrics lack %q after the hit; before:\n%s\nafter:\n%s", want,
				grepLines(before, "p2god_jobs_"), grepLines(after, "p2god_jobs_"))
		}
	}

	// Fill the pool and the queue: seed 2 blocks the worker, seed 3 the
	// one queue slot.
	running, _ := postJob(t, srv.URL, JobSpec{Workload: "quickstart", Seed: 2})
	waitState(t, m, running.ID, StateRunning)
	if _, resp := postJob(t, srv.URL, JobSpec{Workload: "quickstart", Seed: 3}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling submit: %s, want 202", resp.Status)
	}
	if _, resp := postJob(t, srv.URL, JobSpec{Workload: "quickstart", Seed: 4}); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("a miss against a full queue: %s, want 429", resp.Status)
	}
	again, resp := postJob(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted || again.State != StateDone || !again.Cached {
		t.Errorf("a hit against a full queue: %s, %+v; want 202, done and cached", resp.Status, again)
	}
	close(release)
}

// metricsWhen scrapes /metrics until it contains want.
func metricsWhen(t *testing.T, base, want string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		body := getBody(t, base+"/metrics")
		if strings.Contains(body, want+"\n") {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never showed %q:\n%s", want, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdmissionHitCorrupted: a cached artifact that fails validation at
// admission is detected, purged and recomputed by a worker — the request
// falls through to the queued path and comes back uncached. (The worker-side
// detection is TestCacheCorruptionDetected.)
func TestAdmissionHitCorrupted(t *testing.T) {
	// Event 0 is the first hit: the admission probe of the second submit.
	set := faults.MustSet(faults.Spec{Point: faults.CacheCorrupt, From: 0, To: 1})
	var fills atomic.Int64
	m := NewManager(ManagerConfig{Workers: 1, Faults: set})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		fills.Add(1)
		return []byte(`{"kind":"optimize"}`), nil
	}
	m.Start()
	defer m.Drain(time.Second)

	spec := JobSpec{Workload: "quickstart", Seed: 9}
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cold := waitTerminal(t, m, first.ID)

	second, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateQueued {
		t.Fatalf("submit over a corrupted artifact = %s, want queued for a recompute", second.State)
	}
	st := waitTerminal(t, m, second.ID)
	if st.State != StateDone || st.Cached {
		t.Fatalf("recomputed job = %s cached=%v (%q), want done and not cached", st.State, st.Cached, st.Error)
	}
	if !bytes.Equal(st.Result, cold.Result) {
		t.Errorf("recomputed result %s, want %s", st.Result, cold.Result)
	}
	if fills.Load() != 2 {
		t.Errorf("fills = %d, want 2 (original + recompute)", fills.Load())
	}
	var buf bytes.Buffer
	m.Metrics().WritePrometheus(&buf, nil)
	if !strings.Contains(buf.String(), "p2god_cache_corruption_total 1\n") {
		t.Errorf("corruption not counted:\n%s", grepLines(buf.String(), "corruption"))
	}

	// The injector's window is spent: the re-stored artifact is served at
	// admission.
	third, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if third.State != StateDone || !third.Cached || fills.Load() != 2 {
		t.Errorf("clean resubmit = %s cached=%v after %d fills, want an admission hit and no third fill",
			third.State, third.Cached, fills.Load())
	}
}

// TestAdmissionHitNotJournaledPending: a job answered at admission was
// never pending, so kill -9 right after any number of them leaves nothing
// to recover — by Recover on restart or by a peer's ReadPending — and no
// damage to warn about. A queued job accepted in between is still
// recovered.
func TestAdmissionHitNotJournaledPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	var fills atomic.Int64
	m := NewManager(ManagerConfig{Workers: 1, Journal: j})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		if job.Spec.Seed == 1 {
			return []byte(`{}`), nil
		}
		return gatedExec(&fills, release)(ctx, job)
	}
	m.Start()

	spec := JobSpec{Workload: "quickstart", Seed: 1}
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateDone)
	const hits = 5
	for i := 0; i < hits; i++ {
		st, err := m.Submit(spec)
		if err != nil || st.State != StateDone || !st.Cached {
			t.Fatalf("resubmit %d = %+v, %v; want an admission hit", i, st, err)
		}
		if i == 2 {
			// One job that does need recovering, in the middle of the hits.
			if _, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	m.Kill()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte(`"op":"accepted"`)); got != 2 {
		t.Errorf("journal holds %d accepted records, want 2 (the cold job and the blocked one):\n%s", got, data)
	}
	if got := bytes.Count(data, []byte(`"op":"finished"`)); got != 1+hits {
		t.Errorf("journal holds %d finished lines, want %d (the cold job and one per hit):\n%s", got, 1+hits, data)
	}
	peer, warnings, err := ReadPending(path)
	if err != nil || len(warnings) != 0 {
		t.Fatalf("ReadPending: %v, warnings %v", err, warnings)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	own, warnings, err := j2.Recover()
	if err != nil || len(warnings) != 0 {
		t.Fatalf("Recover: %v, warnings %v", err, warnings)
	}
	for name, pending := range map[string][]PendingJob{"ReadPending": peer, "Recover": own} {
		if len(pending) != 1 || pending[0].Spec.Seed != 2 {
			t.Errorf("%s = %+v, want only the blocked seed-2 job", name, pending)
		}
	}
}

// TestAdmissionHitTraceGolden: a job answered at admission explains itself
// like any other — GET /jobs/{id}/trace serves a two-span tree in the
// shape of a worker-run cache hit, and TraceDir gets the file.
func TestAdmissionHitTraceGolden(t *testing.T) {
	traceDir := t.TempDir()
	m := NewManager(ManagerConfig{Workers: 1, TraceDir: traceDir})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) { return []byte(`{}`), nil }
	srv := newServerOn(t, m)

	spec := JobSpec{Kind: "optimize", Workload: "quickstart", Seed: 3}
	first, _ := postJob(t, srv.URL, spec)
	waitState(t, m, first.ID, StateDone)
	hit, _ := postJob(t, srv.URL, spec)
	if hit.State != StateDone || !hit.Cached {
		t.Fatalf("resubmit = %+v, want an admission hit", hit)
	}

	spans, ok := m.Trace(hit.ID)
	if !ok {
		t.Fatal("no trace for a job answered at admission")
	}
	col := obs.NewCollector(0)
	for _, s := range spans {
		col.Export(s)
	}
	want := "job admission=true cache_hit=true digest=" + hit.Digest + " id=" + hit.ID +
		" kind=optimize outcome=done seed=3 workload=quickstart\n" +
		"  cache.lookup hit=true key=job:" + hit.Digest + " kind=job\n"
	if got := col.Tree(); got != want {
		t.Errorf("Tree() =\n%s\nwant:\n%s", got, want)
	}
	// The worker-run cold job's tree has the same two spans around its
	// pipeline: same names, same attribute keys on the lookup.
	coldSpans, _ := m.Trace(first.ID)
	names := map[string]bool{}
	for _, s := range coldSpans {
		names[s.Name] = true
	}
	if !names["job"] || !names["cache.lookup"] {
		t.Errorf("cold job's trace lacks the spans the admission tree mirrors: %v", names)
	}

	resp, err := http.Get(srv.URL + "/jobs/" + hit.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET trace of an admission hit: %s, want 200", resp.Status)
	}
	data, err := os.ReadFile(filepath.Join(traceDir, hit.ID+".trace.json"))
	if err != nil {
		t.Fatalf("persisted trace: %v", err)
	}
	if !bytes.Contains(data, []byte(`"cache.lookup"`)) {
		t.Errorf("persisted trace lacks the lookup span: %s", data)
	}
}

// TestAdmissionRefusalsComeFirst: draining and an open circuit refuse a
// submission whether or not the cache could have answered it.
func TestAdmissionRefusalsComeFirst(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) { return []byte(`{}`), nil }
	m.Start()
	spec := JobSpec{Workload: "quickstart", Seed: 4}
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateDone)

	m.mu.Lock()
	m.breakers[first.Digest] = &breakerState{fails: breakerThreshold, openUntil: time.Now().Add(time.Hour)}
	m.mu.Unlock()
	if _, err := m.Submit(spec); !errors.Is(err, ErrCircuitOpen) {
		t.Errorf("submit under an open circuit = %v, want ErrCircuitOpen", err)
	}
	m.mu.Lock()
	delete(m.breakers, first.Digest)
	m.mu.Unlock()

	m.Drain(time.Second)
	if _, err := m.Submit(spec); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining = %v, want ErrDraining", err)
	}
}

// TestPruneDropsOldestTerminal: the terminal backlog is capped at
// maxFinishedJobs, oldest dropped first, jobs still pending never — and
// the counter pruning runs on agrees with the table.
func TestPruneDropsOldestTerminal(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var fills atomic.Int64
	m := NewManager(ManagerConfig{Workers: 2})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		if job.Spec.Seed == 1 {
			return []byte(`{}`), nil
		}
		return gatedExec(&fills, release)(ctx, job)
	}
	m.Start()
	defer m.Drain(time.Second)

	blocked, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Workload: "quickstart", Seed: 1}
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateDone)
	var last JobStatus
	for i := 0; i < maxFinishedJobs+40; i++ {
		if last, err = m.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	jobs := m.List()
	if len(jobs) != maxFinishedJobs+1 {
		t.Fatalf("%d jobs tracked, want the blocked one and %d terminal", len(jobs), maxFinishedJobs)
	}
	if jobs[0].ID != blocked.ID || jobs[0].State.Terminal() {
		t.Errorf("oldest tracked job = %+v, want the still-running %s", jobs[0], blocked.ID)
	}
	if jobs[len(jobs)-1].ID != last.ID {
		t.Errorf("newest tracked job = %s, want %s", jobs[len(jobs)-1].ID, last.ID)
	}
	if _, ok := m.Get(first.ID, false); ok {
		t.Errorf("the oldest terminal job %s survived pruning", first.ID)
	}
	m.mu.Lock()
	terminal := 0
	for _, job := range m.jobs {
		if job.state.Terminal() {
			terminal++
		}
	}
	if terminal != m.terminal || len(m.order) != len(m.jobs) {
		t.Errorf("terminal counter %d vs %d terminal jobs; %d ordered vs %d tracked",
			m.terminal, terminal, len(m.order), len(m.jobs))
	}
	m.mu.Unlock()
}
