package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"p2go/internal/cache"
	"p2go/internal/cluster"
	"p2go/internal/faults"
)

// haClock is a shared synthetic clock for every node in a test replica
// group, so membership and lease TTLs expire exactly when the test says.
type haClock struct {
	mu  sync.Mutex
	now time.Time
}

func newHAClock() *haClock {
	return &haClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *haClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *haClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// haReplica is one in-process replica: a manager joined to the shared
// group directory, with its own journal and its own in-memory cache over
// the shared spill directory — the same sharing shape as N real p2god
// processes pointed at one -cluster-dir.
type haReplica struct {
	node *cluster.Node
	jrnl *Journal
	m    *Manager
}

func newHAReplica(t *testing.T, dir, id string, clk *haClock, workers int) *haReplica {
	t.Helper()
	node, err := cluster.Join(cluster.Config{Dir: dir, ID: id, TTL: time.Second, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	jrnl, err := OpenJournal(node.JournalPath(id))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(ManagerConfig{
		Workers: workers,
		Journal: jrnl,
		Cache:   NewCache(0, filepath.Join(dir, "spill")),
		Cluster: node,
	})
	// No background loop: the test drives renewal and takeover
	// deterministically under the synthetic clock.
	m.renewEvery = 0
	return &haReplica{node: node, jrnl: jrnl, m: m}
}

// TestClusterKillTakeover is the headline chaos proof in miniature:
// replica r1 accepts jobs and is kill -9'd with one running and one
// queued; after its leases age out, r2's takeover scan reclaims both from
// r1's journal and completes them under their original IDs, with the
// takeover attributed in the job status.
func TestClusterKillTakeover(t *testing.T) {
	dir := t.TempDir()
	clk := newHAClock()

	r1 := newHAReplica(t, dir, "r1", clk, 1)
	r1.m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		<-ctx.Done() // wedged until the kill
		return nil, ctx.Err()
	}
	r1.m.Start()
	first, err := r1.m.Submit(JobSpec{Workload: "quickstart", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r1.m, first.ID, StateRunning)
	second, err := r1.m.Submit(JobSpec{Workload: "quickstart", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(first.ID, "r1-") {
		t.Fatalf("cluster-mode job ID %q is not replica-prefixed", first.ID)
	}
	r1.m.Kill()

	r2 := newHAReplica(t, dir, "r2", clk, 2)
	r2.m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		return []byte(fmt.Sprintf(`{"seed":%d}`, job.Spec.Seed)), nil
	}
	r2.m.Start()
	defer r2.m.Drain(time.Second)

	// r1 is dead but its membership lease has not expired yet: nothing to
	// reclaim, and the scan must not jump the gun.
	if n := r2.m.TakeoverScan(); n != 0 {
		t.Fatalf("scan before lease expiry reclaimed %d job(s)", n)
	}
	clk.Advance(2 * time.Second) // past the 1s TTL: r1 is now provably dead
	if n := r2.m.TakeoverScan(); n != 2 {
		t.Fatalf("takeover scan reclaimed %d job(s), want 2", n)
	}
	// Idempotent: a second scan (or another survivor) finds the jobs
	// already claimed.
	if n := r2.m.TakeoverScan(); n != 0 {
		t.Fatalf("second scan re-reclaimed %d job(s)", n)
	}

	for _, id := range []string{first.ID, second.ID} {
		st := waitTerminal(t, r2.m, id)
		if st.State != StateDone {
			t.Fatalf("reclaimed job %s = %s (%q), want done", id, st.State, st.Error)
		}
		if st.TakenOverFrom != "r1" || st.Replica != "r2" {
			t.Errorf("job %s attribution = replica %q taken_over_from %q, want r2/r1",
				id, st.Replica, st.TakenOverFrom)
		}
	}

	// The takeover markers in r1's journal make its pending set empty: a
	// restarted r1 (or a third replica) recovers nothing.
	left, _, err := ReadPending(r1.node.JournalPath("r1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("dead peer's journal still lists %d pending job(s) after takeover", len(left))
	}

	var buf bytes.Buffer
	r2.m.Metrics().WritePrometheus(&buf, nil)
	if !strings.Contains(buf.String(), "p2god_cluster_takeover_jobs_total 2") {
		t.Errorf("takeover metric not counted:\n%s", buf.String())
	}
}

// TestStaleLeaseFencing: a paused replica whose lease expired must not
// commit after it resumes. r1 starts a job and stalls mid-compute; its
// lease ages out; r2 reclaims the job at a higher epoch and completes it.
// When r1 wakes up and tries to commit, the epoch check rejects the
// write: its job fails fenced, and the shared cache holds only r2's
// result.
func TestStaleLeaseFencing(t *testing.T) {
	dir := t.TempDir()
	clk := newHAClock()

	started := make(chan struct{})
	gate := make(chan struct{})
	r1 := newHAReplica(t, dir, "r1", clk, 1)
	r1.m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		close(started)
		<-gate // "paused": a GC stall, a VM freeze, a partition
		return []byte(`{"who":"r1"}`), nil
	}
	r1.m.Start()
	defer r1.m.Drain(time.Second)

	st, err := r1.m.Submit(JobSpec{Workload: "quickstart", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	<-started // r1's worker holds the epoch-1 lease and is now stalled

	clk.Advance(2 * time.Second) // r1's membership and job lease both expire

	r2 := newHAReplica(t, dir, "r2", clk, 1)
	r2.m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		return []byte(`{"who":"r2"}`), nil
	}
	r2.m.Start()
	defer r2.m.Drain(time.Second)
	if n := r2.m.TakeoverScan(); n != 1 {
		t.Fatalf("takeover scan reclaimed %d job(s), want 1", n)
	}
	if fin := waitTerminal(t, r2.m, st.ID); fin.State != StateDone {
		t.Fatalf("reclaimed job on r2 = %s (%q)", fin.State, fin.Error)
	}

	// r1 resumes and tries to publish its stale result.
	close(gate)
	fin := waitTerminal(t, r1.m, st.ID)
	if fin.State != StateFailed || !strings.Contains(fin.Error, "fenced") {
		t.Fatalf("resumed stale job = %s (%q), want failed fenced", fin.State, fin.Error)
	}

	// The shared spill holds r2's result — the fenced write never landed.
	key := "job:" + JobSpec{Workload: "quickstart", Seed: 7}.RouteKey()
	data, err := os.ReadFile(filepath.Join(dir, "spill", strings.ReplaceAll(key, ":", "_")))
	if err != nil {
		t.Fatalf("shared spill missing the job artifact: %v", err)
	}
	if want := cache.AppendRecord(nil, key, []byte(`{"who":"r2"}`)); !bytes.Equal(data, want) {
		t.Errorf("shared spill holds %q, want r2's result only", data)
	}

	var buf bytes.Buffer
	r1.m.Metrics().WritePrometheus(&buf, nil)
	if !strings.Contains(buf.String(), "p2god_cluster_fenced_commits_total 1") {
		t.Errorf("fenced commit not counted on r1:\n%s", buf.String())
	}
}

// TestClusterLeaseRenewalKeepsOwnership: a live replica that renews on
// time never loses jobs to a scan, even long after the original TTL.
func TestClusterLeaseRenewalKeepsOwnership(t *testing.T) {
	dir := t.TempDir()
	clk := newHAClock()

	gate := make(chan struct{})
	r1 := newHAReplica(t, dir, "r1", clk, 1)
	r1.m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		<-gate
		return []byte(`{}`), nil
	}
	r1.m.Start()
	defer r1.m.Drain(time.Second)
	st, err := r1.m.Submit(JobSpec{Workload: "quickstart", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, r1.m, st.ID, StateRunning)

	r2 := newHAReplica(t, dir, "r2", clk, 1)
	r2.m.execFn = func(ctx context.Context, job *Job) ([]byte, error) { return []byte(`{}`), nil }
	r2.m.Start()
	defer r2.m.Drain(time.Second)

	// Three TTLs pass, but r1 keeps renewing (the ticks a live replica's
	// cluster loop would deliver).
	for i := 0; i < 6; i++ {
		clk.Advance(500 * time.Millisecond)
		r1.m.ClusterTick()
		if n := r2.m.TakeoverScan(); n != 0 {
			t.Fatalf("scan stole %d job(s) from a live, renewing replica", n)
		}
	}
	close(gate)
	if fin := waitTerminal(t, r1.m, st.ID); fin.State != StateDone {
		t.Fatalf("job on renewing replica = %s (%q)", fin.State, fin.Error)
	}
	if fin := waitTerminal(t, r1.m, st.ID); fin.TakenOverFrom != "" {
		t.Error("job on live replica marked as taken over")
	}
}

// TestDuplicateDigestServedFromPeerCache: when a replica cannot acquire a
// job's lease because a peer holds it, and the peer's result is already
// in the shared cache, the job is served from there instead of failing.
func TestDuplicateDigestServedFromPeerCache(t *testing.T) {
	dir := t.TempDir()
	clk := newHAClock()

	r1 := newHAReplica(t, dir, "r1", clk, 1)
	spec := JobSpec{Workload: "quickstart", Seed: 5}
	// The "peer" r2 holds the digest lease and has already published its
	// result into the shared cache namespace.
	r2 := newHAReplica(t, dir, "r2", clk, 1)
	key := "job:" + spec.RouteKey()
	if _, err := r2.node.AcquireJob(key); err != nil {
		t.Fatal(err)
	}
	r2.m.Cache().PutBytes(key, []byte(`{"who":"r2"}`))

	r1.m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		t.Error("execFn ran despite a held lease and a cached peer result")
		return nil, errors.New("unreachable")
	}
	r1.m.Start()
	defer r1.m.Drain(time.Second)
	st, err := r1.m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, r1.m, st.ID)
	if fin.State != StateDone || !fin.Cached {
		t.Fatalf("job = %s cached=%v (%q), want done from the shared cache", fin.State, fin.Cached, fin.Error)
	}
	if !bytes.Equal(fin.Result, []byte(`{"who":"r2"}`)) {
		t.Errorf("result = %q, want the peer's cached artifact", fin.Result)
	}
}

// TestLeaseLostHitNeverComputes: a worker that cannot acquire its job's
// lease may only serve the peer's published result. When that result fails
// validation (here an injected cache.corrupt), the worker must not compute
// it itself — it holds no lease, so nothing would fence its publish — but
// fail the job with the lease error, as it does when the peer's result has
// not landed yet.
func TestLeaseLostHitNeverComputes(t *testing.T) {
	dir := t.TempDir()
	clk := newHAClock()

	r1 := newHAReplica(t, dir, "r1", clk, 1)
	r1.m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		t.Error("execFn ran without the job's lease")
		return []byte(`{"who":"r1"}`), nil
	}
	spec := JobSpec{Workload: "quickstart", Seed: 11}
	// Submitted before Start: queued, not answered at admission.
	st, err := r1.m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2 := newHAReplica(t, dir, "r2", clk, 1)
	key := "job:" + spec.RouteKey()
	if _, err := r2.node.AcquireJob(key); err != nil {
		t.Fatal(err)
	}
	r2.m.Cache().PutBytes(key, []byte(`{"who":"r2"}`))
	r1.m.cfg.Faults = faults.MustSet(faults.Spec{Point: faults.CacheCorrupt, From: 0, To: 1})

	r1.m.Start()
	defer r1.m.Drain(time.Second)
	fin := waitTerminal(t, r1.m, st.ID)
	if fin.State != StateFailed || !strings.Contains(fin.Error, cluster.ErrHeld.Error()) {
		t.Fatalf("job = %s (%q), want failed with the lease error", fin.State, fin.Error)
	}
	var buf bytes.Buffer
	r1.m.Metrics().WritePrometheus(&buf, nil)
	if !strings.Contains(buf.String(), "p2god_cache_corruption_total 1\n") {
		t.Errorf("corruption not counted:\n%s", grepLines(buf.String(), "corruption"))
	}
}
